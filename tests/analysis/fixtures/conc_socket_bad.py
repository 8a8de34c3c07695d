"""CONC003 fixture: sockets captured into wire-shipped batch tasks."""

import socket


def ship_named(pool, address):
    connection = socket.create_connection(address)

    def encoded(common, item):
        connection.sendall(item)
        return connection.recv(4096)

    return pool.submit_batch(encoded, None, [b"a"])


def ship_lambda(pool, host, port):
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.connect((host, port))
    return pool.map(lambda common, item: sock.send(item), None, [b"a"])


def ship_with_bound(pool, address):
    with socket.create_connection(address) as wire:

        def encoded(common, item):
            return wire.recv(item)

        return pool.submit_batch(fn=encoded, common=None, items=[16])
