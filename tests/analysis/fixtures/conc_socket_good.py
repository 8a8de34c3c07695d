"""CONC003 fixture: the same shapes, done safely.

The task carries the *address* and connects on the worker side; the
only sockets handed to a dispatch go to a plain thread-pool
``.submit`` or two-operand ``.map``, which share the address space and
are out of CONC003's scope by design.
"""

import socket


def ship(pool, address):
    def encoded(common, item):
        with socket.create_connection(common) as connection:
            connection.sendall(item)
            return connection.recv(4096)

    return pool.submit_batch(encoded, address, [b"a"])


def thread_local_use(pool, address):
    connection = socket.create_connection(address)

    def task(item):
        return connection.sendall(item)

    # a thread pool shares the address space: handing it a socket is
    # legitimate, and .submit is not a wire dispatch
    pool.map(task, [b"b"])
    return pool.submit(task, b"a")
