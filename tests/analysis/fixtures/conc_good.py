"""CONC fixture: the same shapes, done safely."""

import threading

_LOCK = threading.Lock()
STATS = {"hits": 0}
HISTORY = []
_LOCAL = threading.local()


def record(key):
    with _LOCK:
        STATS["hits"] += 1
        HISTORY.append(key)
    _LOCAL.last = key
