"""CONC fixture: lost-update global writes."""

STATS = {"hits": 0}
HISTORY = []


def record(key):
    STATS["hits"] += 1
    HISTORY.append(key)
