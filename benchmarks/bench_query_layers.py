"""The layers of the exact query path, and one client session.

The end-to-end ``query`` workload opens a SQLite store of exact
relations and answers ``IS`` selections over them.  Its two largest
layers, and a session as a whole, are reported here so that each has a
history in ``BENCH_RESULTS.json``:

* ``sqlite_load_exact_1000_seconds`` -- loading one exact 1000-entity
  synthetic relation from SQLite (row decoding, the framed evidence
  parse straight into the kernel form, tuple construction);
* ``is_select_exact_1000_seconds`` -- one ``IS`` selection scan over
  the loaded relation (int ``Bel``/``Pls`` sums, ``F_TM``, the
  threshold), after a first scan has built the relation's evidence
  column and focal-mask index for the attribute, as every later query
  of a session finds them;
* ``project_exact_1000_seconds`` -- the projection of the loaded
  relation onto its key and one uncertain attribute (tuples that share
  the loaded, already checked values);
* ``query_session_exact_1000_seconds`` -- one session: ``Database.open``
  of a store of two exact 1000-entity relations, a fixed mix of ``IS``
  selections over both uncertain attributes of both, then ``close``;
* ``query_session_gc_seconds`` -- the cyclic garbage collector's time
  inside a session (through ``gc.callbacks``), averaged over the
  sessions, each run after the last with the collector on as usual;
* ``query_session_cycle_objects`` -- the objects a ``gc.collect()``
  finds after one session's database is closed and dropped: what only
  the collector, not reference counting, could free.

Times are medians of repeated runs, except the collector's mean.  They
are reported, not gated: the only assertions are that the load returns
the stored relation, that the scan keeps some but not all tuples, that
the projection keeps every tuple, and that every session returns the
same answers.
"""

import gc
import statistics
import time

from repro.algebra import IsPredicate, project, select
from repro.algebra.thresholds import sn_at_least
from repro.datasets.generators import (
    SyntheticConfig,
    synthetic_pair,
    synthetic_relation,
)
from repro.storage.backends import create_database
from repro.storage.database import Database

ENTITIES = 1000
LOADS = 7
SCANS = 21
SESSIONS = 9

#: One session's selections: four per attribute on each relation, so a
#: session scans each relation eight times.
SESSION_QUERIES = tuple(
    f"SELECT * FROM {relation} WHERE {attribute} IS {{{values}}}"
    for relation in "LR"
    for attribute, values in (
        ("category", "c1"),
        ("category", "c1, c4"),
        ("category", "c2, c5, c7"),
        ("category", "c0, c3, c6, c9"),
        ("score", "1"),
        ("score", "2, 5"),
        ("score", "0, 4, 8"),
        ("score", "3, 6, 9, 11"),
    )
)


def _median_seconds(operation, repeats: int):
    times = []
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = operation()
        times.append(time.perf_counter() - started)
    return statistics.median(times), result


def test_exact_query_layers(tmp_path, bench_record):
    relation = synthetic_relation(
        SyntheticConfig(n_tuples=ENTITIES, exact=True, seed=4242), "L"
    )
    url = f"sqlite:{tmp_path / 'layers.db'}"
    database = create_database(url, "layers")
    database.add(relation)
    database.persist()
    database.close()

    def load():
        opened = Database.open(url)
        try:
            return opened.get("L")
        finally:
            opened.close()

    load_seconds, loaded = _median_seconds(load, LOADS)
    assert loaded == relation

    predicate = IsPredicate("category", {"c1", "c4", "c7"})
    threshold = sn_at_least("0.05")
    select(loaded, predicate, threshold)
    select_seconds, selected = _median_seconds(
        lambda: select(loaded, predicate, threshold), SCANS
    )
    assert 0 < len(selected) < ENTITIES

    project_seconds, projected = _median_seconds(
        lambda: project(loaded, ["id", "category"]), SCANS
    )
    assert len(projected) == ENTITIES

    bench_record("sqlite_load_exact_1000_seconds", load_seconds)
    bench_record("is_select_exact_1000_seconds", select_seconds)
    bench_record("project_exact_1000_seconds", project_seconds)


class _CollectorTime:
    """A ``gc.callbacks`` entry summing the collector's seconds while
    :attr:`active`."""

    def __init__(self):
        self.active = False
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase, info):
        if not self.active:
            return
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started


def _session(url) -> list[int]:
    """One client session; returns the size of each answer."""
    database = Database.open(url)
    try:
        return [len(database.query(text)) for text in SESSION_QUERIES]
    finally:
        database.close()


def test_query_session(tmp_path, bench_record):
    config = SyntheticConfig(n_tuples=ENTITIES, overlap=0.6, exact=True, seed=4242)
    url = f"sqlite:{tmp_path / 'session.db'}"
    database = create_database(url, "session")
    database.add_all(synthetic_pair(config, "L", "R"))
    database.persist()
    database.close()
    del database

    collector = _CollectorTime()
    gc.callbacks.append(collector)
    walls, collector_seconds, answers = [], [], []
    try:
        gc.collect()
        for _ in range(SESSIONS):
            collector.seconds = 0.0
            collector.active = True
            started = time.perf_counter()
            answers.append(_session(url))
            walls.append(time.perf_counter() - started)
            collector.active = False
            collector_seconds.append(collector.seconds)
    finally:
        collector.active = False
        gc.callbacks.remove(collector)
    assert all(sizes == answers[0] for sizes in answers)
    assert all(0 < size < ENTITIES for size in answers[0])

    gc.collect()
    _session(url)
    cycle_objects = gc.collect()

    bench_record("query_session_exact_1000_seconds", statistics.median(walls))
    bench_record("query_session_gc_seconds", statistics.fmean(collector_seconds))
    bench_record("query_session_cycle_objects", cycle_objects)
