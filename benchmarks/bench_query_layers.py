"""The two layers of the exact query path, each timed on its own.

The end-to-end ``query`` workload opens a SQLite store of exact
relations and answers ``IS`` selections over them.  Its two largest
layers are reported here so that each has a history in
``BENCH_RESULTS.json``:

* ``sqlite_load_exact_1000_seconds`` -- loading one exact 1000-entity
  synthetic relation from SQLite (row decoding, the framed evidence
  parse straight into the kernel form, tuple construction);
* ``is_select_exact_1000_seconds`` -- one ``IS`` selection scan over
  the loaded relation (int ``Bel``/``Pls`` sums, ``F_TM``, the
  threshold), after a first scan has cached each value's scaled masses,
  as every later query of a session finds them.

Both are medians of repeated runs.  They are reported, not gated: the
only assertions are that the load returns the stored relation and that
the scan keeps some but not all tuples.
"""

import statistics
import time

from repro.algebra import IsPredicate, select
from repro.algebra.thresholds import sn_at_least
from repro.datasets.generators import SyntheticConfig, synthetic_relation
from repro.storage.backends import create_database
from repro.storage.database import Database

ENTITIES = 1000
LOADS = 7
SCANS = 21


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

    bench_record("sqlite_load_exact_1000_seconds", load_seconds)
    bench_record("is_select_exact_1000_seconds", select_seconds)
