"""Storage-backend scaling: save / load / point-load per engine.

The claim the backend layer exists for: persistence cost should follow
the *operation*, not the database.  The monolithic JSON file pays a full
parse for any read and a full rewrite for any write; the SQLite engine
reads exactly the rows it needs.  This bench measures, at 1k and 10k
tuples per engine:

* ``save``        -- persist the whole database,
* ``load``        -- load the whole database back,
* ``point-load``  -- load one *small* relation (64 tuples) out of a
  database that also holds the big one: the selective-read case.

Asserted: the SQLite point-load beats the full-JSON-parse point-load by
>= 5x at 10k tuples (``STORAGE_BENCH_RATIO_FLOOR`` relaxes the bar on
noisy shared runners).  Every timed load is also equality-checked
against the source relations -- speed never trades away exactness.

``fresh_store_save_ms`` times a save that creates a new SQLite store
(240 tuples, the size of the end-to-end benchmark's integrated
relation) and asserts that each such save is one transaction: exactly
one ``COMMIT`` in the connection's SQL trace.
"""

import os
import statistics
import time
from pathlib import Path

import pytest

from repro.datasets.generators import SyntheticConfig, synthetic_relation
from repro.storage import resolve_backend
from repro.storage.database import Database

SIZES = (1_000, 10_000)
HOT_TUPLES = 64
SCHEMES = ("json", "sqlite", "log")
_SUFFIX = {"json": "json", "sqlite": "sqlite", "log": "jsonl"}
#: Required sqlite-vs-json point-load speedup at the largest size.
RATIO_FLOOR = float(os.environ.get("STORAGE_BENCH_RATIO_FLOOR", "5"))


def _timed(operation, repeats: int = 2):
    best = None
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = operation()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


@pytest.fixture(scope="module", params=SIZES, ids=lambda n: f"{n}tuples")
def workload(request):
    n = request.param
    # Float evidence: repeated exact-fraction arithmetic is not what a
    # storage engine should be measured on.
    big = synthetic_relation(
        SyntheticConfig(n_tuples=n, seed=11, exact=False, ignorance=0.5),
        "BIG",
    )
    hot = synthetic_relation(
        SyntheticConfig(n_tuples=HOT_TUPLES, seed=13, exact=False), "HOT"
    )
    db = Database("bench")
    db.add(big)
    db.add(hot)
    return n, db, big, hot


def test_backend_scaling(workload, tmp_path_factory, capsys, bench_record):
    n, db, big, hot = workload
    directory = tmp_path_factory.mktemp(f"storage-{n}")
    timings: dict[str, dict[str, float]] = {}
    for scheme in SCHEMES:
        url = f"{scheme}:{Path(directory) / f'bench.{_SUFFIX[scheme]}'}"
        with resolve_backend(url) as backend:
            save_time, _ = _timed(lambda: backend.save_database(db), repeats=1)
            load_time, loaded = _timed(backend.load_database, repeats=1)
            assert loaded.get("BIG") == big
            assert loaded.get("HOT") == hot
            point_time, point = _timed(
                lambda: backend.load_relation("HOT"), repeats=3
            )
            assert point == hot
            timings[scheme] = {
                "save": save_time,
                "load": load_time,
                "point": point_time,
            }
            for op, seconds in timings[scheme].items():
                bench_record(f"{scheme}_{op}_seconds_{n}_tuples", seconds)

    with capsys.disabled():
        print(f"\nstorage backends at {n} tuples (+{HOT_TUPLES} hot):")
        print(f"  {'engine':<8} {'save':>9} {'load':>9} {'point-load':>11}")
        for scheme, row in timings.items():
            print(
                f"  {scheme:<8} {row['save'] * 1e3:>7.1f}ms "
                f"{row['load'] * 1e3:>7.1f}ms {row['point'] * 1e3:>9.2f}ms"
            )
        ratio = timings["json"]["point"] / max(
            timings["sqlite"]["point"], 1e-9
        )
        print(
            f"  sqlite point-load vs full JSON parse: {ratio:.1f}x "
            f"(floor {RATIO_FLOOR}x at {SIZES[-1]} tuples)"
        )

    if n == SIZES[-1]:
        assert ratio >= RATIO_FLOOR, (
            f"sqlite point-load only {ratio:.1f}x over the full JSON "
            f"parse at {n} tuples (need >= {RATIO_FLOOR}x)"
        )


FRESH_STORE_TUPLES = 240
FRESH_STORE_SAVES = 7


def test_fresh_store_save_is_one_transaction(tmp_path, capsys, bench_record):
    relation = synthetic_relation(
        SyntheticConfig(n_tuples=FRESH_STORE_TUPLES, seed=17, exact=False), "F"
    )
    db = Database("fresh")
    db.add(relation)
    seconds = []
    for index in range(FRESH_STORE_SAVES):
        url = f"sqlite:{tmp_path / f'fresh-{index}.sqlite'}"
        statements: list[str] = []
        with resolve_backend(url) as backend:
            backend._db.set_trace_callback(statements.append)
            started = time.perf_counter()
            backend.save_database(db)
            seconds.append(time.perf_counter() - started)
            backend._db.set_trace_callback(None)
            assert backend.load_relation("F") == relation
        commits = sum(
            1 for statement in statements
            if statement.lstrip().upper().startswith("COMMIT")
        )
        assert commits == 1, f"fresh-store save ran {commits} COMMITs"
    median_ms = statistics.median(seconds) * 1e3
    bench_record("fresh_store_save_ms", median_ms)
    with capsys.disabled():
        print(
            f"\nfresh sqlite store save ({FRESH_STORE_TUPLES} tuples): "
            f"{median_ms:.1f}ms median of {FRESH_STORE_SAVES}, one COMMIT each"
        )
