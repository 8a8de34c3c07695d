"""Streaming ingestion: incremental delta-merges vs full recompute.

The claim the stream engine exists for: once evidence has accumulated,
folding a delta of arriving events into the integrated relation costs
O(delta) Dempster combinations (plus an O(n) materialization of light
dict work), while the batch path -- ``Federation.integrate`` over the
current source snapshots -- pays O(n) combinations every time.  At 1k+
accumulated tuples the incremental path must win by >= 10x.

Both paths produce the identical relation (asserted here and verified
property-based in ``tests/stream``).

O(delta) holds for persistence too: a one-entity stream flush against
the SQLite backend writes exactly that entity's row
(``storage.sqlite.bytes_written`` counts the changed rows' payload, not
the relation size).
"""

import os
import time

import pytest

from repro.datasets.generators import SyntheticConfig, synthetic_relation
from repro.integration import Federation, TupleMerger
from repro.obs import registry
from repro.storage import open_backend
from repro.storage.backends.sqlite import _key_text
from repro.stream import StreamEngine

#: Entities per source; every entity appears in all three sources, so
#: the accumulated integrated state holds 3x this many stored tuples.
N_ENTITIES = 400
N_SOURCES = 3
#: Upserts folded per micro-batch in the incremental measurements.
DELTA = 16
#: Required incremental-vs-recompute speedup.  The paper claim is >= 10x
#: (measured ~17x on quiet hardware); shared CI runners set a looser
#: floor via the environment so scheduler noise cannot fail the build.
RATIO_FLOOR = float(os.environ.get("STREAM_BENCH_RATIO_FLOOR", "10"))
#: Stream relation size for the flush byte measurements.
N_STREAM_ENTITIES = 512


def _sources():
    """Three union-compatible relations over one key universe (floats:
    repeated exact-fraction combination grows denominators without
    bound, which would measure bigint arithmetic, not the algorithm)."""
    relations = {}
    for index in range(N_SOURCES):
        config = SyntheticConfig(
            n_tuples=N_ENTITIES,
            conflict=0.4,
            ignorance=1.0,
            exact=False,
            seed=17 + index,
        )
        name = f"s{index}"
        relations[name] = synthetic_relation(config, name)
    return relations


def _delta_tuples(count):
    """Fresh evidence re-asserting existing s0 keys (dirty re-folds --
    the expensive incremental case; brand-new keys would be cheaper)."""
    config = SyntheticConfig(
        n_tuples=count, conflict=0.4, ignorance=1.0, exact=False, seed=99
    )
    return tuple(synthetic_relation(config, "s0"))


def _loaded_engine(relations):
    engine = StreamEngine(
        list(relations.values())[0].schema,
        name="F",
        merger=TupleMerger(on_conflict="vacuous"),
    )
    for name, relation in relations.items():
        for etuple in relation:
            engine.upsert(name, etuple)
    engine.flush()
    return engine


@pytest.fixture(scope="module")
def workload():
    relations = _sources()
    engine = _loaded_engine(relations)
    federation = Federation(TupleMerger(on_conflict="vacuous"))
    for name, relation in relations.items():
        federation.add_source(name, relation)
    return engine, federation, _delta_tuples(DELTA)


def _apply_delta(engine, delta):
    for etuple in delta:
        engine.upsert("s0", etuple)
    return engine.flush()


def test_equivalence_of_the_two_paths(workload):
    """Sanity: the accumulated stream state equals the batch fold."""
    engine, federation, _ = workload
    integrated, _ = federation.integrate(name="F")
    assert engine.relation.same_tuples(integrated)
    assert len(engine.relation) >= 1000 / N_SOURCES  # 1200 stored tuples


def test_incremental_delta_ingest(benchmark, workload):
    """Fold DELTA events + flush into ~1.2k accumulated tuples."""
    engine, _, delta = workload
    result = benchmark(_apply_delta, engine, delta)
    assert result.watermark > 0
    assert len(engine.relation) == N_ENTITIES


def test_full_federation_recompute(benchmark, workload):
    """The batch path the engine replaces: re-integrate everything."""
    _, federation, _ = workload
    integrated, _ = benchmark(federation.integrate, "F")
    assert len(integrated) == N_ENTITIES


def test_incremental_beats_recompute_10x(workload, bench_record):
    """The acceptance bar: >= 10x at 1k+ accumulated tuples
    (RATIO_FLOOR relaxes it on noisy shared runners)."""
    engine, federation, delta = workload

    incremental = min(
        _timed(lambda: _apply_delta(engine, delta)) for _ in range(5)
    )
    full = min(
        _timed(lambda: federation.integrate(name="F")) for _ in range(3)
    )
    ratio = full / incremental
    print(
        f"\nincremental {incremental * 1e3:.2f} ms vs "
        f"recompute {full * 1e3:.2f} ms -> {ratio:.1f}x"
    )
    bench_record("incremental_flush_seconds", incremental)
    bench_record("full_recompute_seconds", full)
    bench_record("incremental_vs_recompute_ratio", ratio)
    assert ratio >= RATIO_FLOOR


def _timed(operation):
    started = time.perf_counter()
    operation()
    return time.perf_counter() - started


def test_dirty_shard_flush_bytes_scale_with_the_delta(
    tmp_path, bench_record
):
    config = SyntheticConfig(
        n_tuples=N_STREAM_ENTITIES,
        conflict=0.3,
        ignorance=1.0,
        exact=False,
        seed=41,
    )
    relation = synthetic_relation(config, "s0")
    etuples = list(relation)
    bytes_written = registry().counter("storage.sqlite.bytes_written")
    with open_backend(f"sqlite:{tmp_path / 'stream.sqlite'}") as backend:
        engine = StreamEngine(
            relation.schema,
            name="s0",
            backend=backend,
            merger=TupleMerger(on_conflict="vacuous"),
        )
        for etuple in etuples:
            engine.upsert("a", etuple)
        before = bytes_written.value
        engine.flush()
        full = bytes_written.value - before
        # Re-assert one entity with a second source: one changed row.
        engine.upsert("b", etuples[0])
        before = bytes_written.value
        engine.flush()
        delta = bytes_written.value - before
        key_json = _key_text(etuples[0].key())
        (row_json,) = backend._db.execute(
            "SELECT row_json FROM tuples WHERE relation = 's0' AND key_json = ?",
            (key_json,),
        ).fetchone()
        loaded = backend.load_relation("s0")
        assert loaded == engine.relation
        assert list(loaded.keys()) == list(engine.relation.keys())
    print(
        f"\nflush payload: full {full:,} B, one-entity delta {delta:,} B "
        f"({delta / full:.2%} of full)"
    )
    bench_record("full_flush_bytes", full)
    bench_record("dirty_flush_bytes", delta)
    bench_record("dirty_vs_full_fraction", delta / full)
    # One changed entity writes exactly its own row, not O(relation).
    assert delta == len(row_json) + len(key_json)
