"""Property tests: any executor x any partition count == serial, exactly.

The acceptance bar of the partitioned physical layer: for random
relations, random partition counts in 1..8 and both executors (serial
partitioned inline, process on the warm pool), every algebra
operation, ``Federation.integrate`` and stream interleavings must
produce *exactly* the serial single-partition result -- same tuples in
the same order, exact Fractions exactly, floats bit-for-bit --
including the total-conflict fallback paths, where no fold order is
canonical but the implementation promises the serial one.

Baselines are always computed under a forced serial/1-partition scope so
the suite stays meaningful when it runs with ``REPRO_EXECUTOR`` pointing
at the process pool.  The dispatch tests at the end check that the
process executor really reaches the warm pool from every fan-out site.
"""

import random

from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import IsPredicate, select
from repro.algebra.intersection import intersection_with_report
from repro.algebra.project import project
from repro.algebra.thresholds import sn_at_least
from repro.algebra.union import union_with_report
from repro.datasets.generators import SyntheticConfig, synthetic_pair
from repro.datasets.restaurants import table_ra
from repro.errors import TotalConflictError
from repro.exec import executor_scope, get_executor
from repro.obs import registry
from repro.integration import Federation, TupleMerger
from repro.model.domain import EnumeratedDomain
from repro.model.evidence import EvidenceSet
from repro.model.relation import ExtendedRelation
from repro.stream import StreamEngine

EXECUTORS = ("serial", "process")

#: One executor per hypothesis example (drawn), every partition count
#: 1..8 checked inside the example.
PARTITIONS = (1, 2, 3, 5, 8)


def _identical(actual: ExtendedRelation, expected: ExtendedRelation) -> bool:
    """Tuple-exact and order-exact equality (== ignores tuple order)."""
    return actual == expected and list(actual.keys()) == list(expected.keys())


def _serial_baseline():
    return executor_scope(executor="serial", workers=1, partitions=None)


@st.composite
def relation_pairs(draw):
    """Union-compatible synthetic relation pairs with varied shape."""
    config = SyntheticConfig(
        n_tuples=draw(st.integers(min_value=0, max_value=18)),
        overlap=draw(st.sampled_from((0.0, 0.5, 1.0))),
        conflict=draw(st.sampled_from((0.0, 0.5, 1.0))),
        ignorance=draw(st.sampled_from((0.3, 1.0))),
        exact=draw(st.booleans()),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    return synthetic_pair(config)


@settings(max_examples=20, deadline=None)
@given(
    pair=relation_pairs(),
    executor=st.sampled_from(EXECUTORS),
)
def test_algebra_ops_equal_serial(pair, executor):
    left, right = pair
    predicate = IsPredicate("category", {"c0", "c1", "c2"})
    threshold = sn_at_least("1/4")
    with _serial_baseline():
        union_base, union_report = union_with_report(
            left, right, on_conflict="vacuous"
        )
        intersect_base, _ = intersection_with_report(
            left, right, on_conflict="vacuous"
        )
        select_base = select(left, predicate, threshold)
        project_base = project(left, ("id", "category"))
    for partitions in PARTITIONS:
        with executor_scope(
            executor=executor, workers=3, partitions=partitions
        ):
            merged, report = union_with_report(
                left, right, on_conflict="vacuous"
            )
            assert _identical(merged, union_base)
            assert report.matched == union_report.matched
            assert report.left_only == union_report.left_only
            assert report.right_only == union_report.right_only
            assert report.conflicts == union_report.conflicts
            assert report.dropped == union_report.dropped
            consensus, _ = intersection_with_report(
                left, right, on_conflict="vacuous"
            )
            assert _identical(consensus, intersect_base)
            assert _identical(select(left, predicate, threshold), select_base)
            assert _identical(project(left, ("id", "category")), project_base)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_sources=st.integers(min_value=2, max_value=5),
    executor=st.sampled_from(EXECUTORS),
    partitions=st.integers(min_value=1, max_value=8),
    exact=st.booleans(),
)
def test_federation_integrate_equals_serial(
    seed, n_sources, executor, partitions, exact
):
    reliabilities = (1, Fraction(3, 4), Fraction(9, 10))
    rng = random.Random(seed)
    federation = Federation(TupleMerger(on_conflict="vacuous"))
    for index in range(n_sources):
        config = SyntheticConfig(
            n_tuples=rng.randint(0, 20),
            conflict=rng.choice((0.0, 0.5, 1.0)),
            ignorance=rng.choice((0.4, 1.0)),
            exact=exact,
            seed=seed + index,
        )
        from repro.datasets.generators import synthetic_relation

        federation.add_source(
            f"s{index}",
            synthetic_relation(config, f"s{index}"),
            reliability=rng.choice(reliabilities),
        )
    with _serial_baseline():
        expected, expected_report = federation.integrate(name="F")
    with executor_scope(executor=executor, workers=3, partitions=partitions):
        actual, report = federation.integrate(name="F")
    assert _identical(actual, expected)
    assert len(report.steps) == len(expected_report.steps)
    assert report.total_conflicts == expected_report.total_conflicts
    for (label, step), (expected_label, expected_step) in zip(
        report.steps, expected_report.steps
    ):
        assert label == expected_label
        assert sorted(step.matched) == sorted(expected_step.matched)
        assert sorted(step.dropped, key=repr) == sorted(
            expected_step.dropped, key=repr
        )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_events=st.integers(min_value=1, max_value=40),
    executor=st.sampled_from(EXECUTORS),
    partitions=st.integers(min_value=1, max_value=8),
)
def test_stream_interleavings_equal_serial(seed, n_events, executor, partitions):
    """Replay one random event sequence serial and partitioned."""

    def run():
        rng = random.Random(seed)
        config = SyntheticConfig(
            n_tuples=10, conflict=0.6, ignorance=1.0, overlap=1.0, seed=seed
        )
        from repro.datasets.generators import synthetic_relation

        pools = {
            name: tuple(synthetic_relation(config, name))
            for name in ("s0", "s1", "s2")
        }
        schema = pools["s0"][0].schema
        engine = StreamEngine(
            schema, name="F", merger=TupleMerger(on_conflict="vacuous")
        )
        asserted = {name: set() for name in pools}
        for _ in range(n_events):
            roll = rng.random()
            retractable = [name for name in pools if asserted[name]]
            if roll < 0.6 or not retractable:
                source = rng.choice(sorted(pools))
                etuple = rng.choice(pools[source])
                engine.upsert(source, etuple)
                asserted[source].add(etuple.key())
            elif roll < 0.8:
                source = rng.choice(retractable)
                key = rng.choice(sorted(asserted[source]))
                engine.retract(source, key)
                asserted[source].discard(key)
            else:
                engine.flush()
        engine.flush()
        return engine.relation

    with _serial_baseline():
        expected = run()
    with executor_scope(executor=executor, workers=3, partitions=partitions):
        actual = run()
    assert _identical(actual, expected)


# -- total-conflict fallback ordering ----------------------------------------


def _conflicting_relations():
    """Two relations whose matched entities totally conflict on 'colour'."""
    from repro.model.attribute import Attribute
    from repro.model.domain import TextDomain
    from repro.model.etuple import ExtendedTuple
    from repro.model.schema import RelationSchema

    domain = EnumeratedDomain("colour", ("red", "green", "blue"))
    schema = RelationSchema(
        "L",
        [
            Attribute("name", TextDomain("name"), key=True),
            Attribute("colour", domain, uncertain=True),
        ],
    )

    def rel(name, colour_by_key):
        renamed = schema.with_name(name)
        return ExtendedRelation(
            renamed,
            [
                ExtendedTuple(
                    renamed,
                    {
                        "name": key,
                        "colour": EvidenceSet.definite(colour, domain),
                    },
                )
                for key, colour in colour_by_key.items()
            ],
        )

    left = rel("L", {f"e{i}": "red" for i in range(9)} | {"ok": "green"})
    right = rel("R", {f"e{i}": "blue" for i in range(9)} | {"ok": "green"})
    return left, right


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("partitions", (1, 2, 3, 8))
@pytest.mark.parametrize("policy", ("vacuous", "drop"))
def test_total_conflict_fallback_ordering(executor, partitions, policy):
    left, right = _conflicting_relations()
    with _serial_baseline():
        expected, expected_report = union_with_report(
            left, right, on_conflict=policy
        )
    with executor_scope(executor=executor, workers=3, partitions=partitions):
        actual, report = union_with_report(left, right, on_conflict=policy)
    assert _identical(actual, expected)
    assert report.dropped == expected_report.dropped
    assert report.conflicts == expected_report.conflicts


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("partitions", (1, 2, 3, 8))
def test_raise_policy_raises_the_serial_first_conflict(executor, partitions):
    """Under ``raise``, the error names the same entity the serial loop
    would hit first, whatever the executor or sharding."""
    left, right = _conflicting_relations()
    with _serial_baseline():
        with pytest.raises(TotalConflictError) as serial_error:
            union_with_report(left, right, on_conflict="raise")
    with executor_scope(executor=executor, workers=3, partitions=partitions):
        with pytest.raises(TotalConflictError) as parallel_error:
            union_with_report(left, right, on_conflict="raise")
    assert str(parallel_error.value) == str(serial_error.value)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("partitions", (2, 4, 8))
def test_federation_raise_policy_matches_serial_error(executor, partitions):
    """A sharded raise-policy integrate surfaces the exact serial error
    (same entity, same labels), not whichever shard conflicted first."""
    left, right = _conflicting_relations()
    federation = Federation(TupleMerger(on_conflict="raise"))
    federation.add_source("a", left)
    federation.add_source("b", right)
    with _serial_baseline():
        with pytest.raises(TotalConflictError) as serial_error:
            federation.integrate(name="F")
    with executor_scope(executor=executor, workers=3, partitions=partitions):
        with pytest.raises(TotalConflictError) as parallel_error:
            federation.integrate(name="F")
    assert str(parallel_error.value) == str(serial_error.value)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_query_plans_equal_serial_through_session(executor):
    from repro.datasets.restaurants import table_rb, table_rm_a
    from repro.session import Session
    from repro.storage import Database

    db = Database()
    db.add(table_ra())
    db.add(table_rb())
    db.add(table_rm_a())
    queries = (
        "SELECT rname, rating FROM (RA UNION RB) "
        "WHERE rating IS {ex} WITH SN >= 0.5",
        "SELECT * FROM RA JOIN RM_A ON RA.rname = RM_A.rname",
        "RA INTERSECT RB BY (rname)",
    )
    with _serial_baseline():
        expected = [Session(db).execute(query) for query in queries]
    for partitions in PARTITIONS:
        with executor_scope(
            executor=executor, workers=3, partitions=partitions
        ):
            session = Session(db)
            for query, baseline in zip(queries, expected):
                assert _identical(session.execute(query), baseline)


# -- the process executor reaches the warm pool ----------------------------


def _federation(n_sources: int = 3, n_tuples: int = 30) -> Federation:
    """A deterministic multi-source federation for the dispatch tests."""
    from repro.datasets.generators import synthetic_relation

    federation = Federation(TupleMerger(on_conflict="vacuous"))
    for index in range(n_sources):
        config = SyntheticConfig(
            n_tuples=n_tuples,
            conflict=0.5,
            ignorance=0.6,
            exact=True,
            seed=41 + index,
        )
        federation.add_source(
            f"s{index}",
            synthetic_relation(config, f"s{index}"),
            reliability=(1, Fraction(3, 4), Fraction(9, 10))[index % 3],
        )
    return federation


class _Dispatches:
    """Counts warm-pool dispatches made inside the ``with`` block."""

    def __enter__(self):
        self._counter = registry().counter("exec.warmpool.dispatches")
        self._before = self._counter.value
        return self

    def __exit__(self, *exc_info):
        self.count = self._counter.value - self._before
        return False


def _process_scope():
    return executor_scope(executor="process", workers=2, partitions=4)


def test_federation_integrate_dispatches_to_the_warm_pool():
    federation = _federation()
    with _serial_baseline():
        expected, expected_report = federation.integrate(name="F")
    with _process_scope(), _Dispatches() as dispatches:
        actual, report = federation.integrate(name="F")
    assert dispatches.count == 1
    assert _identical(actual, expected)
    assert report.total_conflicts == expected_report.total_conflicts


def test_integrate_entities_dispatches_to_the_warm_pool():
    federation = _federation()
    keys = [("e0",), ("e7",), ("absent",), ("e3",), ("e12",), ("e29",)]
    with _serial_baseline():
        expected = [federation.integrate_entity(key) for key in keys]
    with _process_scope(), _Dispatches() as dispatches:
        actual = federation.integrate_entities(keys)
    assert dispatches.count == 1
    assert actual == expected


def test_union_dispatches_to_the_warm_pool():
    config = SyntheticConfig(
        n_tuples=25, overlap=0.5, conflict=0.5, ignorance=0.6, seed=99
    )
    left, right = synthetic_pair(config)
    with _serial_baseline():
        expected, _ = union_with_report(left, right, on_conflict="vacuous")
    with _process_scope(), _Dispatches() as dispatches:
        merged, _ = union_with_report(left, right, on_conflict="vacuous")
    assert dispatches.count == 1
    assert _identical(merged, expected)


def test_stream_flush_dispatches_to_the_warm_pool():
    from repro.datasets.generators import synthetic_relation

    config = SyntheticConfig(
        n_tuples=12, conflict=0.6, ignorance=1.0, overlap=1.0, seed=4242
    )
    pools = {
        name: tuple(synthetic_relation(config, name))
        for name in ("s0", "s1", "s2")
    }

    def run():
        engine = StreamEngine(
            pools["s0"][0].schema,
            name="F",
            merger=TupleMerger(on_conflict="vacuous"),
        )
        for name, etuples in pools.items():
            for etuple in etuples:
                engine.upsert(name, etuple)
        engine.flush()
        # Re-asserting a source's tuples dirties its entities: the next
        # flush re-folds them from scratch.
        for etuple in pools["s0"]:
            engine.upsert("s0", etuple)
        engine.flush()
        return engine.relation

    with _serial_baseline():
        expected = run()
    with _process_scope(), _Dispatches() as dispatches:
        actual = run()
    assert dispatches.count == 1
    assert _identical(actual, expected)


def _scaled(common, item):
    _handle, factor = common
    return item * factor


def test_unpicklable_common_runs_inline_with_the_serial_result():
    fallbacks = registry().counter("exec.warmpool.fallbacks")
    dispatches = registry().counter("exec.warmpool.dispatches")
    items = list(range(7))
    with open(__file__) as handle:  # file handles do not pickle
        with _serial_baseline():
            expected = get_executor().map(_scaled, (handle, 3), items)
        before = fallbacks.value, dispatches.value
        with _process_scope():
            actual = get_executor().map(_scaled, (handle, 3), items)
    assert actual == expected == [3 * item for item in items]
    assert fallbacks.value == before[0] + 1
    assert dispatches.value == before[1]
