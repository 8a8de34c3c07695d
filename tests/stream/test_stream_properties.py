"""Property-based equivalence: streaming == batch, for any event order.

The :class:`~repro.stream.StreamEngine` always publishes the
registration-order fold of the final per-source snapshots, which is the
fold ``Federation.integrate`` computes.  So *any* interleaving, batching
and retraction pattern must land on exactly the relation
``Federation.integrate`` computes from those snapshots.

The generated workloads keep full ignorance mass on every evidence set
(``ignorance=1.0``), so ``kappa < 1`` at every pairwise combination.
The total-conflict fallbacks are pinned by ``TestFoldOrderDeterminism``
in ``test_engine.py`` and by the federation tests.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generators import SyntheticConfig, synthetic_relation
from repro.integration import Federation, TupleMerger
from repro.model.relation import ExtendedRelation
from repro.stream import StreamEngine

RELIABILITIES = (1, Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))


def _pools(n_sources: int, seed: int):
    """Per-source pools of candidate tuples over one key universe.

    Each source gets two differently-seeded pools so re-upserting a key
    can genuinely change its evidence, not just repeat it.
    """
    config = SyntheticConfig(
        n_tuples=8, conflict=0.6, ignorance=1.0, overlap=1.0, seed=seed
    )
    pools = {}
    for index in range(n_sources):
        name = f"s{index}"
        pools[name] = [
            tuple(synthetic_relation(config, name)),
            tuple(
                synthetic_relation(
                    SyntheticConfig(
                        n_tuples=8,
                        conflict=0.6,
                        ignorance=1.0,
                        overlap=1.0,
                        seed=seed + 101,
                    ),
                    name,
                )
            ),
        ]
    return pools


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_sources=st.integers(min_value=2, max_value=4),
    n_events=st.integers(min_value=1, max_value=50),
    batch_size=st.integers(min_value=1, max_value=9),
)
def test_any_event_sequence_equals_batch_integration(
    seed, n_sources, n_events, batch_size
):
    rng = random.Random(seed)
    pools = _pools(n_sources, seed)
    schema = pools["s0"][0][0].schema
    engine = StreamEngine(
        schema,
        name="F",
        merger=TupleMerger(on_conflict="vacuous"),
        batch_size=batch_size,
    )
    snapshots = {name: {} for name in pools}
    reliabilities = {name: 1 for name in pools}
    registered = []

    for _ in range(n_events):
        roll = rng.random()
        asserting = [name for name in registered if snapshots[name]]
        if roll < 0.70 or not asserting:
            source = rng.choice(sorted(pools))
            etuple = rng.choice(rng.choice(pools[source]))
            engine.upsert(source, etuple)
            if source not in registered:
                registered.append(source)
            snapshots[source][etuple.key()] = etuple
        elif roll < 0.90:
            source = rng.choice(asserting)
            key = rng.choice(sorted(snapshots[source]))
            engine.retract(source, key)
            del snapshots[source][key]
        else:
            source = rng.choice(registered)
            reliability = rng.choice(RELIABILITIES)
            engine.set_reliability(source, reliability)
            reliabilities[source] = reliability
    engine.flush()

    federation = Federation(TupleMerger(on_conflict="vacuous"))
    for source in engine.sources():
        federation.add_source(
            source,
            ExtendedRelation(
                schema.with_name(source), list(snapshots[source].values())
            ),
            reliability=reliabilities[source],
        )
    expected, _ = federation.integrate(name="F")
    assert engine.relation.same_tuples(expected)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=999))
def test_flush_positions_do_not_change_the_result(seed):
    """The same events with different batching land on the same relation."""
    rng = random.Random(seed)
    pools = _pools(3, seed)
    schema = pools["s0"][0][0].schema
    events = []
    for _ in range(30):
        source = rng.choice(sorted(pools))
        events.append((source, rng.choice(rng.choice(pools[source]))))

    results = []
    for batch_size in (1, 7, None):
        engine = StreamEngine(
            schema,
            name="F",
            merger=TupleMerger(on_conflict="vacuous"),
            batch_size=batch_size,
        )
        for source, etuple in events:
            engine.upsert(source, etuple)
        engine.flush()
        results.append(engine.relation)
    assert results[0].same_tuples(results[1])
    assert results[0].same_tuples(results[2])
