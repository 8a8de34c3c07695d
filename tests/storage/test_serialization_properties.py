"""Property-based serialization tests: round trips on generated data.

The document codec is exercised directly (JSON text round trips), and
the same generated relations then drive the **backend equivalence
contract**: every storage engine (json / sqlite / log), with and
without the partition-sharded layout, over both exact-Fraction and
float evidence, must reproduce relations bit-for-bit through a
save/load cycle.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.serialization import (
    database_from_json,
    database_to_json,
    relation_from_json,
    relation_to_json,
)
from repro.storage.backends import SCHEMES, resolve_backend
from repro.storage.database import Database
from repro.datasets.generators import SyntheticConfig, synthetic_pair

_SUFFIX = {"json": "json", "sqlite": "sqlite", "log": "jsonl"}


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=15),
    seed=st.integers(min_value=0, max_value=999),
    exact=st.booleans(),
)
def test_relation_round_trip_on_generated_data(n, seed, exact):
    """Serialize -> JSON text -> deserialize is the identity, for both
    exact-fraction and float masses."""
    config = SyntheticConfig(n_tuples=n, seed=seed, exact=exact, ignorance=0.4)
    relation, _ = synthetic_pair(config)
    document = json.loads(json.dumps(relation_to_json(relation)))
    assert relation_from_json(document) == relation


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=999))
def test_database_round_trip_on_generated_data(seed):
    config = SyntheticConfig(n_tuples=8, seed=seed)
    left, right = synthetic_pair(config)
    db = Database("generated")
    db.add(left)
    db.add(right)
    document = json.loads(json.dumps(database_to_json(db)))
    recovered = database_from_json(document)
    assert recovered.names() == db.names()
    for name in db.names():
        assert recovered.get(name) == db.get(name)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
class TestBackendRoundTripProperties:
    """load(save(db)) is the identity on every storage engine."""

    def _url(self, scheme: str, directory: str) -> str:
        return f"{scheme}:{Path(directory) / f'store.{_SUFFIX[scheme]}'}"

    @settings(max_examples=8, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=12),
        seed=st.integers(min_value=0, max_value=999),
        exact=st.booleans(),
    )
    def test_database_round_trips_bit_for_bit(self, scheme, n, seed, exact):
        """Tuple order, exact Fractions, float reprs and schema domains
        all survive; enumerated evidence reloads compiled."""
        config = SyntheticConfig(
            n_tuples=n, seed=seed, exact=exact, ignorance=0.4
        )
        left, right = synthetic_pair(config)
        db = Database("generated")
        db.add(left)
        db.add(right)
        with tempfile.TemporaryDirectory() as directory:
            with resolve_backend(self._url(scheme, directory)) as backend:
                backend.save_database(db)
                recovered = backend.load_database()
        assert recovered.name == db.name
        assert recovered.names() == db.names()
        for name in db.names():
            original = db.get(name)
            reloaded = recovered.get(name)
            assert reloaded == original
            assert list(reloaded.keys()) == list(original.keys())
            assert reloaded.schema == original.schema
            for etuple in reloaded:
                assert etuple.evidence("category").is_compiled

    @settings(max_examples=8, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=999),
        exact=st.booleans(),
        partitions=st.integers(min_value=2, max_value=5),
    )
    def test_partitioned_layout_round_trips(
        self, scheme, n, seed, exact, partitions
    ):
        """A flat save reloads into the identical hash-shard layout
        (same shard membership, same order) on every engine."""
        config = SyntheticConfig(
            n_tuples=n, seed=seed, exact=exact, ignorance=0.4
        )
        relation, _ = synthetic_pair(config)
        with tempfile.TemporaryDirectory() as directory:
            with resolve_backend(self._url(scheme, directory)) as backend:
                backend.save_relation(relation)
                reloaded = backend.load_relation(relation.name)
                assert backend.catalog()[relation.name] == {
                    "tuples": n,
                    "partitions": 0,
                }
        assert reloaded.same_tuples(relation)
        saved_shards = relation.partitions(partitions)
        loaded_shards = reloaded.partitions(partitions)
        for saved, loaded in zip(saved_shards, loaded_shards):
            assert list(saved.keys()) == list(loaded.keys())
            assert saved.same_tuples(loaded)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=999))
    def test_relation_level_updates_round_trip(self, scheme, seed):
        """save_relation upserts into an existing store; the untouched
        relation is unharmed and the replaced one is exact."""
        config = SyntheticConfig(n_tuples=6, seed=seed)
        left, right = synthetic_pair(config)
        replacement, _ = synthetic_pair(
            SyntheticConfig(n_tuples=9, seed=seed + 1)
        )
        replacement = replacement.with_name(left.name)
        db = Database("generated")
        db.add(left)
        db.add(right)
        with tempfile.TemporaryDirectory() as directory:
            with resolve_backend(self._url(scheme, directory)) as backend:
                backend.save_database(db)
                backend.save_relation(replacement)
                assert backend.load_relation(left.name) == replacement
                assert backend.load_relation(right.name) == right
