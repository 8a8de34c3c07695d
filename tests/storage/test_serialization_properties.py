"""Property-based serialization tests: round trips on generated data.

The document codec is exercised directly (JSON text round trips), and
the same generated relations then drive the **backend equivalence
contract**: every storage engine (json / sqlite / log), with and
without the partition-sharded layout, over both exact-Fraction and
float evidence, must reproduce relations bit-for-bit through a
save/load cycle.  The value and event codec shared by stored rows and
stream events must return every value equal in value and type.
"""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ds.frame import OMEGA, is_omega
from repro.model.attribute import Attribute
from repro.model.domain import AnyDomain, EnumeratedDomain
from repro.model.etuple import ExtendedTuple
from repro.model.evidence import EvidenceSet
from repro.model.schema import RelationSchema
from repro.storage.serialization import (
    RetractEvent,
    UpsertEvent,
    database_from_json,
    database_to_json,
    event_from_json,
    event_to_json,
    relation_from_json,
    relation_to_json,
    tuple_from_json,
    tuple_to_json,
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
    )
    def test_partitioned_layout_round_trips(self, scheme, n, seed, exact):
        """A save writes no hash shards and reloads in the saved order
        on every engine."""
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
        assert list(reloaded.keys()) == list(relation.keys())

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


# -- the value and event codec -------------------------------------------------

#: Atoms the bracket notation must keep apart: numeric-looking text,
#: OMEGA spellings, structural characters, quotes.
TEXT_ATOMS = ("a", "1/2", "0.5", "omega", "x y", 'q"t', "{b}")
ENUMERATED = EnumeratedDomain("e", TEXT_ATOMS)
OPEN = AnyDomain("open")
KEYS = st.one_of(
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(max_denominator=10**6),
    st.text(max_size=6),
    st.booleans(),
    st.sampled_from(["1/2", Fraction(1, 2)]),
)


@st.composite
def evidence(draw):
    """Exact, float or mixed evidence over the enumerated or open domain."""
    domain = draw(st.sampled_from([ENUMERATED, OPEN]))
    atoms = st.sampled_from(TEXT_ATOMS)
    if domain is OPEN:
        atoms = st.one_of(
            atoms,
            st.integers(min_value=-50, max_value=50),
            st.booleans(),
            st.floats(allow_nan=False, allow_infinity=False),
            st.fractions(max_denominator=1000),
        )
    elements = draw(
        st.lists(
            st.one_of(st.just(OMEGA), st.frozensets(atoms, min_size=1, max_size=3)),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=97),
            min_size=len(elements),
            max_size=len(elements),
        )
    )
    kinds = draw(
        st.sampled_from(["exact", "float", "mixed"]).flatmap(
            lambda kind: st.just([kind] * len(elements))
            if kind != "mixed"
            else st.lists(
                st.sampled_from(["exact", "float"]),
                min_size=len(elements),
                max_size=len(elements),
            )
        )
    )
    total = sum(weights)
    masses = {
        element: Fraction(weight, total) if kind == "exact" else weight / total
        for element, weight, kind in zip(elements, weights, kinds)
    }
    return EvidenceSet(masses, domain)


def typed_masses(value: EvidenceSet) -> dict:
    """Masses by focal element, each mass and atom with its type (OMEGA
    as written): ``True`` and ``1``, or ``1.5`` and ``3/2``, compare
    equal but are different atoms."""
    return {
        (
            element
            if is_omega(element)
            else frozenset((atom, type(atom)) for atom in element)
        ): (mass, type(mass))
        for element, mass in value.mass_function._mass_dict().items()
    }


#: Records the previous version wrote, with what they decode to.
PREVIOUS_RECORDS = [
    (
        {
            "op": "upsert",
            "source": "a",
            "row": {
                "values": {"k": "wok", "e": {"evidence": "[a^1/2, Ω^1/2]"}},
                "membership": ["1/1", "1/2"],
            },
        },
        UpsertEvent(
            "a",
            {"k": "wok", "e": EvidenceSet({"a": Fraction(1, 2), OMEGA: Fraction(1, 2)})},
            (Fraction(1), Fraction(1, 2)),
        ),
    ),
    (
        {
            "op": "upsert",
            "source": "daily",
            "values": {"rname": "wok", "rating": "[gd^1/4, avg^3/4]"},
            "membership": ["1", "1"],
        },
        UpsertEvent(
            "daily",
            {"rname": "wok", "rating": "[gd^1/4, avg^3/4]"},
            (Fraction(1), Fraction(1)),
        ),
    ),
    (
        {"op": "retract", "source": "daily", "key": [{"fraction": "1/2"}, "1/2"]},
        RetractEvent("daily", (Fraction(1, 2), "1/2")),
    ),
]


def through_json(document):
    return json.loads(json.dumps(document))


@settings(max_examples=150, deadline=None)
@given(
    key=KEYS,
    value=evidence(),
    membership=st.sampled_from([(1, 1), (Fraction(1, 3), 1), (0.25, 0.75)]),
    previous=st.sampled_from(PREVIOUS_RECORDS),
)
def test_value_and_event_codec_round_trip(key, value, membership, previous):
    """Rows, upserts and retracts return every value equal in value and
    type; records in the previous formats decode, and round trip too."""
    schema = RelationSchema(
        "R",
        [
            Attribute("k", AnyDomain("k"), key=True),
            Attribute("v", value.domain, uncertain=True),
        ],
    )
    etuple = ExtendedTuple(schema, {"k": key, "v": value}, membership)
    row = tuple_from_json(through_json(tuple_to_json(etuple)), schema)
    assert row == etuple
    assert (row.key()[0], type(row.key()[0])) == (key, type(key))
    assert typed_masses(row["v"]) == typed_masses(value)
    assert [type(part) for part in row.membership] == [
        type(part) for part in etuple.membership
    ]

    upsert = UpsertEvent("s", {"k": key, "v": value}, membership)
    decoded = event_from_json(through_json(event_to_json(upsert)))
    assert decoded == upsert
    assert type(decoded.values["k"]) is type(key)
    assert typed_masses(decoded.values["v"]) == typed_masses(value)
    assert [type(part) for part in decoded.membership] == [
        type(part) for part in membership
    ]
    retract = RetractEvent("s", (key, "1/2"))
    decoded = event_from_json(through_json(event_to_json(retract)))
    assert decoded == retract
    assert [type(part) for part in decoded.key] == [type(key), str]

    document, expected = previous
    event = event_from_json(through_json(document))
    assert event == expected
    assert event_from_json(through_json(event_to_json(event))) == event
