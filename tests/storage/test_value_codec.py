"""One value codec: stored rows, write-ahead records and event files.

Every path that re-parses a value goes through
:mod:`repro.storage.serialization`.  These tests pin what that buys --
exact scalars reload as exact scalars on every backend and through a
log-backed stream's recovery, event files carry evidence sets -- and
that records written in the previous formats still read.
"""

import json
from fractions import Fraction

import pytest

from repro.datasets.restaurants import table_ra
from repro.errors import StreamError
from repro.integration import TupleMerger
from repro.model.attribute import Attribute
from repro.model.domain import EnumeratedDomain, NumericDomain, TextDomain
from repro.model.etuple import ExtendedTuple
from repro.model.evidence import EvidenceSet
from repro.model.relation import ExtendedRelation
from repro.model.schema import RelationSchema
from repro.storage import open_backend
from repro.storage.serialization import (
    domain_from_json,
    domain_to_json,
    tuple_from_json,
    values_from_json,
)
from repro.stream import (
    StreamEngine,
    UpsertEvent,
    apply_event,
    read_events,
    replay,
    write_events,
)

SUFFIX = {"json": "json", "sqlite": "sqlite", "log": "jsonl"}
COLOUR = EnumeratedDomain("colour", ["red", "green", "blue"])
KEYS = {
    "fraction": (NumericDomain("k"), [Fraction(1, 2), Fraction(7, 3)]),
    "int": (NumericDomain("k"), [1, 2]),
    "float": (NumericDomain("k"), [0.5, 2.25]),
    "str": (TextDomain("k"), ["1/2", "wok"]),
}


def keyed_schema(domain) -> RelationSchema:
    return RelationSchema(
        "R",
        [
            Attribute("k", domain, key=True),
            Attribute("colour", COLOUR, uncertain=True),
        ],
    )


def keyed_relation(domain, keys) -> ExtendedRelation:
    schema = keyed_schema(domain)
    return ExtendedRelation(
        schema,
        [ExtendedTuple(schema, {"k": key, "colour": "[red^1/2, Ω^1/2]"}) for key in keys],
    )


def typed(keys) -> list:
    return [(key, type(key)) for key in keys]


@pytest.mark.parametrize("kind", sorted(KEYS))
@pytest.mark.parametrize("scheme", sorted(SUFFIX))
def test_scalar_keys_reload_equal_in_value_and_type(scheme, kind, tmp_path):
    domain, keys = KEYS[kind]
    relation = keyed_relation(domain, keys)
    url = f"{scheme}:{tmp_path / ('store.' + SUFFIX[scheme])}"
    with open_backend(url) as backend:
        backend.save_relation(relation)
    with open_backend(url) as backend:
        reloaded = backend.load_relation("R")
    assert reloaded == relation
    assert typed(key for (key,) in reloaded.keys()) == typed(keys)


def test_log_backed_stream_with_a_fraction_key_recovers(tmp_path):
    relation = keyed_relation(NumericDomain("k"), [Fraction(1, 2), 3])
    url = f"log:{tmp_path / 'wal.jsonl'}"
    with open_backend(url) as backend:
        engine = StreamEngine(relation.schema, name="R", backend=backend)
        for etuple in relation:
            engine.upsert("a", etuple)
        engine.flush()
        engine.retract("a", (3,))
        engine.flush()
    with open_backend(url) as backend:
        recovered = backend.recover_stream("R")
    assert recovered.relation == engine.relation
    assert typed(key for (key,) in recovered.relation.keys()) == typed(
        [Fraction(1, 2)]
    )
    assert recovered.watermark == engine.watermark


class TestEventFiles:
    def test_upsert_with_evidence_sets_round_trips(self, tmp_path):
        values = dict(next(iter(table_ra())).items())
        event = UpsertEvent("daily", values, (Fraction(1, 2), 1))
        path = tmp_path / "events.jsonl"
        write_events([event], path)
        (decoded,) = read_events(path)
        assert decoded == event
        assert {name: type(value) for name, value in decoded.values.items()} == {
            name: type(value) for name, value in values.items()
        }
        for name, value in values.items():
            if isinstance(value, EvidenceSet):
                assert [type(mass) for _, mass in decoded.values[name].items()] == [
                    type(mass) for _, mass in value.items()
                ]
        # Applied, the decoded event binds to the schema's domains and
        # folds to the tuple the original event folds to.
        engines = [StreamEngine(table_ra().schema, name="R") for _ in range(2)]
        for engine, applied in zip(engines, (event, decoded)):
            apply_event(engine, applied)
            engine.flush()
        assert engines[0].relation == engines[1].relation

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes"])
    def test_unencodable_value_is_a_stream_error(self, value, tmp_path):
        event = UpsertEvent("daily", {"rname": value})
        with pytest.raises(StreamError, match="cannot encode"):
            write_events([event], tmp_path / "events.jsonl")


# -- files in the previous formats ---------------------------------------------

WAL_SCHEMA = RelationSchema(
    "R",
    [
        Attribute("name", TextDomain("name"), key=True),
        Attribute("colour", COLOUR, uncertain=True),
        Attribute("size", NumericDomain("size"), uncertain=True),
    ],
)

#: A journal as the previous version wrote it: upserts hold a stored
#: ``row`` (float evidence item by item, exact evidence and memberships
#: as fractions).
PREVIOUS_JOURNAL = [
    {
        "record": "stream",
        "stream": "R",
        "schema": {
            "name": "R",
            "attributes": [
                {
                    "name": "name",
                    "domain": {"kind": "text", "name": "name", "pattern": None},
                    "key": True,
                    "uncertain": False,
                },
                {
                    "name": "colour",
                    "domain": {
                        "kind": "enumerated",
                        "name": "colour",
                        "values": ["blue", "green", "red"],
                    },
                    "key": False,
                    "uncertain": True,
                },
                {
                    "name": "size",
                    "domain": {
                        "kind": "numeric",
                        "name": "size",
                        "low": None,
                        "high": None,
                        "integral": False,
                    },
                    "key": False,
                    "uncertain": True,
                },
            ],
        },
        "on_conflict": "vacuous",
    },
    {
        "record": "event",
        "stream": "R",
        "event": {"op": "reliability", "source": "b", "value": "4/5"},
    },
    {
        "record": "event",
        "stream": "R",
        "event": {
            "op": "upsert",
            "source": "a",
            "row": {
                "values": {
                    "name": "wok",
                    "colour": {"evidence": "[red^1/2, Ω^1/2]"},
                    "size": {"evidence": "[3^1]"},
                },
                "membership": ["1/1", "1/1"],
            },
        },
    },
    {
        "record": "event",
        "stream": "R",
        "event": {
            "op": "upsert",
            "source": "a",
            "row": {
                "values": {
                    "name": "pho",
                    "colour": {
                        "evidence_items": [
                            {"element": ["blue"], "mass": 0.75},
                            {"element": ["green"], "mass": 0.25},
                        ]
                    },
                    "size": {"evidence": "[2^1]"},
                },
                "membership": ["1/2", "1/1"],
            },
        },
    },
    {
        "record": "event",
        "stream": "R",
        "event": {
            "op": "upsert",
            "source": "b",
            "row": {
                "values": {
                    "name": "wok",
                    "colour": {
                        "evidence_items": [
                            {"element": ["blue"], "mass": 0.25},
                            {"element": ["red"], "mass": 0.5},
                            {"element": None, "mass": 0.25},
                        ]
                    },
                    "size": {"evidence": "[3^1/2, 4^1/2]"},
                },
                "membership": ["1/1", "1/1"],
            },
        },
    },
    {
        "record": "batch",
        "stream": "R",
        "batch": 1,
        "watermark": 3,
        "inserted": 2,
        "updated": 0,
        "removed": 0,
        "conflicted": 0,
    },
    {
        "record": "event",
        "stream": "R",
        "event": {"op": "retract", "source": "a", "key": ["pho"]},
    },
    {
        "record": "event",
        "stream": "R",
        "event": {"op": "reliability", "source": "a", "value": 0.9},
    },
    {
        "record": "batch",
        "stream": "R",
        "batch": 2,
        "watermark": 5,
        "inserted": 0,
        "updated": 1,
        "removed": 1,
        "conflicted": 0,
    },
]


def test_previous_journal_recovers_to_the_same_state(tmp_path):
    path = tmp_path / "wal.jsonl"
    path.write_text("".join(json.dumps(record) + "\n" for record in PREVIOUS_JOURNAL))
    with open_backend(f"log:{path}") as backend:
        recovered = backend.recover_stream("R")
    # The same events, applied live.
    live = StreamEngine(WAL_SCHEMA, name="R", merger=TupleMerger(on_conflict="vacuous"))
    live.register_source("b", Fraction(4, 5))
    live.upsert("a", {"name": "wok", "colour": "[red^1/2, Ω^1/2]", "size": 3})
    live.upsert(
        "a",
        {"name": "pho", "colour": {"green": 0.25, "blue": 0.75}, "size": 2},
        (Fraction(1, 2), 1),
    )
    live.upsert(
        "b",
        {
            "name": "wok",
            "colour": {"red": 0.5, "blue": 0.25, ("red", "green", "blue"): 0.25},
            "size": "[3^1/2, 4^1/2]",
        },
    )
    live.flush()
    live.retract("a", ("pho",))
    live.set_reliability("a", 0.9)
    live.flush()
    assert recovered.relation == live.relation
    assert list(recovered.relation.keys()) == list(live.relation.keys())
    assert recovered.sources() == live.sources() == ("b", "a")
    assert recovered.reliability("a") == 0.9
    assert recovered.reliability("b") == Fraction(4, 5)
    assert recovered.watermark == 5
    assert recovered.source_snapshot("b") == live.source_snapshot("b")


#: An event file as the previous version wrote it: bracket-string
#: evidence and tagged exact keys.
PREVIOUS_EVENTS = "\n".join(
    [
        '{"op": "reliability", "source": "daily", "value": "4/5"}',
        '{"op": "upsert", "source": "daily", "values": {"k": {"fraction": "1/2"}, '
        '"colour": "[red^0.5, \\u03a9^0.5]"}, "membership": ["1/2", 1]}',
        '{"op": "upsert", "source": "daily", "values": {"k": 3, '
        '"colour": "[blue^1/4, green^3/4]"}}',
        '{"op": "flush"}',
        '{"op": "retract", "source": "daily", "key": [{"fraction": "1/2"}]}',
    ]
)


def test_previous_event_file_replays_to_the_same_state(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(PREVIOUS_EVENTS + "\n")
    schema = keyed_schema(NumericDomain("k"))
    replayed = StreamEngine(schema, name="R")
    replay(replayed, read_events(path))
    live = StreamEngine(schema, name="R")
    live.set_reliability("daily", Fraction(4, 5))
    live.upsert(
        "daily",
        {"k": Fraction(1, 2), "colour": "[red^0.5, Ω^0.5]"},
        (Fraction(1, 2), 1),
    )
    live.upsert("daily", {"k": 3, "colour": "[blue^1/4, green^3/4]"})
    live.flush()
    live.retract("daily", (Fraction(1, 2),))
    live.flush()
    assert replayed.relation == live.relation
    assert replayed.watermark == live.watermark == 4
    assert typed(key for (key,) in replayed.source_snapshot("daily").keys()) == [
        (3, int)
    ]


EXACT_DOMAINS = RelationSchema(
    "R",
    [
        Attribute(
            "k", NumericDomain("k", low=Fraction(1, 2), high=Fraction(9, 2)),
            key=True,
        ),
        Attribute("level", EnumeratedDomain("e", [Fraction(1, 2), 1])),
    ],
)


@pytest.mark.parametrize("scheme", ["json", "sqlite"])
def test_schemas_with_exact_domain_scalars_reopen(scheme, tmp_path):
    """A ``Fraction`` bound or enumerated value is stored tagged, so the
    schema saves at all and reopens equal in value and type."""
    relation = ExtendedRelation(
        EXACT_DOMAINS,
        [
            ExtendedTuple(EXACT_DOMAINS, {"k": Fraction(1, 2), "level": 1}),
            ExtendedTuple(
                EXACT_DOMAINS, {"k": Fraction(3, 2), "level": Fraction(1, 2)}
            ),
        ],
    )
    url = f"{scheme}:{tmp_path / ('store.' + SUFFIX[scheme])}"
    with open_backend(url) as backend:
        backend.save_relation(relation)
    with open_backend(url) as backend:
        reloaded = backend.load_relation("R")
    assert reloaded == relation
    key_domain = reloaded.schema.attribute("k").domain
    assert typed([key_domain.low, key_domain.high]) == typed(
        [Fraction(1, 2), Fraction(9, 2)]
    )
    values = reloaded.schema.attribute("level").domain.values
    assert sorted(typed(values), key=repr) == sorted(
        typed([Fraction(1, 2), 1]), key=repr
    )


def test_domains_read_raw_and_tagged_scalars():
    """Documents written before domain scalars were tagged still load,
    and integer and absent bounds are still written raw."""
    raw = {"kind": "numeric", "name": "k", "low": 1, "high": None}
    assert domain_to_json(domain_from_json(raw))["low"] == 1
    assert domain_to_json(domain_from_json(raw))["high"] is None
    tagged = {"kind": "numeric", "name": "k", "low": {"fraction": "1/2"}}
    assert domain_from_json(tagged).low == Fraction(1, 2)
    values = {"kind": "enumerated", "name": "e", "values": [1, {"fraction": "1/2"}]}
    assert domain_from_json(values).values == {1, Fraction(1, 2)}
    assert json.dumps(domain_to_json(domain_from_json(values)))


#: A row as stores written before exact scalars were tagged hold it: the
#: exact ``weight`` is bare ``"n/d"`` text, like the text ``note``.
PREVIOUS_ROW = {
    "values": {
        "k": "wok",
        "weight": "1/2",
        "note": "1/2",
        "colour": {"evidence": "[red^1/2, Ω^1/2]"},
    },
    "membership": ["1/2", "1/1"],
}


def test_previous_rows_read_exact_numbers_under_numeric_domains():
    schema = RelationSchema(
        "R",
        [
            Attribute("k", TextDomain("k"), key=True),
            Attribute("weight", NumericDomain("weight")),
            Attribute("note", TextDomain("note")),
            Attribute("colour", COLOUR, uncertain=True),
        ],
    )
    values = values_from_json(PREVIOUS_ROW["values"], schema)
    assert typed([values["weight"], values["note"]]) == typed(
        [Fraction(1, 2), "1/2"]
    )
    etuple = tuple_from_json(json.loads(json.dumps(PREVIOUS_ROW)), schema)
    stored = [etuple[name].definite_value() for name in ("weight", "note")]
    assert typed(stored) == typed(
        [Fraction(1, 2), "1/2"]
    )
    assert etuple.membership.sn == Fraction(1, 2)
