"""O(delta) persistence: sqlite key-addressed rows and the log journal.

The exactness contract is absolute -- whatever the incremental write
does, ``load_relation`` must return the stream's published relation bit
for bit, same tuple order -- and the *cost* contract is exact too: a
sqlite flush writes the payload bytes of the changed rows and nothing
else.  A log journal appends until it is compacted on demand.
"""

import json
import sqlite3

import pytest

from repro.datasets.restaurants import table_ra
from repro.integration import TupleMerger
from repro.model.attribute import Attribute
from repro.model.domain import EnumeratedDomain, TextDomain
from repro.model.etuple import ExtendedTuple
from repro.model.evidence import EvidenceSet
from repro.model.relation import ExtendedRelation
from repro.model.schema import RelationSchema
from repro.obs import registry
from repro.storage import Database, open_backend
from repro.storage.backends.sqlite import _key_text
from repro.stream import StreamEngine
from repro.stream.changelog import BatchDelta
from tests.storage.legacy_layout import shard_index

COLOURS = ("red", "green", "blue")


def _schema(name="R"):
    domain = EnumeratedDomain("colour", COLOURS)
    return RelationSchema(
        name,
        [
            Attribute("name", TextDomain("name"), key=True),
            Attribute("colour", domain, uncertain=True),
        ],
    )


def _etuple(schema, key: str, colour: str) -> ExtendedTuple:
    domain = schema.attribute("colour").domain
    return ExtendedTuple(
        schema,
        {"name": key, "colour": EvidenceSet.definite(colour, domain)},
    )


def _engine(backend, schema):
    return StreamEngine(
        schema,
        name=schema.name,
        backend=backend,
        merger=TupleMerger(on_conflict="vacuous"),
    )


def _assert_exact_reload(backend, engine):
    loaded = backend.load_relation(engine.relation.name)
    assert loaded == engine.relation
    assert list(loaded.keys()) == list(engine.relation.keys())


def _bytes_written():
    return registry().counter("storage.sqlite.bytes_written").value


def _row_bytes(backend, relation: str, *keys) -> int:
    """The stored ``row_json`` + ``key_json`` bytes of *keys*' rows."""
    total = 0
    for key in keys:
        key_json = _key_text((key,))
        (row_json,) = backend._db.execute(
            "SELECT row_json FROM tuples WHERE relation = ? AND key_json = ?",
            (relation, key_json),
        ).fetchone()
        total += len(row_json) + len(key_json)
    return total


def _seeded(backend, schema, count: int):
    """An engine whose first (full) flush stored *count* entities."""
    engine = _engine(backend, schema)
    for index in range(count):
        engine.upsert("a", _etuple(schema, f"entity-{index:03d}", "red"))
    engine.flush()
    return engine


class TestSqliteDirtyShards:
    """Stream flushes write only the rows they changed, by key."""

    def test_flush_cycles_reload_exactly(self, tmp_path):
        """Inserts, updates and removals through many flushes: the store
        equals the published relation after every one of them."""
        schema = _schema()
        with open_backend(f"sqlite:{tmp_path / 'r.sqlite'}") as backend:
            engine = _engine(backend, schema)
            for index in range(12):
                engine.upsert(
                    "a", _etuple(schema, f"e{index}", COLOURS[index % 3])
                )
            engine.flush()
            _assert_exact_reload(backend, engine)
            # Update a few entities (the source replaces its assertion).
            for index in (0, 5, 11):
                engine.upsert(
                    "a", _etuple(schema, f"e{index}", COLOURS[(index + 1) % 3])
                )
            engine.flush()
            _assert_exact_reload(backend, engine)
            # Remove some, insert fresh ones past the end.
            engine.retract("a", ("e3",))
            engine.retract("a", ("e7",))
            engine.upsert("a", _etuple(schema, "late-1", "red"))
            engine.flush()
            _assert_exact_reload(backend, engine)
            engine.upsert("a", _etuple(schema, "late-2", "blue"))
            engine.retract("a", ("e0",))
            engine.flush()
            _assert_exact_reload(backend, engine)
        # ... and the final state survives a reopen.
        with open_backend(f"sqlite:{tmp_path / 'r.sqlite'}") as reopened:
            loaded = reopened.load_relation("R")
            assert loaded == engine.relation
            assert list(loaded.keys()) == list(engine.relation.keys())

    def test_flush_bytes_scale_with_changed_shards_not_relation_size(
        self, tmp_path
    ):
        """A one-entity update writes exactly that row's payload."""
        schema = _schema()
        with open_backend(f"sqlite:{tmp_path / 'r.sqlite'}") as backend:
            engine = _seeded(backend, schema, 64)
            engine.upsert("a", _etuple(schema, "entity-000", "green"))
            before = _bytes_written()
            engine.flush()
            assert _bytes_written() - before == _row_bytes(
                backend, "R", "entity-000"
            )
            _assert_exact_reload(backend, engine)

    def test_pure_removal_writes_zero_payload_bytes(self, tmp_path):
        schema = _schema()
        with open_backend(f"sqlite:{tmp_path / 'r.sqlite'}") as backend:
            engine = _seeded(backend, schema, 64)
            engine.retract("a", ("entity-007",))
            engine.retract("a", ("entity-063",))
            before = _bytes_written()
            delta = engine.flush()
            assert len(delta.removed) == 2
            assert _bytes_written() == before
            _assert_exact_reload(backend, engine)

    def test_suffix_insert_writes_exactly_the_inserted_rows(self, tmp_path):
        schema = _schema()
        with open_backend(f"sqlite:{tmp_path / 'r.sqlite'}") as backend:
            engine = _seeded(backend, schema, 64)
            fresh = ("late-1", "late-2", "late-3")
            for key in fresh:
                engine.upsert("a", _etuple(schema, key, "blue"))
            before = _bytes_written()
            delta = engine.flush()
            assert delta.inserted == tuple((key,) for key in fresh)
            assert _bytes_written() - before == _row_bytes(
                backend, "R", *fresh
            )
            _assert_exact_reload(backend, engine)

    def test_quiet_batch_writes_zero_payload_bytes(self, tmp_path):
        """An empty delta against a stored stream advances the
        watermark without touching a single row."""
        relation = table_ra()
        with open_backend(f"sqlite:{tmp_path / 'r.sqlite'}") as backend:
            first = BatchDelta(
                batch=1,
                watermark=6,
                events=6,
                inserted=tuple(relation.keys()),
                updated=(),
                removed=(),
                conflicted=(),
            )
            backend.write_batch("RA", first, [], relation)
            before = _bytes_written()
            quiet = BatchDelta(
                batch=2,
                watermark=9,
                events=0,
                inserted=(),
                updated=(),
                removed=(),
                conflicted=(),
            )
            backend.write_batch("RA", quiet, [], relation)
            assert _bytes_written() == before
            assert backend.stream_watermark("RA") == 9

    def test_mid_order_insert_falls_back_to_a_full_rewrite(self, tmp_path):
        """A delta the shard layout cannot express exactly (an entity
        re-entering mid-order) rewrites the whole relation stamped --
        and still reloads bit for bit."""
        relation = table_ra()
        keys = list(relation.keys())
        mid_key = keys[2]
        with open_backend(f"sqlite:{tmp_path / 'r.sqlite'}") as backend:
            first = BatchDelta(
                batch=1,
                watermark=len(keys),
                events=len(keys),
                inserted=tuple(keys),
                updated=(),
                removed=(),
                conflicted=(),
            )
            backend.write_batch("RA", first, [], relation)

            full_rewrites = []
            original = backend._insert_relation
            backend._insert_relation = lambda *a, **k: (
                full_rewrites.append(a) or original(*a, **k)
            )
            resurrection = BatchDelta(
                batch=2,
                watermark=len(keys) + 1,
                events=1,
                inserted=(mid_key,),
                updated=(),
                removed=(),
                conflicted=(),
            )
            backend.write_batch("RA", resurrection, [], relation)
            backend._insert_relation = original
            assert len(full_rewrites) == 1
            loaded = backend.load_relation("RA")
            assert loaded == relation
            assert list(loaded.keys()) == keys

    def test_pre_shard_store_gains_the_key_column(self, tmp_path):
        """A store created before the ``key_json`` migration opens,
        gains the column on first write, and streams exactly."""
        path = tmp_path / "old.sqlite"
        connection = sqlite3.connect(str(path))
        connection.executescript(
            """
            CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
            CREATE TABLE relations (
                name TEXT PRIMARY KEY, position INTEGER NOT NULL,
                partitions INTEGER NOT NULL DEFAULT 0,
                schema_json TEXT NOT NULL
            );
            CREATE TABLE tuples (
                relation TEXT NOT NULL, partition INTEGER NOT NULL DEFAULT 0,
                position INTEGER NOT NULL, row_json TEXT NOT NULL,
                PRIMARY KEY (relation, position)
            );
            INSERT INTO meta VALUES ('format_version', '1');
            INSERT INTO meta VALUES ('name', 'db');
            INSERT INTO meta VALUES ('catalog_version', '0');
            """
        )
        connection.commit()
        connection.close()
        schema = _schema()
        with open_backend(f"sqlite:{path}") as backend:
            engine = _engine(backend, schema)
            engine.upsert("a", _etuple(schema, "e0", "red"))
            engine.flush()
            columns = {
                row[1]
                for row in backend._db.execute("PRAGMA table_info(tuples)")
            }
            assert "key_json" in columns
            _assert_exact_reload(backend, engine)

    def test_null_key_rows_force_one_full_rewrite_then_go_incremental(
        self, tmp_path
    ):
        """Rows without a ``key_json`` (written before the column
        existed) cannot be addressed by key: the first flush detects
        them, rewrites the whole relation keyed, and the *next* flush
        writes one row again."""
        relation = table_ra()
        keys = list(relation.keys())
        with open_backend(f"sqlite:{tmp_path / 'r.sqlite'}") as backend:
            backend.save_relation(relation)
            with backend._db:
                backend._db.execute("UPDATE tuples SET key_json = NULL")
                backend._set_meta("stream:RA:watermark", 6)
            update = BatchDelta(
                batch=1,
                watermark=7,
                events=1,
                inserted=(),
                updated=(keys[0],),
                removed=(),
                conflicted=(),
            )
            before = _bytes_written()
            backend.write_batch("RA", update, [], relation)
            full = _bytes_written() - before
            loaded = backend.load_relation("RA")
            assert loaded == relation
            assert list(loaded.keys()) == keys
            nulls = backend._db.execute(
                "SELECT COUNT(*) FROM tuples "
                "WHERE relation = 'RA' AND key_json IS NULL"
            ).fetchone()[0]
            assert nulls == 0
            assert full == sum(
                _row_bytes(backend, "RA", *key) for key in keys
            )
            # Now keyed: a one-entity update writes that row only.
            before = _bytes_written()
            backend.write_batch(
                "RA",
                BatchDelta(
                    batch=2,
                    watermark=8,
                    events=1,
                    inserted=(),
                    updated=(keys[0],),
                    removed=(),
                    conflicted=(),
                ),
                [],
                relation,
            )
            assert _bytes_written() - before == _row_bytes(
                backend, "RA", *keys[0]
            )

    @pytest.mark.parametrize("key_less", [False, True])
    def test_fresh_engine_over_stored_rows_rewrites(self, tmp_path, key_less):
        """A fresh engine re-inserting entities that already have rows
        (keyed, or key-less so the key lookup cannot see them) rewrites
        the relation rather than append duplicates."""
        schema = _schema()
        path = f"sqlite:{tmp_path / 'r.sqlite'}"
        with open_backend(path) as backend:
            _seeded(backend, schema, 3)
            if key_less:
                with backend._db:
                    backend._db.execute("UPDATE tuples SET key_json = NULL")
        with open_backend(path) as backend:
            engine = _seeded(backend, schema, 3)
            _assert_exact_reload(backend, engine)

    @pytest.mark.parametrize("change", ["update", "retract"])
    def test_a_change_that_misses_its_row_rewrites(self, tmp_path, change):
        """Rows replaced behind the stream's back (here: a save of two of
        its four entities) make the keyed update or delete come back
        short, and the flush rewrites the whole relation."""
        schema = _schema()
        with open_backend(f"sqlite:{tmp_path / 'r.sqlite'}") as backend:
            engine = _seeded(backend, schema, 4)
            backend.save_relation(
                ExtendedRelation(schema, list(engine.relation)[:2])
            )
            if change == "update":
                engine.upsert("a", _etuple(schema, "entity-003", "blue"))
            else:
                engine.retract("a", ("entity-003",))
            engine.flush()
            _assert_exact_reload(backend, engine)

    def test_hash_sharded_relation_is_rewritten_flat(self, tmp_path):
        """A relation an older version re-saved in ``partitions = 3``
        hash shards loads shard by shard, so rows appended by key would
        land out of order: the next flush rewrites it flat instead."""
        schema = _schema()
        with open_backend(f"sqlite:{tmp_path / 'r.sqlite'}") as backend:
            engine = _seeded(backend, schema, 6)
            with backend._db:
                backend._db.execute("UPDATE relations SET partitions = 3")
                for key in engine.relation.keys():
                    backend._db.execute(
                        "UPDATE tuples SET partition = ? WHERE key_json = ?",
                        (shard_index(key, 3), _key_text(key)),
                    )
            engine.upsert("a", _etuple(schema, "late-1", "blue"))
            engine.flush()
            _assert_exact_reload(backend, engine)
            assert backend.catalog()["R"]["partitions"] == 0

    def test_insert_after_the_relation_was_deleted_rewrites_it(
        self, tmp_path
    ):
        """``delete_relation`` drops the watermark with the rows, so the
        next flush is a first flush and writes the whole relation
        back."""
        schema = _schema()
        with open_backend(f"sqlite:{tmp_path / 'r.sqlite'}") as backend:
            engine = _seeded(backend, schema, 4)
            backend.delete_relation("R")
            assert backend.stream_watermark("R") is None
            engine.upsert("a", _etuple(schema, "late-1", "blue"))
            delta = engine.flush()
            assert delta.inserted == (("late-1",),) and not delta.updated
            _assert_exact_reload(backend, engine)

    def test_insert_after_a_database_save_dropped_the_relation_rewrites_it(
        self, tmp_path
    ):
        """A store written before whole-database saves dropped the
        watermarks of the relations they dropped can hold a watermark
        without its relation: a pure-insert flush then has no stored
        relation to append to, and writes the whole relation back."""
        schema = _schema()
        with open_backend(f"sqlite:{tmp_path / 'r.sqlite'}") as backend:
            engine = _seeded(backend, schema, 4)
            other = Database("db")
            other.add(table_ra())
            backend.save_database(other)
            assert backend.list_relations() == ("RA",)
            with backend._db:  # the stale watermark an older save kept
                backend._set_meta("stream:R:watermark", engine.watermark)
            assert backend.stream_watermark("R") is not None
            engine.upsert("a", _etuple(schema, "late-1", "blue"))
            delta = engine.flush()
            assert delta.inserted == (("late-1",),) and not delta.updated
            _assert_exact_reload(backend, engine)

    def test_sixteen_shard_stream_store_keeps_taking_flushes(self, tmp_path):
        """A stream store stamped by an older version -- rows in 16 CRC32
        hash shards, a ``stream:<name>:shards`` meta key -- keeps taking
        row-by-row flushes and reloads exactly, in order."""
        schema = _schema()
        path = tmp_path / "r.sqlite"
        with open_backend(f"sqlite:{path}") as backend:
            engine = _seeded(backend, schema, 40)
            with backend._db:
                for (key_json,) in backend._db.execute(
                    "SELECT key_json FROM tuples"
                ).fetchall():
                    key = tuple(json.loads(key_json))
                    backend._db.execute(
                        "UPDATE tuples SET partition = ? WHERE key_json = ?",
                        (shard_index(key, 16), key_json),
                    )
                backend._set_meta("stream:R:shards", 16)
            stamped = backend._db.execute(
                "SELECT COUNT(*) FROM tuples WHERE partition != 0"
            ).fetchone()[0]
            assert stamped > 0
            engine.upsert("a", _etuple(schema, "entity-005", "blue"))
            engine.retract("a", ("entity-011",))
            engine.upsert("a", _etuple(schema, "late-1", "green"))
            before = _bytes_written()
            engine.flush()
            assert _bytes_written() - before == _row_bytes(
                backend, "R", "entity-005", "late-1"
            )
            _assert_exact_reload(backend, engine)
            # Untouched rows were not rewritten: their shards stay.
            assert backend._db.execute(
                "SELECT COUNT(*) FROM tuples WHERE partition != 0"
            ).fetchone()[0] >= stamped - 2
        with open_backend(f"sqlite:{path}") as reopened:
            loaded = reopened.load_relation("R")
            assert loaded == engine.relation
            assert list(loaded.keys()) == list(engine.relation.keys())


class TestLogAutocompaction:
    def _relation(self, rounds: int) -> ExtendedRelation:
        schema = _schema("R")
        return ExtendedRelation(
            schema,
            [_etuple(schema, f"e{i}", COLOURS[rounds % 3]) for i in range(6)],
        )

    def test_disabled_by_default(self, tmp_path):
        """Without an explicit compaction the journal keeps history."""
        with open_backend(f"log:{tmp_path / 'wal.jsonl'}") as backend:
            backend.save_relation(self._relation(0))
            single = backend._file_bytes()
            for round_number in range(1, 10):
                backend.save_relation(self._relation(round_number))
            assert backend._file_bytes() > 5 * single  # history kept
