"""SQLite engine: one row per extended tuple, relations load individually.

Layout (three tables, created lazily on first write):

``meta(key, value)``
    ``format_version``, ``name`` (the database name),
    ``catalog_version`` (bumped by every mutating save) and per-stream
    watermarks (``stream:<name>:watermark``).
``relations(name, position, partitions, schema_json)``
    One row per relation: catalog position (stable load order), the
    persisted shard count (0 = flat) and the schema document.
``tuples(relation, partition, position, row_json)``
    One row per extended tuple.  ``row_json`` is the same lossless
    tuple document the JSON backend stores (exact fractions as
    ``"1/3"``, floats via shortest ``repr``), ``position`` the tuple's
    serial order in the relation, and ``partition`` its stable CRC32
    hash shard (:func:`repro.model.relation.partition_index`) when the
    relation was saved partitioned.

The payoff over the monolithic JSON file is *selective* deserialization:
:meth:`load_relation` reads exactly one relation's rows through an
indexed scan -- the rest of the database is never parsed -- and a
relation saved with ``partitions=n`` reloads through
:meth:`ExtendedRelation.from_partitions` into the identical shard
layout, so a sharded engine resumes without re-hashing mismatches.

Streaming durability is **O(delta)**: :meth:`SqliteBackend.write_batch`
stamps a stream's rows into :data:`STREAM_SHARDS` stable CRC32 hash
shards (plus a ``key_json`` identity column) on the first flush, and
every later flush rewrites only the shards holding the batch's
inserted/updated/removed entities -- bytes written scale with the
*changed* partitions, not the relation size (metered by the
``storage.sqlite.bytes_written`` counter).  Changes the shard layout
cannot express exactly (an entity resurrected mid-order, rows from an
older layout) fall back to a full stamped rewrite, so the reloaded
relation always equals the stream's published relation bit for bit.
"""

from __future__ import annotations

import json
import sqlite3
import time

from repro.errors import SerializationError
from repro.model.relation import ExtendedRelation, partition_index
from repro.obs import tracing
from repro.obs.registry import registry as _metrics_registry
from repro.storage.backends.base import StorageBackend
from repro.storage.database import Database
from repro.storage.serialization import (
    FORMAT_VERSION,
    _tuple_from_json,
    _tuple_to_json,
    schema_from_json,
    schema_to_json,
)

#: Hash-shard count for stream relations: fine enough that a small
#: batch touches a small fraction of the rows, coarse enough that a
#: full rewrite stays a handful of multi-row inserts.
STREAM_SHARDS = 16

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS relations (
    name        TEXT PRIMARY KEY,
    position    INTEGER NOT NULL,
    partitions  INTEGER NOT NULL DEFAULT 0,
    schema_json TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS tuples (
    relation TEXT    NOT NULL,
    partition INTEGER NOT NULL DEFAULT 0,
    position INTEGER NOT NULL,
    row_json TEXT    NOT NULL,
    key_json TEXT,
    PRIMARY KEY (relation, position)
);
CREATE INDEX IF NOT EXISTS tuples_by_key ON tuples (relation, key_json);
"""

def _key_text(key: tuple) -> str:
    """Canonical JSON identity of an entity key (stable across runs)."""
    from repro.stream.connectors import _atom_to_json

    return json.dumps([_atom_to_json(part) for part in key])


class SqliteBackend(StorageBackend):
    """A SQLite database file with one row per extended tuple."""

    scheme = "sqlite"
    lazy_catalog = True

    def __init__(self, location):
        super().__init__(location)
        self._connection: sqlite3.Connection | None = None
        self._key_column_ok = False

    # -- lifecycle ----------------------------------------------------------

    def _do_open(self) -> None:
        try:
            self._connection = sqlite3.connect(str(self._path))
        except sqlite3.Error as exc:
            raise SerializationError(
                f"cannot open SQLite store {self._path}: {exc}"
            ) from exc

    def _do_close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    @property
    def _db(self) -> sqlite3.Connection:
        self._require_open()
        assert self._connection is not None
        return self._connection

    # -- store plumbing -----------------------------------------------------

    def _has_store(self) -> bool:
        row = self._db.execute(
            "SELECT 1 FROM sqlite_master WHERE type='table' AND name='meta'"
        ).fetchone()
        return row is not None

    def _require_store(self) -> None:
        if not self._has_store():
            raise SerializationError(f"no database at {self.url()}")

    def _ensure_store(self) -> None:
        """Create tables + default metadata on first write."""
        if self._has_store():
            self._ensure_key_column()
            return
        self._db.executescript(_SCHEMA)
        self._db.executemany(
            "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
            [
                ("format_version", str(FORMAT_VERSION)),
                ("name", "db"),
                ("catalog_version", "0"),
            ],
        )
        self._db.commit()

    def _ensure_key_column(self) -> None:
        """Migrate pre-shard stores: add the ``key_json`` column once.

        Rows written before the migration keep ``NULL`` keys; the
        dirty-shard path detects them and falls back to a full stamped
        rewrite, after which the layout is current.
        """
        if getattr(self, "_key_column_ok", False):
            return
        columns = {
            row[1] for row in self._db.execute("PRAGMA table_info(tuples)")
        }
        if "key_json" not in columns:
            self._db.execute("ALTER TABLE tuples ADD COLUMN key_json TEXT")
        self._db.execute(
            "CREATE INDEX IF NOT EXISTS tuples_by_key "
            "ON tuples (relation, key_json)"
        )
        self._db.commit()
        self._key_column_ok = True

    def _meta(self, key: str, default: str | None = None) -> str | None:
        row = self._db.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return default if row is None else row[0]

    def _set_meta(self, key: str, value: object) -> None:
        self._db.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
            (key, str(value)),
        )

    def _check_format(self) -> None:
        stored = int(self._meta("format_version", str(FORMAT_VERSION)))
        if stored != FORMAT_VERSION:
            raise SerializationError(
                f"unsupported format version {stored!r} in {self.url()}"
            )

    def _bump_catalog_version(self) -> None:
        self._set_meta("catalog_version", self.catalog_version() + 1)

    # -- catalog metadata ---------------------------------------------------

    def format_version(self) -> int:
        self._require_open()
        self._require_store()
        return int(self._meta("format_version", str(FORMAT_VERSION)))

    def database_name(self) -> str:
        self._require_open()
        self._require_store()
        return str(self._meta("name", "db"))

    def catalog_version(self) -> int:
        self._require_open()
        if not self._has_store():
            return 0
        return int(self._meta("catalog_version", "0"))

    def list_relations(self) -> tuple[str, ...]:
        self._require_open()
        self._require_store()
        rows = self._db.execute("SELECT name FROM relations ORDER BY name")
        return tuple(name for (name,) in rows)

    def catalog(self) -> dict[str, dict]:
        self._require_open()
        self._require_store()
        rows = self._db.execute(
            "SELECT r.name, r.partitions, COUNT(t.rowid) "
            "FROM relations r LEFT JOIN tuples t ON t.relation = r.name "
            "GROUP BY r.name, r.partitions ORDER BY r.position"
        )
        return {
            name: {"tuples": count, "partitions": partitions}
            for name, partitions, count in rows
        }

    # -- relation-level operations ------------------------------------------

    def _load_relation(self, name: str) -> ExtendedRelation:
        self._require_store()
        self._check_format()
        row = self._db.execute(
            "SELECT schema_json, partitions FROM relations WHERE name = ?",
            (name,),
        ).fetchone()
        if row is None:
            raise self._missing_relation(name)
        schema_json, partitions = row
        try:
            schema = schema_from_json(json.loads(schema_json))
            rows = self._db.execute(
                "SELECT partition, row_json FROM tuples "
                "WHERE relation = ? ORDER BY position",
                (name,),
            )
            if partitions and partitions > 1:
                shards: list[list] = [[] for _ in range(partitions)]
                for partition, row_json in rows:
                    shards[partition].append(
                        _tuple_from_json(json.loads(row_json), schema)
                    )
                return ExtendedRelation.from_partitions(
                    schema,
                    [ExtendedRelation(schema, shard) for shard in shards],
                )
            tuples = [
                _tuple_from_json(json.loads(row_json), schema)
                for _, row_json in rows
            ]
            return ExtendedRelation(schema, tuples)
        except json.JSONDecodeError as exc:
            raise SerializationError(
                f"corrupt row for relation {name!r} in {self.url()}: {exc}"
            ) from exc

    def _save_relation(self, relation, partitions: int | None) -> None:
        self._ensure_store()
        self._check_format()
        with self._db:
            self._insert_relation(relation, partitions)
            self._bump_catalog_version()

    def _insert_relation(
        self, relation, partitions: int | None, stream_shards: int | None = None
    ) -> int:
        """Write one relation inside the caller's transaction.

        With *stream_shards* the rows are stamped for the dirty-shard
        stream layout instead: partition = the key's stable hash shard,
        ``key_json`` = the key's identity, while ``relations.partitions``
        stays 0 so :meth:`_load_relation` reads the flat
        ``ORDER BY position`` path (global order is authoritative).
        Returns the serialized payload bytes written.
        """
        row = self._db.execute(
            "SELECT position FROM relations WHERE name = ?", (relation.name,)
        ).fetchone()
        if row is not None:
            position = row[0]
        else:
            row = self._db.execute(
                "SELECT COALESCE(MAX(position), -1) + 1 FROM relations"
            ).fetchone()
            position = row[0]
        sharded = partitions is not None and partitions > 1
        n = partitions if sharded else 0
        self._db.execute(
            "INSERT INTO relations (name, position, partitions, schema_json) "
            "VALUES (?, ?, ?, ?) ON CONFLICT (name) DO UPDATE SET "
            "partitions = excluded.partitions, "
            "schema_json = excluded.schema_json",
            (relation.name, position, n, json.dumps(schema_to_json(relation.schema))),
        )
        self._db.execute(
            "DELETE FROM tuples WHERE relation = ?", (relation.name,)
        )
        rows = []
        written = 0
        for index, etuple in enumerate(relation):
            key = etuple.key()
            row_json = json.dumps(_tuple_to_json(etuple))
            if stream_shards:
                shard = partition_index(key, stream_shards)
            else:
                shard = partition_index(key, n) if sharded else 0
            # Every row is key-stamped (not just stream layouts): the
            # identity column is what point loads and O(delta) upserts
            # address rows by.
            key_json = _key_text(key)
            written += len(row_json) + len(key_json)
            rows.append((relation.name, shard, index, row_json, key_json))
        self._db.executemany(
            "INSERT INTO tuples "
            "(relation, partition, position, row_json, key_json) "
            "VALUES (?, ?, ?, ?, ?)",
            rows,
        )
        return written

    def _delete_relation(self, name: str) -> None:
        self._require_store()
        with self._db:
            deleted = self._db.execute(
                "DELETE FROM relations WHERE name = ?", (name,)
            ).rowcount
            if not deleted:
                raise self._missing_relation(name)
            self._db.execute("DELETE FROM tuples WHERE relation = ?", (name,))
            self._bump_catalog_version()

    # -- database-level operations ------------------------------------------

    def _load_database(self) -> Database:
        self._require_store()
        self._check_format()
        database = Database(self.database_name())
        names = self._db.execute(
            "SELECT name FROM relations ORDER BY position"
        ).fetchall()
        # One batched change notification, as database_from_json does.
        with database.batch():
            for (name,) in names:
                database._install(self._load_relation(name))
        return database

    def _save_database(self, database, partitions: int | None) -> None:
        self._ensure_store()
        self._check_format()
        with self._db:
            stored = {
                name
                for (name,) in self._db.execute("SELECT name FROM relations")
            }
            # Sorted: delete order is observable in the journal/WAL and
            # must not depend on set iteration order.
            for stale in sorted(stored - set(database.names())):
                self._db.execute(
                    "DELETE FROM relations WHERE name = ?", (stale,)
                )
                self._db.execute(
                    "DELETE FROM tuples WHERE relation = ?", (stale,)
                )
            for relation in database:
                self._insert_relation(relation, partitions)
            self._set_meta("name", database.name)
            self._bump_catalog_version()

    # -- streaming durability -----------------------------------------------

    def write_batch(self, name: str, delta, events, relation) -> None:
        """Persist one flushed micro-batch with O(delta) row writes.

        The first flush stamps the whole relation into
        :data:`STREAM_SHARDS` hash shards (recorded in the
        ``stream:<name>:shards`` meta key); later flushes rewrite only
        the shards containing the batch's changed entities, so bytes
        written scale with the changed partitions rather than the
        relation size.  Quiet batches advance the watermark only.
        Metering is manual (the base ``_instrument`` counts file growth,
        which in-place SQLite page rewrites do not show):
        ``storage.sqlite.bytes_written`` counts the serialized payload
        bytes of the rows actually inserted.
        """
        self._require_open()
        registry = _metrics_registry()
        prefix = f"storage.{self.scheme}"
        registry.counter(f"{prefix}.write_batches").inc()
        started = time.perf_counter()
        with tracing.span(
            "storage.write_batch", scheme=self.scheme, path=str(self._path)
        ):
            written = self._write_batch(name, delta, relation)
        registry.histogram(f"{prefix}.save_seconds").observe(
            time.perf_counter() - started
        )
        if written:
            registry.counter(f"{prefix}.bytes_written").inc(written)
        registry.gauge(f"{prefix}.file_bytes").set(self._file_bytes())

    def _write_batch(self, name: str, delta, relation) -> int:
        self._ensure_store()
        self._check_format()
        shards_meta = self._meta(f"stream:{name}:shards")
        if delta.is_empty() and shards_meta is not None:
            with self._db:
                self._set_meta(f"stream:{name}:watermark", int(delta.watermark))
            return 0
        with self._db:
            if shards_meta is None:
                written = self._insert_relation(
                    relation, None, stream_shards=STREAM_SHARDS
                )
                self._set_meta(f"stream:{name}:shards", STREAM_SHARDS)
            else:
                shards = int(shards_meta)
                written = self._write_dirty_shards(relation, shards, delta)
                if written is None:
                    # The shard layout cannot express this change
                    # exactly: rewrite the whole relation stamped.
                    written = self._insert_relation(
                        relation, None, stream_shards=shards
                    )
            self._set_meta(f"stream:{name}:watermark", int(delta.watermark))
            self._bump_catalog_version()
        return written

    def _write_dirty_shards(self, relation, shards: int, delta) -> int | None:
        """Rewrite only the hash shards the batch touched.

        Returns the payload bytes written, or ``None`` when the
        incremental layout cannot represent the change exactly (rows
        predating the ``key_json`` migration, an entity re-inserted
        mid-order, or stored rows that disagree with the relation) --
        the caller then falls back to a full stamped rewrite.  Global
        tuple order is the exactness contract: surviving rows keep
        their stored positions, and inserted entities are only assigned
        past-the-end positions when they really form a suffix of the
        relation's order.
        """
        inserted = set(delta.inserted)
        changed = inserted | set(delta.updated) | set(delta.removed)
        dirty = sorted(
            {partition_index(key, shards) for key in sorted(changed, key=repr)}
        )
        placeholders = ", ".join("?" for _ in dirty)
        stored: dict[str, tuple[int, str]] = {}
        rows_query = self._db.execute(
            f"SELECT key_json, position, row_json FROM tuples "
            f"WHERE relation = ? AND partition IN ({placeholders})",
            (relation.name, *dirty),
        )
        for key_json, position, row_json in rows_query:
            if key_json is None:
                return None
            stored[key_json] = (position, row_json)
        order = [etuple.key() for etuple in relation]
        index_of = {key: index for index, key in enumerate(order)}
        last_survivor = max(
            (
                index
                for key, index in index_of.items()
                if key not in inserted
            ),
            default=-1,
        )
        if any(
            index_of.get(key, -1) <= last_survivor for key in delta.inserted
        ):
            return None
        (next_position,) = self._db.execute(
            "SELECT COALESCE(MAX(position), -1) + 1 FROM tuples "
            "WHERE relation = ?",
            (relation.name,),
        ).fetchone()
        updated = set(delta.updated)
        dirty_set = set(dirty)
        rows = []
        written = 0
        for etuple in relation:
            key = etuple.key()
            if partition_index(key, shards) not in dirty_set:
                continue
            key_json = _key_text(key)
            if key in inserted:
                # Inserted keys form the relation's suffix (checked
                # above), so they take past-the-end positions in order.
                position = next_position + (
                    index_of[key] - (last_survivor + 1)
                )
                row_json = json.dumps(_tuple_to_json(etuple))
            else:
                entry = stored.get(key_json)
                if entry is None:
                    return None
                position, row_json = entry
                if key in updated:
                    row_json = json.dumps(_tuple_to_json(etuple))
            written += len(row_json) + len(key_json)
            rows.append((relation.name, partition_index(key, shards), position, row_json, key_json))
        self._db.execute(
            f"DELETE FROM tuples "
            f"WHERE relation = ? AND partition IN ({placeholders})",
            (relation.name, *dirty),
        )
        self._db.executemany(
            "INSERT INTO tuples "
            "(relation, partition, position, row_json, key_json) "
            "VALUES (?, ?, ?, ?, ?)",
            rows,
        )
        return written

    def _set_stream_watermark(self, name: str, watermark: int) -> None:
        self._ensure_store()
        with self._db:
            self._set_meta(f"stream:{name}:watermark", int(watermark))

    def _stream_watermark(self, name: str) -> int | None:
        if not self._has_store():
            return None
        value = self._meta(f"stream:{name}:watermark")
        return None if value is None else int(value)
