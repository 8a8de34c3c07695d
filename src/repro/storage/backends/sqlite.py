"""SQLite engine: one row per extended tuple, relations load individually.

Layout (three tables, created inside the transaction of the first
write, so a new store appears whole or not at all):

``meta(key, value)``
    ``format_version``, ``name`` (the database name),
    ``catalog_version`` (bumped by every mutating save) and per-stream
    watermarks (``stream:<name>:watermark``).
``relations(name, position, partitions, schema_json)``
    One row per relation: catalog position (stable load order), a
    hash-shard count (always 0 when written now) and the schema
    document.
``tuples(relation, partition, position, row_json, key_json)``
    One row per extended tuple.  ``row_json`` is the same tuple
    document the JSON backend stores
    (:func:`~repro.storage.serialization.tuple_to_json`), ``position``
    the tuple's order in the relation and ``key_json`` the canonical
    JSON identity of its entity key
    (:func:`~repro.storage.serialization.key_to_json`), indexed by
    ``tuples_by_key``.  Writers leave
    ``partition`` at 0.

Stores written by older versions load unchanged: a relation with
``partitions > 1`` reads its rows shard by shard (``partition``, then
``position``), and rows stamped with a hash shard under
``partitions = 0`` read in ``position`` order like any other.

The payoff over the monolithic JSON file is *selective* deserialization:
:meth:`load_relation` reads exactly one relation's rows through an
indexed scan -- the rest of the database is never parsed.

Stream flushes write only the rows the batch changed:
:meth:`SqliteBackend.write_batch` deletes the removed keys, updates
``row_json`` of the updated keys and appends the inserted keys past the
last stored position, every row addressed by ``key_json``.  Bytes
written scale with the number of changed entities (metered by the
``storage.sqlite.bytes_written`` counter).  A change that cannot be
written row by row -- the stream's first flush (also the first after
:meth:`delete_relation`, which drops the stream's watermark with the
rows), a stored relation that a whole-database save dropped, a
hash-sharded stored relation, a mid-order insert, an inserted key that
already has a row, a key-less row, an update or delete that misses its
row -- rewrites the whole relation instead, so the reloaded relation
always equals the stream's published relation bit for bit, in the same
order.
"""

from __future__ import annotations

import json
import sqlite3
import time

from repro.errors import SerializationError
from repro.model.relation import ExtendedRelation
from repro.obs import tracing
from repro.obs.registry import registry as _metrics_registry
from repro.storage.backends.base import StorageBackend
from repro.storage.database import Database
from repro.storage.serialization import (
    FORMAT_VERSION,
    key_to_json,
    schema_from_json,
    schema_to_json,
    tuple_from_json,
    tuple_to_json,
)

_SCHEMA = (
    """CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
)""",
    """CREATE TABLE IF NOT EXISTS relations (
    name        TEXT PRIMARY KEY,
    position    INTEGER NOT NULL,
    partitions  INTEGER NOT NULL DEFAULT 0,
    schema_json TEXT NOT NULL
)""",
    """CREATE TABLE IF NOT EXISTS tuples (
    relation TEXT    NOT NULL,
    partition INTEGER NOT NULL DEFAULT 0,
    position INTEGER NOT NULL,
    row_json TEXT    NOT NULL,
    key_json TEXT,
    PRIMARY KEY (relation, position)
)""",
    "CREATE INDEX IF NOT EXISTS tuples_by_key ON tuples (relation, key_json)",
)

def _key_text(key: tuple) -> str:
    """Canonical JSON identity of an entity key (stable across runs)."""
    return json.dumps(key_to_json(key))


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
        """Create tables + default metadata inside the caller's write.

        Called first inside the ``with self._db`` block of every write.
        A new store's tables, index and meta rows join that write's
        transaction (SQLite DDL is transactional), so the first save is
        one ``BEGIN ... COMMIT`` and a failed one leaves no store behind.
        """
        if self._has_store():
            self._ensure_key_column()
            return
        db = self._db
        # The sqlite3 module opens transactions implicitly only before
        # DML; begin explicitly so the DDL joins the transaction.
        if not db.in_transaction:
            db.execute("BEGIN")
        for statement in _SCHEMA:
            db.execute(statement)
        db.executemany(
            "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
            [
                ("format_version", str(FORMAT_VERSION)),
                ("name", "db"),
                ("catalog_version", "0"),
            ],
        )

    def _ensure_key_column(self) -> None:
        """Migrate stores predating ``key_json``: add the column once.

        Rows written before the migration keep ``NULL`` keys; the next
        stream flush detects them and rewrites the whole relation, after
        which every row carries its key.
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
        # Relations an older version saved hash-sharded load shard by
        # shard, which is the order they were saved in.
        order = "partition, position" if partitions > 1 else "position"
        try:
            schema = schema_from_json(json.loads(schema_json))
            rows = self._db.execute(
                f"SELECT row_json FROM tuples WHERE relation = ? ORDER BY {order}",
                (name,),
            )
            tuples = [
                tuple_from_json(json.loads(row_json), schema)
                for (row_json,) in rows
            ]
            return ExtendedRelation(schema, tuples)
        except json.JSONDecodeError as exc:
            raise SerializationError(
                f"corrupt row for relation {name!r} in {self.url()}: {exc}"
            ) from exc

    def _save_relation(self, relation) -> None:
        with self._db:
            self._ensure_store()
            self._check_format()
            self._insert_relation(relation)
            self._bump_catalog_version()

    def _insert_relation(self, relation) -> int:
        """Write one whole relation inside the caller's transaction.

        Replaces every stored row of the relation; returns the payload
        bytes written.
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
        self._db.execute(
            "INSERT INTO relations (name, position, partitions, schema_json) "
            "VALUES (?, ?, 0, ?) ON CONFLICT (name) DO UPDATE SET "
            "partitions = excluded.partitions, "
            "schema_json = excluded.schema_json",
            (relation.name, position, json.dumps(schema_to_json(relation.schema))),
        )
        self._db.execute(
            "DELETE FROM tuples WHERE relation = ?", (relation.name,)
        )
        rows = []
        written = 0
        for index, etuple in enumerate(relation):
            row_json = json.dumps(tuple_to_json(etuple))
            key_json = _key_text(etuple.key())
            written += len(row_json) + len(key_json)
            rows.append((relation.name, index, row_json, key_json))
        self._db.executemany(
            "INSERT INTO tuples (relation, position, row_json, key_json) "
            "VALUES (?, ?, ?, ?)",
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
            # The stream's next flush must be a first flush again.
            self._db.execute(
                "DELETE FROM meta WHERE key = ?", (f"stream:{name}:watermark",)
            )
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

    def _save_database(self, database) -> None:
        with self._db:
            self._ensure_store()
            self._check_format()
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
                # As in _delete_relation: the stream starts over.
                self._db.execute(
                    "DELETE FROM meta WHERE key = ?",
                    (f"stream:{stale}:watermark",),
                )
            for relation in database:
                self._insert_relation(relation)
            self._set_meta("name", database.name)
            self._bump_catalog_version()

    # -- streaming durability -----------------------------------------------

    def write_batch(self, name: str, delta, events, relation) -> None:
        """Persist one flushed micro-batch, writing only the changed rows.

        Removed keys are deleted, updated keys get their new
        ``row_json``, and inserted keys -- which must form the suffix of
        the relation's order -- are appended past the last stored
        position, every row addressed by ``key_json``.  The stream's
        first flush, and any change that cannot be written row by row,
        rewrites the whole relation.  Quiet batches advance the
        watermark only.  Metering is manual (the base ``_instrument``
        counts file growth, which in-place SQLite page rewrites do not
        show): ``storage.sqlite.bytes_written`` counts the serialized
        ``row_json`` + ``key_json`` bytes of the rows written.
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
        with self._db:
            self._ensure_store()
            self._check_format()
            first = self._meta(f"stream:{name}:watermark") is None
            if delta.is_empty() and not first:
                self._set_meta(f"stream:{name}:watermark", int(delta.watermark))
                return 0
            written = None if first else self._write_changed_rows(relation, delta)
            if written is None:
                written = self._insert_relation(relation)
            self._set_meta(f"stream:{name}:watermark", int(delta.watermark))
            self._bump_catalog_version()
        return written

    def _write_changed_rows(self, relation, delta) -> int | None:
        """Write the batch's changed rows by key, inside the caller's
        transaction.

        Returns the payload bytes written, or ``None`` when the change
        cannot be written row by row; the caller then rewrites the whole
        relation in the same transaction, so rows already touched here
        are replaced too.  Surviving rows keep their stored positions,
        which is what keeps the global tuple order exact.
        """
        name = relation.name
        db = self._db
        stored = db.execute(
            "SELECT partitions FROM relations WHERE name = ?", (name,)
        ).fetchone()
        # Old relations stored hash-sharded load shard by shard, so an
        # appended row would land out of order.
        if stored is None or stored[0] > 1:
            return None
        keys = relation.keys()
        inserted = keys[len(keys) - len(delta.inserted):]
        if set(inserted) != set(delta.inserted):
            return None  # a mid-order insert
        # An inserted key that already has a row would be stored twice;
        # key-less rows (written before ``key_json`` existed) hide that.
        if db.execute(
            "SELECT 1 FROM tuples WHERE relation = ? AND key_json IS NULL",
            (name,),
        ).fetchone():
            return None
        inserted_texts = [_key_text(key) for key in inserted]
        for key_json in inserted_texts:
            if db.execute(
                "SELECT 1 FROM tuples WHERE relation = ? AND key_json = ?",
                (name, key_json),
            ).fetchone():
                return None
        removed = [(name, _key_text(key)) for key in delta.removed]
        deleted = db.executemany(
            "DELETE FROM tuples WHERE relation = ? AND key_json = ?", removed
        ).rowcount
        if deleted != len(removed):
            return None
        written = 0
        updates = []
        for key in delta.updated:
            row_json = json.dumps(tuple_to_json(relation.get(key)))
            key_json = _key_text(key)
            written += len(row_json) + len(key_json)
            updates.append((row_json, name, key_json))
        changed = db.executemany(
            "UPDATE tuples SET row_json = ? WHERE relation = ? AND key_json = ?",
            updates,
        ).rowcount
        if changed != len(updates):
            return None
        (next_position,) = db.execute(
            "SELECT COALESCE(MAX(position), -1) + 1 FROM tuples "
            "WHERE relation = ?",
            (name,),
        ).fetchone()
        rows = []
        for offset, (key, key_json) in enumerate(zip(inserted, inserted_texts)):
            row_json = json.dumps(tuple_to_json(relation.get(key)))
            written += len(row_json) + len(key_json)
            rows.append((name, next_position + offset, row_json, key_json))
        db.executemany(
            "INSERT INTO tuples (relation, position, row_json, key_json) "
            "VALUES (?, ?, ?, ?)",
            rows,
        )
        return written

    def _set_stream_watermark(self, name: str, watermark: int) -> None:
        with self._db:
            self._ensure_store()
            self._set_meta(f"stream:{name}:watermark", int(watermark))

    def _stream_watermark(self, name: str) -> int | None:
        if not self._has_store():
            return None
        value = self._meta(f"stream:{name}:watermark")
        return None if value is None else int(value)
