"""Append-only JSONL engine: relation snapshots + a streaming write-ahead log.

One self-describing JSON record per line, discriminated by ``record``:

.. code-block:: json

    {"record": "meta", "name": "db", "format_version": 1, "catalog_version": 3}
    {"record": "relation", "document": {"format_version": 1, "schema": {...}, "tuples": [...]}}
    {"record": "drop", "name": "RA"}
    {"record": "stream", "stream": "R", "schema": {...}, "on_conflict": "vacuous"}
    {"record": "event", "stream": "R", "event": {"op": "upsert", "source": "daily", "values": {...}, "membership": [...]}}
    {"record": "batch", "stream": "R", "batch": 2, "watermark": 12, "inserted": 6, "updated": 0, "removed": 0, "conflicted": 0}

Catalog semantics are last-writer-wins: a ``relation`` record supersedes
any earlier snapshot of the same name, ``drop`` removes it, and the
latest ``meta`` record carries the catalog version.  Every mutating save
*appends* -- nothing is ever rewritten in place -- so the file doubles
as an audit trail and writes are O(change), at the cost of unbounded
growth until :meth:`LogBackend.compact` folds history away.

Streaming durability is the native strength: a
:class:`~repro.stream.engine.StreamEngine` attached to this backend gets
a true write-ahead log.  Each flush appends the batch's accepted events,
encoded by :func:`~repro.storage.serialization.event_to_json` exactly
as a JSONL event file encodes them (an upsert holds the coerced tuple,
its ``values`` in the stored-row encoding), followed by a ``batch``
record carrying the watermark.  :meth:`recover_stream` decodes those
records with :func:`~repro.storage.serialization.event_from_json` and
replays them through a fresh engine -- Dempster folds are
deterministic, so the recovered relation, per-source snapshots and
watermark equal the pre-crash state *exactly* (events accepted after
the last flush were never durable and are correctly absent).  A torn tail (a partially
written final line, or events with no closing ``batch`` record) is
discarded, never misread.

Compaction preserves both roles: live relations keep only their latest
snapshot, and each stream's event history is folded into its final
per-source snapshots (re-emitted in registration order, so replay
reproduces the same registration-order fold) plus one ``batch`` record
with the original watermark.  Journals written by earlier versions,
whose upsert records hold a stored ``row``, still recover.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import SerializationError, StreamError
from repro.storage.backends.base import StorageBackend
from repro.storage.serialization import (
    FORMAT_VERSION,
    database_from_json,
    event_from_json,
    event_to_json,
    relation_from_json,
    relation_to_json,
    schema_from_json,
    schema_to_json,
    tuple_count,
)


class LogBackend(StorageBackend):
    """An append-only JSONL journal of snapshots and stream events."""

    scheme = "log"

    def __init__(self, location):
        super().__init__(location)
        self._handle = None
        # The folded meta record, maintained in memory across appends so
        # a save does not re-parse the whole journal just to bump the
        # catalog version (single-writer, like the append handle itself).
        self._meta_cache: dict | None = None

    # -- lifecycle ----------------------------------------------------------

    def _do_close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._meta_cache = None

    # -- record plumbing ----------------------------------------------------

    def _append(self, *records: dict) -> None:
        """Append records and force them to disk (the durability point)."""
        if self._handle is None:
            self._truncate_torn_tail()
            self._handle = open(self._path, "a", encoding="utf-8")
        for record in records:
            self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _truncate_torn_tail(self) -> None:
        """Drop a partial final line before the first append of a session.

        Readers already skip a torn tail, but appending *after* one
        would weld the new record onto the fragment -- a corrupt line
        that is no longer last and poisons every later read.  The
        fragment holds at most the batch that never got its marker
        (never durable by definition), so truncating back to the last
        complete line loses nothing the log ever promised to keep.
        """
        if not self._path.exists():
            return
        with open(self._path, "rb+") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size == 0:
                return
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) == b"\n":
                return
            text = self._path.read_bytes()
            keep = text.rfind(b"\n") + 1  # 0 when no newline at all
            handle.truncate(keep)

    def _records(self) -> list[dict]:
        """All intact records, oldest first.

        A torn final line (a crash mid-append) is discarded; corruption
        anywhere else is an error, with the offending line number.
        """
        if not self.exists():
            raise SerializationError(f"no database at {self.url()}")
        try:
            lines = self._path.read_text().splitlines()
        except OSError as exc:
            raise SerializationError(
                f"cannot read {self._path}: {exc}"
            ) from exc
        records = []
        last = len(lines)
        for number, line in enumerate(lines, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                records.append(json.loads(text))
            except json.JSONDecodeError as exc:
                if number == last:
                    break  # torn tail: the append never completed
                raise SerializationError(
                    f"{self._path}:{number}: invalid JSON record: {exc}"
                ) from exc
        return records

    def _catalog_state(self) -> tuple[dict, dict]:
        """Fold the journal into (meta, {name: relation document})."""
        meta = {
            "name": "db",
            "format_version": FORMAT_VERSION,
            "catalog_version": 0,
        }
        relations: dict[str, dict] = {}
        for record in self._records():
            kind = record.get("record")
            if kind == "meta":
                meta.update(
                    {
                        key: record[key]
                        for key in ("name", "format_version", "catalog_version")
                        if key in record
                    }
                )
            elif kind == "relation":
                document = record["document"]
                name = document["schema"]["name"]
                # Re-insert so catalog order follows last write, like a log.
                relations.pop(name, None)
                relations[name] = document
            elif kind == "drop":
                relations.pop(record["name"], None)
        if meta["format_version"] != FORMAT_VERSION:
            raise SerializationError(
                f"unsupported format version {meta['format_version']!r} "
                f"in {self.url()}"
            )
        return meta, relations

    def _meta_record(self, meta: dict) -> dict:
        return {
            "record": "meta",
            "name": meta["name"],
            "format_version": meta["format_version"],
            "catalog_version": meta["catalog_version"],
        }

    # -- catalog metadata ---------------------------------------------------

    def format_version(self) -> int:
        self._require_open()
        return int(self._catalog_state()[0]["format_version"])

    def database_name(self) -> str:
        self._require_open()
        return str(self._catalog_state()[0]["name"])

    def catalog_version(self) -> int:
        self._require_open()
        if not self.exists():
            return 0
        return int(self._catalog_state()[0]["catalog_version"])

    def list_relations(self) -> tuple[str, ...]:
        self._require_open()
        return tuple(sorted(self._catalog_state()[1]))

    def catalog(self) -> dict[str, dict]:
        self._require_open()
        return {
            name: {
                "tuples": tuple_count(document),
                "partitions": document.get("partitions", 0),
            }
            for name, document in self._catalog_state()[1].items()
        }

    # -- relation-level operations ------------------------------------------

    def _load_relation(self, name: str):
        document = self._catalog_state()[1].get(name)
        if document is None:
            raise self._missing_relation(name)
        return relation_from_json(document)

    def _save_relation(self, relation) -> None:
        meta = self._current_meta()
        meta["catalog_version"] += 1
        self._append(
            {
                "record": "relation",
                "document": relation_to_json(relation),
            },
            self._meta_record(meta),
        )
        self._meta_cache = meta

    def _delete_relation(self, name: str) -> None:
        meta, relations = self._catalog_state()
        if name not in relations:
            raise self._missing_relation(name)
        meta["catalog_version"] += 1
        self._append({"record": "drop", "name": name}, self._meta_record(meta))
        self._meta_cache = meta

    def _current_meta(self) -> dict:
        if self._meta_cache is not None:
            return dict(self._meta_cache)
        if not self.exists():
            return {
                "name": "db",
                "format_version": FORMAT_VERSION,
                "catalog_version": 0,
            }
        return self._catalog_state()[0]

    # -- database-level operations ------------------------------------------

    def _load_database(self):
        meta, relations = self._catalog_state()
        return database_from_json(
            {
                "format_version": meta["format_version"],
                "name": meta["name"],
                "relations": list(relations.values()),
            }
        )

    def _save_database(self, database) -> None:
        if self.exists():
            meta, relations = self._catalog_state()
            stale = set(relations) - set(database.names())
        else:
            meta, stale = self._current_meta(), set()
        meta["name"] = database.name
        meta["catalog_version"] += 1
        records = [{"record": "drop", "name": name} for name in sorted(stale)]
        records.extend(
            {
                "record": "relation",
                "document": relation_to_json(relation),
            }
            for relation in database
        )
        records.append(self._meta_record(meta))
        self._append(*records)
        self._meta_cache = meta

    # -- streaming durability (the write-ahead log) -------------------------

    def begin_stream(self, name: str, schema, on_conflict: str) -> None:
        """Append the stream's header record (idempotent per stream).

        On reattach the recorded schema and conflict policy must match:
        replaying events against a different schema would decode
        garbage, so a mismatch is an error rather than a silent rebind.
        """
        self._require_open()
        header = self._stream_header(name)
        if header is None:
            self._append(
                {
                    "record": "stream",
                    "stream": name,
                    "schema": schema_to_json(schema.with_name(name)),
                    "on_conflict": on_conflict,
                }
            )
            return
        recorded = schema_from_json(header["schema"])
        if recorded != schema.with_name(name):
            raise SerializationError(
                f"stream {name!r} in {self.url()} was logged with a "
                f"different schema; recover it instead of reattaching"
            )
        if header.get("on_conflict") != on_conflict:
            raise SerializationError(
                f"stream {name!r} in {self.url()} was logged with "
                f"on_conflict={header.get('on_conflict')!r}, not "
                f"{on_conflict!r}"
            )

    def write_batch(self, name: str, delta, events, relation) -> None:
        """Append the batch's write-ahead records + its ``batch`` marker."""
        self._require_open()
        with self._instrument("write_batch", "write_batches", True):
            self._write_batch(name, delta, events)

    def _write_batch(self, name: str, delta, events) -> None:
        records = [
            {
                "record": "event",
                "stream": name,
                "event": event_to_json(event),
            }
            for event in events
        ]
        records.append(
            {
                "record": "batch",
                "stream": name,
                "batch": delta.batch,
                "watermark": delta.watermark,
                "inserted": len(delta.inserted),
                "updated": len(delta.updated),
                "removed": len(delta.removed),
                "conflicted": len(delta.conflicted),
            }
        )
        self._append(*records)

    def _set_stream_watermark(self, name: str, watermark: int) -> None:
        self._append(
            {"record": "batch", "stream": name, "watermark": int(watermark)}
        )

    def _stream_watermark(self, name: str) -> int | None:
        if not self.exists():
            return None
        watermark = None
        for record in self._records():
            if record.get("record") == "batch" and record.get("stream") == name:
                watermark = int(record["watermark"])
        return watermark

    def _stream_header(self, name: str) -> dict | None:
        if not self.exists():
            return None
        header = None
        for record in self._records():
            if record.get("record") == "stream" and record.get("stream") == name:
                header = record
        return header

    def stream_names(self) -> tuple[str, ...]:
        """Streams with a header record, sorted."""
        self._require_open()
        if not self.exists():
            return ()
        return tuple(
            sorted(
                {
                    record["stream"]
                    for record in self._records()
                    if record.get("record") == "stream"
                }
            )
        )

    def recover_stream(
        self,
        name: str = "integrated",
        merger=None,
        database=None,
        batch_size: int | None = None,
        attach: bool = True,
    ):
        """Rebuild a durable stream engine from the write-ahead log.

        Replays the logged events batch by batch through a fresh
        :class:`~repro.stream.engine.StreamEngine`; because the engine's
        folds are deterministic, the recovered integrated relation,
        per-source snapshots, reliabilities and watermark are exactly
        the pre-crash flushed state.  Events after the last ``batch``
        record (never durable) are dropped.

        *merger* overrides the merger (required when the original used
        custom per-attribute methods, which the log cannot record); by
        default the logged ``on_conflict`` policy is restored.  With
        *attach* (the default) the returned engine keeps journaling to
        this backend; *database* republishes flushes into a catalog.
        """
        self._require_open()
        from repro.integration.merging import TupleMerger
        from repro.stream.connectors import apply_event
        from repro.stream.engine import StreamEngine

        header = self._stream_header(name)
        if header is None:
            known = ", ".join(self.stream_names()) or "(none)"
            raise SerializationError(
                f"no stream {name!r} in {self.url()} (logged: {known})"
            )
        schema = schema_from_json(header["schema"])
        if merger is None:
            merger = TupleMerger(on_conflict=header.get("on_conflict", "raise"))
        engine = StreamEngine(
            schema, name=name, merger=merger, database=database
        )
        pending: list[dict] = []
        for record in self._records():
            kind = record.get("record")
            if record.get("stream") != name:
                continue
            if kind == "event":
                pending.append(record["event"])
            elif kind == "batch":
                for document in pending:
                    try:
                        event = event_from_json(document)
                    except StreamError as exc:
                        raise SerializationError(
                            f"{self.url()}: bad write-ahead record: {exc}"
                        ) from exc
                    apply_event(engine, event)
                pending = []
                # Trust the recorded watermark over the replay count:
                # compaction re-emits snapshots, not original events.
                engine._seq = int(record["watermark"])
                engine.flush()
        # Events with no closing batch record were never durable: drop.
        if attach:
            engine._backend = self
        engine._batch_size = batch_size
        return engine

    # -- compaction ---------------------------------------------------------

    def compact(self) -> dict:
        """Rewrite the journal without history; returns before/after sizes.

        Keeps, per live relation, only its newest snapshot; folds each
        stream's event history into its final per-source snapshots
        (reliability + upsert records in registration order -- replay of
        the compacted log reproduces the same registration-order fold,
        hence the identical relation) closed by one ``batch`` record
        carrying the original watermark.  The catalog version is
        preserved: compaction changes the representation, not the
        catalog.
        """
        self._require_open()
        meta, relations = self._catalog_state()
        records: list[dict] = [self._meta_record(meta)]
        for document in relations.values():
            records.append({"record": "relation", "document": document})
        for stream in self.stream_names():
            records.extend(self._compacted_stream_records(stream))
        before = self._path.stat().st_size
        self._do_close()  # the append handle must not straddle the swap
        replacement = Path(f"{self._path}.compact")
        replacement.write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        os.replace(replacement, self._path)
        after = self._path.stat().st_size
        return {
            "records": len(records),
            "bytes_before": before,
            "bytes_after": after,
        }

    def _compacted_stream_records(self, name: str) -> list[dict]:
        header = self._stream_header(name)
        records: list[dict] = [header]
        if self._stream_watermark(name) is None:
            return records  # never flushed: nothing durable to fold
        engine = self.recover_stream(name, attach=False)
        records.extend(
            {
                "record": "event",
                "stream": name,
                "event": event_to_json(event),
            }
            for event in engine.snapshot_events()
        )
        records.append(
            {
                "record": "batch",
                "stream": name,
                "batch": engine.changelog.total_batches,
                "watermark": engine.watermark,
            }
        )
        return records
