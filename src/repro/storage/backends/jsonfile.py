"""The historical single-JSON-file engine, behind the backend interface.

One file holds one database document -- exactly the format
:func:`repro.storage.serialization.save_database` has always written, so
every file saved by earlier versions keeps loading unchanged.  The
backend adds two *optional* top-level fields (ignored by older readers,
defaulted when absent): ``catalog_version`` (bumped on every mutating
save) and ``streams`` (per-stream watermarks for snapshot durability).

This is the simplest possible engine and the baseline the others are
measured against: every load parses the whole file and every save
rewrites it, so relation-level operations cost O(database) regardless
of the relation touched (see ``benchmarks/bench_storage_backends.py``).
"""

from __future__ import annotations

import json

from repro.errors import SerializationError
from repro.storage.backends.base import StorageBackend
from repro.storage.serialization import (
    FORMAT_VERSION,
    _read_json_document,
    database_from_json,
    database_to_json,
    relation_from_json,
    relation_to_json,
    tuple_count,
)


class JsonBackend(StorageBackend):
    """One JSON file per database (the pre-backend on-disk format)."""

    scheme = "json"

    # -- document plumbing --------------------------------------------------

    def _read_document(self) -> dict:
        document = _read_json_document(self._path)
        if not isinstance(document, dict):
            raise SerializationError(
                f"{self._path} does not hold a database document"
            )
        return document

    def _read_or_empty(self) -> dict:
        """The stored document, or a fresh empty one for first writes.

        Goes through :meth:`exists` (not a raw path check) so a
        zero-byte file counts as "no store yet" rather than corrupt
        JSON.
        """
        if not self.exists():
            return {
                "format_version": FORMAT_VERSION,
                "name": "db",
                "catalog_version": 0,
                "relations": [],
            }
        return self._read_document()

    def _write_document(self, document: dict) -> None:
        self._path.write_text(json.dumps(document, indent=2))

    # -- catalog metadata ---------------------------------------------------

    def format_version(self) -> int:
        return int(self._read_document().get("format_version", FORMAT_VERSION))

    def database_name(self) -> str:
        return str(self._read_document().get("name", "db"))

    def catalog_version(self) -> int:
        if not self.exists():
            return 0
        return int(self._read_document().get("catalog_version", 0))

    def list_relations(self) -> tuple[str, ...]:
        document = self._read_document()
        return tuple(
            sorted(
                entry["schema"]["name"]
                for entry in document.get("relations", [])
            )
        )

    def catalog(self) -> dict[str, dict]:
        return {
            entry["schema"]["name"]: {
                "tuples": tuple_count(entry),
                "partitions": entry.get("partitions", 0),
            }
            for entry in self._read_document().get("relations", [])
        }

    # -- relation-level operations ------------------------------------------

    def _load_relation(self, name: str):
        # A monolithic file has no cheaper path than the full parse.
        for entry in self._read_document().get("relations", []):
            if entry["schema"]["name"] == name:
                return relation_from_json(entry)
        raise self._missing_relation(name)

    def _save_relation(self, relation) -> None:
        document = self._read_or_empty()
        entry = relation_to_json(relation)
        entries = document.get("relations", [])
        for index, existing in enumerate(entries):
            if existing["schema"]["name"] == relation.name:
                entries[index] = entry
                break
        else:
            entries.append(entry)
        document["relations"] = entries
        self._bump_and_write(document)

    def _delete_relation(self, name: str) -> None:
        document = self._read_document()
        entries = document.get("relations", [])
        kept = [e for e in entries if e["schema"]["name"] != name]
        if len(kept) == len(entries):
            raise self._missing_relation(name)
        document["relations"] = kept
        # The stream's next flush must be a first flush again.
        document.get("streams", {}).pop(name, None)
        self._bump_and_write(document)

    # -- database-level operations ------------------------------------------

    def _load_database(self):
        return database_from_json(self._read_document())

    def _save_database(self, database) -> None:
        document = self._read_or_empty()
        fresh = database_to_json(database)
        fresh["catalog_version"] = document.get("catalog_version", 0)
        if "streams" in document:
            # Watermarks of streams whose relation the save drops go too.
            kept = set(database.names())
            fresh["streams"] = {
                name: watermark
                for name, watermark in document["streams"].items()
                if name in kept
            }
        self._bump_and_write(fresh)

    def _bump_and_write(self, document: dict) -> None:
        document["catalog_version"] = int(document.get("catalog_version", 0)) + 1
        self._write_document(document)

    # -- streaming durability -----------------------------------------------

    def _set_stream_watermark(self, name: str, watermark: int) -> None:
        document = self._read_or_empty()
        document.setdefault("streams", {})[name] = int(watermark)
        self._write_document(document)

    def _stream_watermark(self, name: str) -> int | None:
        if not self.exists():
            return None
        value = self._read_document().get("streams", {}).get(name)
        return None if value is None else int(value)
