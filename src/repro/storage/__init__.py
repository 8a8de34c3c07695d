"""Storage layer: catalogs, serialization, pluggable backends, rendering.

* :mod:`repro.storage.database` -- an in-memory database of extended
  relations with a catalog, the execution target of the query layer;
  ``Database.open(url)``/``persist()`` bind it to a storage backend;
* :mod:`repro.storage.serialization` -- the one JSON codec for
  relations, databases, stored rows and stream events, shared by every
  backend and by JSONL event files;
* :mod:`repro.storage.backends` -- the :class:`StorageBackend` engines
  behind URL-style locations: ``json:`` (one file per database),
  ``sqlite:`` (one row per tuple, relations load individually),
  ``log:`` (append-only journal with write-ahead stream durability);
* :mod:`repro.storage.formatting` -- renders extended relations as text
  tables in the paper's style (bracketed evidence sets, ``(sn,sp)``
  column).
"""

from repro.storage.database import Database
from repro.storage.serialization import (
    database_from_json,
    database_to_json,
    load_database,
    load_relation,
    relation_from_json,
    relation_to_json,
    save_database,
    save_relation,
)
from repro.storage.backends import (
    JsonBackend,
    LogBackend,
    SqliteBackend,
    StorageBackend,
    create_database,
    open_backend,
    open_database,
    resolve_backend,
)
from repro.storage.formatting import format_relation, format_tuple

__all__ = [
    "Database",
    "relation_to_json",
    "relation_from_json",
    "database_to_json",
    "database_from_json",
    "save_relation",
    "load_relation",
    "save_database",
    "load_database",
    "StorageBackend",
    "JsonBackend",
    "SqliteBackend",
    "LogBackend",
    "resolve_backend",
    "open_backend",
    "open_database",
    "create_database",
    "format_relation",
    "format_tuple",
]
