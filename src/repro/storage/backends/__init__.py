"""Pluggable storage backends and URL-style location resolution.

Three engines behind one interface (:class:`StorageBackend`):

========  =====================================================================
scheme    engine
========  =====================================================================
``json``  one JSON file per database (the historical format, unchanged on disk)
``sqlite``  one row per tuple; single relations load without the rest of the db
``log``   append-only JSONL journal; write-ahead durability for stream engines
========  =====================================================================

Locations are URL-ish strings resolved by :func:`resolve_backend`:

* an explicit scheme prefix always wins: ``sqlite:federation.db``;
* otherwise the ``REPRO_STORAGE`` environment variable names the
  default engine for bare paths (the CI matrix uses this to run the
  whole suite against SQLite);
* otherwise the file extension decides (``.sqlite``/``.sqlite3``/``.db``
  -> sqlite, ``.jsonl``/``.log`` -> log, anything else -> json, the
  historical default).

>>> resolve_backend("sqlite:fed.db").scheme
'sqlite'
>>> resolve_backend("restaurants.json").scheme
'json'
>>> resolve_backend("journal.jsonl").scheme
'log'
"""

from __future__ import annotations

import os

from repro.errors import SerializationError
from repro.storage.backends.base import StorageBackend
from repro.storage.backends.jsonfile import JsonBackend
from repro.storage.backends.log import LogBackend
from repro.storage.backends.sqlite import SqliteBackend

#: Environment variable naming the default scheme for bare paths.
STORAGE_ENV = "REPRO_STORAGE"

#: Registered engines by URL scheme.
SCHEMES: dict[str, type[StorageBackend]] = {
    backend.scheme: backend
    for backend in (JsonBackend, SqliteBackend, LogBackend)
}

_EXTENSIONS = {
    ".sqlite": "sqlite",
    ".sqlite3": "sqlite",
    ".db": "sqlite",
    ".jsonl": "log",
    ".log": "log",
}


def split_url(url) -> tuple[str | None, str]:
    """Split ``scheme:location`` into its parts (scheme None when bare)."""
    text = str(url)
    scheme, separator, rest = text.partition(":")
    if separator and scheme in SCHEMES:
        return scheme, rest
    return None, text


def default_scheme(location: str) -> str:
    """The scheme a bare *location* resolves to (env var, then extension)."""
    configured = os.environ.get(STORAGE_ENV)
    if configured:
        if configured not in SCHEMES:
            known = ", ".join(sorted(SCHEMES))
            raise SerializationError(
                f"{STORAGE_ENV}={configured!r} names no storage backend "
                f"(known: {known})"
            )
        return configured
    suffix = os.path.splitext(location)[1].lower()
    return _EXTENSIONS.get(suffix, "json")


def resolve_backend(url) -> StorageBackend:
    """Build the (unopened) backend a location URL names.

    Accepts an already-built backend unchanged, so every API that takes
    a URL also takes a backend instance.
    """
    if isinstance(url, StorageBackend):
        return url
    scheme, location = split_url(url)
    if scheme is None:
        scheme = default_scheme(location)
    if not location:
        raise SerializationError(f"storage URL {str(url)!r} names no path")
    return SCHEMES[scheme](location)


def open_backend(url) -> StorageBackend:
    """Resolve and open a backend (caller closes, or uses ``with``)."""
    return resolve_backend(url).open()


def open_database(url):
    """Open the database a URL names, with its backend attached.

    The backend stays open and attached -- ``db.persist()`` writes back
    through it, ``db.reload()`` refreshes from it, ``db.close()``
    releases it.  Raises :class:`SerializationError` when the location
    holds no store.

    Backends advertising ``lazy_catalog`` (SQLite) open with name stubs
    instead of parsing every relation up front; each relation loads on
    first access.  Other backends load the whole database.
    """
    backend = resolve_backend(url)
    if not backend.exists():
        raise SerializationError(f"no database at {backend.url()}")
    backend.open()
    try:
        if backend.lazy_catalog:
            from repro.storage.database import Database

            database = Database(backend.database_name())
            database._pending = set(backend.list_relations())
            database._version = max(0, backend.catalog_version())
        else:
            database = backend.load_database()
    except Exception:
        backend.close()
        raise
    database.attach(backend)
    return database


def create_database(url, name: str = "db"):
    """A fresh, empty database attached to a (possibly new) location."""
    from repro.storage.database import Database

    backend = open_backend(url)
    database = Database(name)
    database.attach(backend)
    return database


__all__ = [
    "STORAGE_ENV",
    "SCHEMES",
    "StorageBackend",
    "JsonBackend",
    "SqliteBackend",
    "LogBackend",
    "split_url",
    "default_scheme",
    "resolve_backend",
    "open_backend",
    "open_database",
    "create_database",
]
