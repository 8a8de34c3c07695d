"""The storage-backend contract: one interface, interchangeable engines.

A :class:`StorageBackend` owns one on-disk *location* (a file) and
exposes the persistence operations the rest of the system needs --
relation-level loads and saves, whole-database round trips, catalog
metadata -- behind a uniform interface, so the engines are
interchangeable:

* :class:`repro.storage.backends.jsonfile.JsonBackend` -- the historical
  single-JSON-file format, unchanged on disk (files written by earlier
  versions keep loading);
* :class:`repro.storage.backends.sqlite.SqliteBackend` -- one row per
  extended tuple; relations load individually without touching the rest
  of the database, and stream flushes write only the changed rows;
* :class:`repro.storage.backends.log.LogBackend` -- an append-only JSONL
  journal (relation snapshots + streaming write-ahead records) with
  compaction.

**Equivalence is the contract.**  Whatever the engine, ``load(save(x))``
reproduces relations bit-for-bit: exact Fractions stay exact (masses,
memberships and scalar values alike), floats round-trip through
``repr``, tuple order and schema domains survive, and evidence over
enumerated domains comes back compiled onto the kernel fast path.  All
engines serialize tuples through the same codec
(:mod:`repro.storage.serialization`); a backend only decides *where*
the documents live and *how much* of them a given operation reads.

Catalog metadata: every backend persists the database name, the
serialization :data:`~repro.storage.serialization.FORMAT_VERSION` and a
monotonically increasing **catalog version** (bumped by every mutating
save).  :meth:`load_database` seeds the returned
:class:`~repro.storage.database.Database`'s version from it, so a
session attached to a reopened database never serves results
fingerprinted against an older incarnation of the catalog.

Streaming durability: :meth:`write_batch` persists one flushed
:class:`~repro.stream.changelog.BatchDelta`.  The base implementation
snapshots the integrated relation and records the watermark (crash
recovery = reload the relation, resume from the watermark); the SQLite
backend writes only the changed rows.  The log backend instead appends
the batch's events, encoded as JSONL event files encode them, and its
:meth:`~repro.storage.backends.log.LogBackend.recover_stream` replays
them into the same state the engine had at its last flush.
"""

from __future__ import annotations

import abc
import time
from contextlib import contextmanager
from pathlib import Path

from repro.errors import SerializationError
from repro.obs import tracing
from repro.obs.registry import registry as _metrics_registry


class StorageBackend(abc.ABC):
    """Abstract persistence engine for relations and databases.

    Backends are context managers; mutating and loading operations
    require the backend to be open::

        with SqliteBackend("federation.sqlite") as backend:
            backend.save_database(db)
            hot = backend.load_relation("RA")   # only RA's rows are read

    Subclasses implement the ``_``-prefixed hooks; the public methods
    add the open-state guard and the shared catalog-version plumbing.
    """

    #: URL scheme this backend registers under (``json``/``sqlite``/``log``).
    scheme: str = "?"

    #: Whether this engine loads single relations cheaply enough that
    #: :func:`repro.storage.backends.open_database` should hold lazy
    #: relation stubs instead of eagerly deserializing the whole store
    #: (the SQLite backend point-loads one relation without parsing the
    #: rest; the JSON backend parses the whole file either way).
    lazy_catalog: bool = False

    def __init__(self, location):
        self._path = Path(location)
        self._opened = False

    # -- identity -----------------------------------------------------------

    @property
    def path(self) -> Path:
        """The on-disk location this backend owns."""
        return self._path

    def url(self) -> str:
        """The backend's canonical URL (``scheme:location``)."""
        return f"{self.scheme}:{self._path}"

    def describe(self) -> str:
        """One-line digest for ``:stats`` and throughput reports."""
        return f"storage backend: {self.scheme} at {self._path}"

    def exists(self) -> bool:
        """Whether the location already holds a store.

        A zero-byte file does not count: merely opening a SQLite
        connection (or an append handle) materializes an empty file,
        and that must not shadow "no database here yet".
        """
        return self._path.exists() and self._path.stat().st_size > 0

    # -- lifecycle ----------------------------------------------------------

    @property
    def is_open(self) -> bool:
        """Whether :meth:`open` has been called (and not yet closed)."""
        return self._opened

    def open(self) -> "StorageBackend":
        """Acquire the location (idempotent); returns ``self``."""
        if not self._opened:
            self._do_open()
            self._opened = True
        return self

    def close(self) -> None:
        """Release the location (idempotent)."""
        if self._opened:
            self._do_close()
            self._opened = False

    def __enter__(self) -> "StorageBackend":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _do_open(self) -> None:
        """Engine hook: acquire resources (default: nothing to do)."""

    def _do_close(self) -> None:
        """Engine hook: release resources (default: nothing to do)."""

    def _require_open(self) -> None:
        if not self._opened:
            raise SerializationError(
                f"backend {self.url()} is not open (use it as a context "
                f"manager, or call open() first)"
            )

    # -- telemetry ----------------------------------------------------------

    def _file_bytes(self) -> int:
        try:
            return self._path.stat().st_size
        except OSError:
            return 0

    @contextmanager
    def _instrument(self, op: str, counter: str, save_side: bool):
        """Meter one public storage call: per-scheme I/O counters, call
        latency histograms, on-disk size, and a ``storage.<op>`` span.

        Storage calls are disk-bound, so the metrics are always on; only
        the span obeys the tracing flag.
        """
        registry = _metrics_registry()
        prefix = f"storage.{self.scheme}"
        registry.counter(f"{prefix}.{counter}").inc()
        before = self._file_bytes() if save_side else 0
        start = time.perf_counter()
        with tracing.span(
            f"storage.{op}", scheme=self.scheme, path=str(self._path)
        ):
            yield
        elapsed = time.perf_counter() - start
        side = "save_seconds" if save_side else "load_seconds"
        registry.histogram(f"{prefix}.{side}").observe(elapsed)
        if save_side:
            after = self._file_bytes()
            if after > before:
                registry.counter(f"{prefix}.bytes_written").inc(after - before)
            registry.gauge(f"{prefix}.file_bytes").set(after)

    # -- catalog metadata ---------------------------------------------------

    @abc.abstractmethod
    def format_version(self) -> int:
        """The serialization format version of the store."""

    @abc.abstractmethod
    def database_name(self) -> str:
        """The persisted database name."""

    @abc.abstractmethod
    def catalog_version(self) -> int:
        """Monotonic catalog version; bumped by every mutating save.

        A freshly created (or empty) store reports 0.
        """

    @abc.abstractmethod
    def list_relations(self) -> tuple[str, ...]:
        """The stored relation names, sorted."""

    @abc.abstractmethod
    def catalog(self) -> dict[str, dict]:
        """Per-relation metadata: ``{name: {"tuples": n, "partitions": p}}``.

        Every writer stores relations flat (``partitions`` 0);
        ``partitions`` reports the hash-shard count a store written by an
        older version may still hold.  Such stores load unchanged.
        """

    # -- relation-level operations ------------------------------------------

    def load_relation(self, name: str):
        """Load one stored relation by *name*.

        How much of the store this reads is the engine's defining
        trade-off: the JSON backend parses the whole file, the SQLite
        backend reads only the relation's own rows.
        """
        self._require_open()
        with self._instrument("load_relation", "point_loads", False):
            return self._load_relation(name)

    def save_relation(self, relation) -> None:
        """Insert or replace one relation (creating the store if absent).

        The tuples are stored flat, in the relation's own order, so a
        reloaded relation iterates in the saved order.  Bumps the
        catalog version.
        """
        self._require_open()
        with self._instrument("save_relation", "saves", True):
            self._save_relation(relation)

    def delete_relation(self, name: str) -> None:
        """Remove one stored relation; bumps the catalog version."""
        self._require_open()
        self._delete_relation(name)

    # -- database-level operations ------------------------------------------

    def load_database(self):
        """Load the whole store into a :class:`Database`.

        The returned database's catalog version is seeded from the
        backend's persisted catalog version: a session created against
        the reopened database starts at the store's version, so cached
        plans/results fingerprinted before a persist cycle can never be
        mistaken for fresh.
        """
        self._require_open()
        with self._instrument("load_database", "loads", False):
            database = self._load_database()
        database._version = max(database._version, self.catalog_version())
        return database

    def save_database(self, database) -> None:
        """Persist the whole *database* (replacing the stored catalog).

        Relations stored earlier but absent from *database* are removed.
        Bumps the catalog version once for the whole save.
        """
        self._require_open()
        with self._instrument("save_database", "saves", True):
            self._save_database(database)

    # -- streaming durability -----------------------------------------------

    def begin_stream(self, name: str, schema, on_conflict: str) -> None:
        """Declare a durable stream *name* speaking *schema*.

        Called once when a :class:`~repro.stream.engine.StreamEngine`
        attaches this backend.  Snapshot backends need no preamble; the
        log backend writes (or verifies) the stream's header record.
        """
        self._require_open()

    def write_batch(self, name: str, delta, events, relation) -> None:
        """Persist one flushed micro-batch of the stream *name*.

        *delta* is the :class:`~repro.stream.changelog.BatchDelta` just
        published, *events* the events accepted since the previous
        flush (:class:`~repro.storage.serialization.UpsertEvent` holding
        the coerced tuple's values,
        :class:`~repro.storage.serialization.RetractEvent`,
        :class:`~repro.storage.serialization.ReliabilityEvent`),
        *relation* the integrated relation.

        The base behavior is snapshot durability: save the relation and
        record the watermark.  An empty batch only advances the
        watermark -- a periodic flush on a quiet stream must not rewrite
        the whole relation.  The SQLite backend writes only the rows
        the batch changed, addressed by their entity key.  The log
        backend appends the events themselves instead -- a true
        write-ahead log whose replay rebuilds the engine exactly.
        """
        self._require_open()
        with self._instrument("write_batch", "write_batches", True):
            if not delta.is_empty() or self._stream_watermark(name) is None:
                self._save_relation(relation)
            self._set_stream_watermark(name, delta.watermark)

    def stream_watermark(self, name: str) -> int | None:
        """The last durably recorded watermark of stream *name* (or None)."""
        self._require_open()
        return self._stream_watermark(name)

    # -- engine hooks -------------------------------------------------------

    @abc.abstractmethod
    def _load_relation(self, name: str):
        ...

    @abc.abstractmethod
    def _save_relation(self, relation) -> None:
        ...

    @abc.abstractmethod
    def _delete_relation(self, name: str) -> None:
        ...

    @abc.abstractmethod
    def _load_database(self):
        ...

    @abc.abstractmethod
    def _save_database(self, database) -> None:
        ...

    @abc.abstractmethod
    def _set_stream_watermark(self, name: str, watermark: int) -> None:
        ...

    @abc.abstractmethod
    def _stream_watermark(self, name: str) -> int | None:
        ...

    # -- shared helpers -----------------------------------------------------

    def _missing_relation(self, name: str) -> SerializationError:
        known = ", ".join(self.list_relations()) or "(none)"
        return SerializationError(
            f"no relation {name!r} in {self.url()} (stored: {known})"
        )

    def __repr__(self) -> str:
        state = "open" if self._opened else "closed"
        return f"{type(self).__name__}({str(self._path)!r}, {state})"
