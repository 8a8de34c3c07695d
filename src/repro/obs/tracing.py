"""Structured tracing: nested spans with near-zero cost when disabled.

A *span* measures one named unit of work -- a query run, a physical
operator application, a stream flush, a storage save.  Spans nest: each
thread keeps its own parent stack, so work builds one tree per driving
thread.

The cost contract: when tracing is disabled -- the default, unless the
``REPRO_TRACE`` environment variable is set to a non-empty value other
than ``0`` -- :func:`span` checks one module-level flag and returns a
shared no-op singleton.  No allocation, no clock read, no locking on
any hot path.

Finished spans become :class:`SpanRecord` dataclasses collected into a
bounded in-memory buffer (:func:`take_records`) and fanned out to
registered sinks (:func:`add_sink`); :class:`JsonlSink` appends one JSON
object per record for the CLI's ``--trace-out FILE``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
import time

from collections import deque
from dataclasses import dataclass, field


def _env_enabled() -> bool:
    raw = os.environ.get("REPRO_TRACE", "")
    return raw not in ("", "0")


#: The global switch, checked before any tracing work happens.
_enabled = _env_enabled()

_LOCK = threading.Lock()
_RECORDS: deque = deque(maxlen=10_000)
_SINKS: list = []
_IDS = itertools.count(1)
_STACK = threading.local()


@dataclass(frozen=True)
class SpanRecord:
    """One finished span -- plain data."""

    span_id: int
    parent_id: int | None
    name: str
    thread: str
    duration: float
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """A JSON-serializable mapping of the record."""
        return {
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "thread": self.thread,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }


class _NullSpan:
    """The shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def note(self, **attrs) -> None:
        """Discard *attrs* (tracing is off)."""


_NULL_SPAN = _NullSpan()


class Span:
    """A live span: context manager timing one unit of work."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "_start")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.span_id = next(_IDS)
        self.parent_id = None
        self._start = 0.0

    def __enter__(self):
        stack = _parent_stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        duration = time.perf_counter() - self._start
        stack = _parent_stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        _emit(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                thread=threading.current_thread().name,
                duration=duration,
                attrs=self.attrs,
            )
        )
        return False

    def note(self, **attrs) -> None:
        """Attach *attrs* to the span (e.g. row counts known at exit)."""
        self.attrs.update(attrs)


def _parent_stack() -> list:
    stack = getattr(_STACK, "spans", None)
    if stack is None:
        stack = _STACK.spans = []
    return stack


def _emit(record: SpanRecord) -> None:
    with _LOCK:
        _RECORDS.append(record)
        sinks = list(_SINKS)
    for sink in sinks:
        sink.emit(record)


def enabled() -> bool:
    """Whether tracing is currently on."""
    return _enabled


def set_tracing(flag: bool) -> None:
    """Turn tracing on or off process-wide."""
    global _enabled
    _enabled = bool(flag)


@contextlib.contextmanager
def tracing_scope(flag: bool = True):
    """Temporarily force tracing on (or off) within a block."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    try:
        yield
    finally:
        _enabled = previous


def span(name: str, **attrs):
    """Open a span named *name*; use as ``with span(...) as s:``.

    Returns the shared no-op singleton when tracing is disabled -- the
    only cost on a disabled hot path is this one flag check.
    """
    if not _enabled:
        return _NULL_SPAN
    return Span(name, attrs)


def add_sink(sink) -> None:
    """Register *sink* (an object with ``emit(record)``) for every span."""
    with _LOCK:
        _SINKS.append(sink)


def remove_sink(sink) -> None:
    """Unregister a sink added with :func:`add_sink`."""
    with _LOCK:
        if sink in _SINKS:
            _SINKS.remove(sink)


def take_records() -> list[SpanRecord]:
    """Drain and return the buffered span records, oldest first."""
    with _LOCK:
        records = list(_RECORDS)
        _RECORDS.clear()
    return records


class JsonlSink:
    """A sink appending one JSON object per span record to a file."""

    def __init__(self, path):
        self._path = path
        self._lock = threading.Lock()
        self._handle = open(path, "a", encoding="utf-8")

    def emit(self, record: SpanRecord) -> None:
        line = json.dumps(record.to_json(), sort_keys=True)
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            self._handle.close()
