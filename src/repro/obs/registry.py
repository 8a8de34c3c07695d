"""The process-wide metrics registry: named counters, gauges, histograms.

One :class:`MetricsRegistry` instance per process (:func:`registry`)
owns every telemetry instrument the engine exposes.  Three instrument
kinds, all built on the thread-local-cell discipline of
:mod:`repro.counters` (lock-free bump on the hot path, aggregate under
a lock on read):

* :class:`Counter` -- a monotonically increasing integer;
* :class:`Gauge` -- a point-in-time value, either set explicitly or
  computed by a callback at collection time;
* :class:`Histogram` -- count/sum/min/max plus bucketed observations
  (:class:`repro.counters.ThreadLocalHistograms` cells).

Existing per-subsystem counter objects keep their attribute/snapshot
APIs and *re-register* onto the registry instead of being replaced:

* :meth:`MetricsRegistry.register_source` adopts a process-global stats
  object (the evidence kernel's ``STATS``) through a
  snapshot callable and an optional reset callable;
* :meth:`MetricsRegistry.attach` tracks per-instance stats dataclasses
  (``SessionStats``, ``StreamStats``) by weak reference and sums their
  integer fields over all live instances at collection time.

:meth:`MetricsRegistry.collect` returns one flat, sorted snapshot;
:meth:`MetricsRegistry.render` the human table; :meth:`prometheus` the
Prometheus text exposition format (stdlib only); :meth:`reset` zeroes
every owned instrument and adopted source (benchmarks and tests use it
to stop measuring accumulated process-global state).
"""

from __future__ import annotations

import threading
import weakref

from dataclasses import fields as dataclass_fields

from repro.counters import (
    DEFAULT_BUCKETS,
    ThreadLocalCounters,
    ThreadLocalHistograms,
)


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "help", "_counters")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._counters = ThreadLocalCounters(("value",))

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (lock-free; callable from any thread)."""
        self._counters.bump("value", amount)

    @property
    def value(self) -> int:
        """The aggregate count across all threads."""
        return self._counters.total("value")

    def reset(self) -> None:
        """Zero the counter in place."""
        self._counters.reset()

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value: set explicitly, or computed by a callback."""

    __slots__ = ("name", "help", "_lock", "_value", "_callback")

    def __init__(self, name: str, help: str = "", callback=None):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0
        self._callback = callback

    def set(self, value: float) -> None:
        """Record the current value (last write wins)."""
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        """The current value (the callback's, when one was registered)."""
        if self._callback is not None:
            return self._callback()
        with self._lock:
            return self._value

    def reset(self) -> None:
        """Zero an explicitly set gauge (callback gauges are stateless)."""
        with self._lock:
            self._value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Bucketed observations with count/sum/min/max aggregates."""

    __slots__ = ("name", "help", "_histograms")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        self.name = name
        self.help = help
        self._histograms = ThreadLocalHistograms(("value",), buckets)

    def observe(self, value: float) -> None:
        """Record one observation (lock-free; callable from any thread)."""
        self._histograms.observe("value", value)

    @property
    def buckets(self) -> tuple[float, ...]:
        """The bucket upper bounds (+inf implicit)."""
        return self._histograms.buckets

    @property
    def value(self) -> dict:
        """``{"count", "sum", "min", "max", "buckets"}`` across threads."""
        return self._histograms.total("value")

    def reset(self) -> None:
        """Zero the histogram in place."""
        self._histograms.reset()

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.value['count']})"


class _Group:
    """Live per-instance stats objects, summed field-wise on read."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self._refs: list = []

    def add(self, obj) -> None:
        self._refs.append(weakref.ref(obj))

    def instances(self) -> list:
        alive = [ref() for ref in self._refs]
        alive = [obj for obj in alive if obj is not None]
        # Compact dead references opportunistically so a long-lived
        # process churning sessions does not grow the list unboundedly.
        if len(alive) < len(self._refs):
            self._refs = [weakref.ref(obj) for obj in alive]
        return alive

    def totals(self) -> dict[str, int]:
        sums: dict[str, int] = {}
        for obj in self.instances():
            for field in dataclass_fields(obj):
                value = getattr(obj, field.name)
                if isinstance(value, int):
                    sums[field.name] = sums.get(field.name, 0) + value
        return sums


class MetricsRegistry:
    """Every named instrument of the process, behind one lock.

    Instrument accessors are get-or-create and idempotent: asking for an
    existing name returns the existing instrument (asking with a
    mismatched kind raises ``ValueError`` -- names are a process-wide
    contract).  Collection merges owned instruments, adopted sources and
    attached groups into one flat ``{name: value}`` snapshot.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[str, object] = {}
        self._sources: dict[str, tuple] = {}
        self._groups: dict[str, _Group] = {}

    # -- instruments --------------------------------------------------------

    def _instrument(self, kind, name: str, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValueError(
                        f"metric {name!r} is already registered as "
                        f"{type(existing).__name__}, not {kind.__name__}"
                    )
                return existing
            instrument = kind(name, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter *name*."""
        return self._instrument(Counter, name, help=help)

    def gauge(self, name: str, help: str = "", callback=None) -> Gauge:
        """Get or create the gauge *name* (optionally callback-backed)."""
        return self._instrument(Gauge, name, help=help, callback=callback)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram *name*."""
        return self._instrument(Histogram, name, help=help, buckets=buckets)

    # -- adoption of existing stats objects ---------------------------------

    def register_source(self, prefix: str, snapshot, reset=None) -> None:
        """Adopt a process-global stats object under *prefix*.

        *snapshot* is a callable returning ``{field: int}``; *reset*
        (optional) zeroes the underlying counters.  The adopted object
        keeps its own API -- the registry only reads through it, so the
        kernel's ``STATS`` singleton surfaces here without changing a
        single call site.
        """
        with self._lock:
            self._sources[prefix] = (snapshot, reset)

    def attach(self, prefix: str, stats) -> None:
        """Track a per-instance stats dataclass under *prefix*.

        Held by weak reference: instances unregister themselves by
        getting garbage-collected.  Collection sums each integer field
        over all live instances (``session.queries`` is the total over
        every live :class:`~repro.session.Session`).
        """
        with self._lock:
            group = self._groups.get(prefix)
            if group is None:
                group = self._groups[prefix] = _Group(prefix)
            group.add(stats)

    def group_total(self, prefix: str, field: str) -> int:
        """The summed value of *field* across the live *prefix* group."""
        with self._lock:
            group = self._groups.get(prefix)
        if group is None:
            return 0
        return group.totals().get(field, 0)

    # -- collection ---------------------------------------------------------

    def collect(self) -> dict[str, object]:
        """One flat, name-sorted snapshot of every registered metric.

        Counter and gauge values are numbers; histogram values are
        ``{"count", "sum", "min", "max", "buckets"}`` mappings.
        """
        with self._lock:
            instruments = dict(self._instruments)
            sources = dict(self._sources)
            groups = dict(self._groups)
        values: dict[str, object] = {}
        for name, instrument in instruments.items():
            values[name] = instrument.value
        for prefix, (snapshot, _) in sources.items():
            for field, value in snapshot().items():
                values[f"{prefix}.{field}"] = value
        for prefix, group in groups.items():
            for field, value in group.totals().items():
                values[f"{prefix}.{field}"] = value
        return dict(sorted(values.items()))

    def names(self) -> tuple[str, ...]:
        """The currently collectable metric names, sorted."""
        return tuple(self.collect())

    def render(self) -> str:
        """The collected snapshot as an aligned human-readable table."""
        collected = self.collect()
        if not collected:
            return "metrics: (none registered)"
        width = max(len(name) for name in collected)
        lines = []
        for name, value in collected.items():
            lines.append(f"  {name:<{width}}  {_render_value(value)}")
        return "\n".join(["metrics:"] + lines)

    def to_json(self) -> dict:
        """The collected snapshot as a JSON-serializable mapping."""
        payload: dict[str, object] = {}
        for name, value in self.collect().items():
            if isinstance(value, dict):
                payload[name] = {
                    "count": value["count"],
                    "sum": value["sum"],
                    "min": value["min"],
                    "max": value["max"],
                    "buckets": list(value["buckets"]),
                }
            else:
                payload[name] = value
        return payload

    def prometheus(self) -> str:
        """The snapshot in the Prometheus text exposition format.

        Metric names are prefixed ``repro_`` with dots mapped to
        underscores; histograms expose the conventional ``_bucket``
        (cumulative, with ``le`` labels), ``_sum`` and ``_count``
        series.  Stdlib only -- serve it from any HTTP handler.
        """
        with self._lock:
            instruments = dict(self._instruments)
        lines: list[str] = []
        for name, value in self.collect().items():
            flat = _prometheus_name(name)
            instrument = instruments.get(name)
            if isinstance(value, dict):
                lines.append(f"# TYPE {flat} histogram")
                cumulative = 0
                bounds = list(
                    instrument.buckets if instrument is not None else ()
                )
                for index, bucket in enumerate(value["buckets"]):
                    cumulative += bucket
                    edge = (
                        _format_number(bounds[index])
                        if index < len(bounds)
                        else "+Inf"
                    )
                    lines.append(f'{flat}_bucket{{le="{edge}"}} {cumulative}')
                lines.append(f"{flat}_sum {_format_number(value['sum'])}")
                lines.append(f"{flat}_count {value['count']}")
            else:
                kind = "gauge" if isinstance(instrument, Gauge) else "counter"
                lines.append(f"# TYPE {flat} {kind}")
                lines.append(f"{flat} {_format_number(value)}")
        return "\n".join(lines) + "\n"

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every owned instrument and adopted source in place.

        Attached per-instance groups are *not* touched (their owners
        hold the live objects); benchmarks that need a clean slate reset
        the registry and use fresh sessions/engines.
        """
        with self._lock:
            instruments = list(self._instruments.values())
            sources = list(self._sources.values())
        for instrument in instruments:
            instrument.reset()
        for _, reset in sources:
            if reset is not None:
                reset()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry({len(self._instruments)} instruments, "
                f"{len(self._sources)} sources, {len(self._groups)} groups)"
            )


def _render_value(value) -> str:
    if isinstance(value, dict):
        low = _format_number(value["min"]) if value["min"] is not None else "-"
        high = _format_number(value["max"]) if value["max"] is not None else "-"
        return (
            f"n={value['count']} sum={_format_number(value['sum'])} "
            f"min={low} max={high}"
        )
    return _format_number(value)


def _format_number(value) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _prometheus_name(name: str) -> str:
    safe = "".join(c if c.isalnum() else "_" for c in name)
    return f"repro_{safe}"


#: The process-wide registry; every subsystem registers here.  Mutate
#: through the instrument APIs, never rebind.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _REGISTRY
