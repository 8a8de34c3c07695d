"""The traced run's per-layer breakdown, measured from outside the program.

:class:`Tracer` wraps public functions of each layer in
:func:`repro.obs.span` spans (and call counters) for the duration of a
traced pass only.  A function is replaced wherever callers look its name
up: on its class for methods, and in every loaded module that holds the
function object for module-level functions.  The spans the program
already emits while tracing is on (``session.execute``,
``physical.<op>``, ``exec.map``, ``stream.flush``, ``storage.<op>``)
join the same tree, so a layer's self time is its spans' time minus the
time their child spans cover.

Counts come from deltas of the process-wide registry (``kernel.*``,
``exec.*``, ``storage.sqlite.*``) and from the per-instance stats of the
sessions and stream engines a pass created (the registry sums those only
over instances still alive, so its deltas are not exact).
"""

from __future__ import annotations

import functools
import sys

from collections import Counter, defaultdict

from repro.ds import combination, mass
from repro.integration import pipeline
from repro.integration.federation import Federation
from repro.integration.merging import TupleMerger
from repro.model.evidence import EvidenceSet
from repro.model.membership import TupleMembership
from repro.obs import add_sink, registry, remove_sink, span, take_records
from repro.query import parser
from repro.storage.database import Database
from repro.stream import StreamEngine, connectors

#: Registry counters whose deltas are reported (process-global sources
#: and owned instruments; per-instance groups are summed separately).
REGISTRY_PREFIXES = ("kernel.", "exec.", "storage.sqlite.")

#: Span name -> per-layer metric.  Spans named ``physical.<op>`` map to
#: ``algebra.<op>_s``; ``bench.op`` is the benchmark's root span per
#: operation, whose self time is the part no layer span covers.
SPAN_METRICS = {
    "ds.combine": "ds.combine_s",
    "model.evidence_parse": "model.evidence_parse_s",
    "model.membership_combine": "model.membership_combine_s",
    "integration.integrate": "integration.integrate_s",
    "integration.merge": "integration.merge_s",
    "integration.discount": "integration.discount_s",
    "stream.read": "stream.read_s",
    "stream.upsert": "stream.upsert_s",
    "stream.flush": "stream.flush_s",
    "storage.persist": "storage.persist_s",
    "storage.save_database": "storage.persist_s",
    "storage.write_batch": "storage.write_batch_s",
    "storage.open": "storage.open_s",
    "storage.load_relation": "storage.load_s",
    "session.execute": "session.execute_s",
    "query.parse": "query.parse_s",
    "exec.map": "exec.map_s",
    "bench.op": "trace.unattributed_s",
}

#: Every time metric the breakdown reports, zero when a workload never
#: enters the layer.
TIME_METRICS = tuple(dict.fromkeys(SPAN_METRICS.values()))

#: Module layers, each the sum of its metrics' self times
#: (``layer.<name>_s``); ``query.*`` and ``algebra.*`` belong to the
#: session layer that drives them.
LAYERS = {
    "ds": ("ds.",),
    "model": ("model.",),
    "integration": ("integration.",),
    "stream": ("stream.",),
    "storage": ("storage.",),
    "session": ("session.", "query.", "algebra."),
    "exec": ("exec.",),
}


def layer_totals(times: dict[str, float]) -> dict[str, float]:
    """``layer.<name>_s`` for every module layer, from self times."""
    return {
        f"layer.{layer}_s": sum(
            seconds for name, seconds in times.items() if name.startswith(prefixes)
        )
        for layer, prefixes in LAYERS.items()
    }

#: Counts from the registry, renamed to the layer they describe.
REGISTRY_COUNTS = {
    "ds.kernel_combinations": "kernel.kernel_combinations",
    "ds.fallback_combinations": "kernel.fallback_combinations",
    "ds.compilations": "kernel.compilations",
    "storage.bytes_written": "storage.sqlite.bytes_written",
    "storage.write_batches": "storage.sqlite.write_batches",
    "storage.point_loads": "storage.sqlite.point_loads",
    "exec.inline_batches": "exec.inline_batches",
    "exec.parallel_batches": "exec.parallel_batches",
    "exec.tasks": "exec.tasks",
}

#: Counts from per-instance stats, renamed to the layer they describe.
INSTANCE_COUNTS = {
    "session.plans_built": "session.plans_built",
    "session.result_cache_hits": "session.result_cache_hits",
    "session.subplan_cache_hits": "session.subplan_cache_hits",
    "session.node_executions": "session.node_executions",
    "stream.refolded_entities": "stream.refolds",
}

#: Counts the wrappers and the workloads keep themselves.
CALL_COUNTS = (
    "ds.combine_calls",
    "ds.validate_calls",
    "model.evidence_parse_calls",
    "integration.conflicts",
    "stream.events_accepted",
    "stream.events_rejected",
)

COUNT_METRICS = (
    tuple(REGISTRY_COUNTS) + tuple(INSTANCE_COUNTS) + CALL_COUNTS
)

_UNITS = {
    "storage.bytes_written": "B",
    "session.result_cache_hit_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "host.ref_ms": "ms",
}


def unit_of(metric: str) -> str:
    """The unit a per-layer metric is reported in."""
    if metric in _UNITS:
        return _UNITS[metric]
    return "s" if metric.endswith("_s") else "count"


def registry_counters() -> dict[str, int]:
    """The integer registry counters under :data:`REGISTRY_PREFIXES`."""
    return {
        name: value
        for name, value in registry().collect().items()
        if name.startswith(REGISTRY_PREFIXES)
        and isinstance(value, int)
        and not name.endswith("file_bytes")
    }


def counter_delta(before: dict, after: dict) -> dict[str, int]:
    """Per-name ``after - before`` (names missing before count as 0)."""
    return {
        name: value - before.get(name, 0)
        for name, value in sorted(after.items())
        if value - before.get(name, 0)
    }


def instance_counts(stats_objects) -> dict[str, int]:
    """Field-wise sums of session/stream stats dataclasses, prefixed."""
    totals: Counter = Counter()
    for prefix, stats in stats_objects:
        for name, value in vars(stats).items():
            if isinstance(value, int):
                totals[f"{prefix}.{name}"] += value
    return dict(sorted(totals.items()))


def self_times(records) -> dict[str, float]:
    """Raw self seconds per layer metric for one operation's spans."""
    covered: dict[int, float] = defaultdict(float)
    for record in records:
        if record.parent_id is not None:
            covered[record.parent_id] += record.duration
    times: dict[str, float] = defaultdict(float)
    for record in records:
        metric = SPAN_METRICS.get(record.name)
        if metric is None:
            if record.name.startswith("physical."):
                metric = f"algebra.{record.name[len('physical.'):]}_s"
            else:
                metric = record.name + "_s"
        times[metric] += record.duration - covered[record.span_id]
    return dict(times)


class _ListSink:
    def __init__(self):
        self.records: list = []

    def emit(self, record) -> None:
        self.records.append(record)


class Tracer:
    """Installs the layer wrappers and collects one operation's spans.

    Use as a context manager around a traced pass, with tracing on
    (``repro.obs.tracing_scope``); :meth:`take` drains the spans of the
    operation that just ran.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._sink = _ListSink()

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, function, name: str, count: str | None = None):
        calls = self.calls

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if count is not None:
                calls[count] += 1
            with span(name):
                return function(*args, **kwargs)

        return wrapper

    def _counted(self, function, count: str):
        calls = self.calls

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            calls[count] += 1
            return function(*args, **kwargs)

        return wrapper

    def _read_events(self, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            events = function(*args, **kwargs)
            try:
                while True:
                    with span("stream.read"):
                        event = next(events, None)
                    if event is None:
                        return
                    yield event
            finally:
                events.close()

        return wrapper

    # -- installation ---------------------------------------------------------

    def _patch_attr(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _patch_method(self, cls, name: str, make) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            self._patch_attr(cls, name, classmethod(make(raw.__func__)))
        else:
            self._patch_attr(cls, name, make(raw))

    def _patch_function(self, function, make) -> None:
        """Replace *function* in every loaded module that binds it."""
        replacement = make(function)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                if value is function:
                    self._patch_attr(module, name, replacement)

    def __enter__(self):
        self._patch_function(
            combination.combine_with_conflict,
            lambda f: self._spanned(f, "ds.combine", "ds.combine_calls"),
        )
        self._patch_function(
            mass.validate_mass_total,
            lambda f: self._counted(f, "ds.validate_calls"),
        )
        self._patch_function(
            pipeline.discount_tuple,
            lambda f: self._spanned(f, "integration.discount"),
        )
        self._patch_function(
            parser.parse, lambda f: self._spanned(f, "query.parse")
        )
        self._patch_function(connectors.read_events, self._read_events)
        self._patch_method(
            EvidenceSet,
            "parse",
            lambda f: self._spanned(
                f, "model.evidence_parse", "model.evidence_parse_calls"
            ),
        )
        self._patch_method(
            TupleMembership,
            "combine_dempster",
            lambda f: self._spanned(f, "model.membership_combine"),
        )
        self._patch_method(
            Federation,
            "integrate",
            lambda f: self._spanned(f, "integration.integrate"),
        )
        for name in ("merge", "merge_pair"):
            self._patch_method(
                TupleMerger, name, lambda f: self._spanned(f, "integration.merge")
            )
        self._patch_method(
            StreamEngine, "upsert", lambda f: self._spanned(f, "stream.upsert")
        )
        self._patch_method(
            Database, "persist", lambda f: self._spanned(f, "storage.persist")
        )
        self._patch_method(
            Database, "open", lambda f: self._spanned(f, "storage.open")
        )
        add_sink(self._sink)
        take_records()
        return self

    def __exit__(self, *exc):
        remove_sink(self._sink)
        take_records()
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        return False

    def take(self) -> list:
        """The span records finished since the last call."""
        records = self._sink.records
        self._sink.records = []
        take_records()
        return records
