"""repro.obs -- the unified telemetry layer.

One process-wide :class:`MetricsRegistry` (:func:`registry`), a
structured-tracing span API (:func:`span`, near-zero-cost while
disabled), and profile products (:class:`QueryProfile` from
``Session.explain_analyze``, :class:`FlushProfile` on stream batch
deltas).  Every subsystem registers its instruments here; every export
surface -- ``repro stats``, the repl ``:stats``/``:profile``,
:meth:`MetricsRegistry.prometheus`, ``--trace-out`` JSONL traces --
reads from here.

Metric naming
=============

Names are dotted, lowercase, stable (tests assert them).  The full
catalogue:

======================================  =========  ==================================================
name                                    kind       meaning
======================================  =========  ==================================================
kernel.kernel_combinations              counter    pairwise evidence combinations (bitmask kernel)
kernel.compilations                     counter    mass functions compiled to kernel form
session.queries                         counter    queries executed, summed over live sessions
session.plans_built                     counter    plans compiled (cache misses)
session.plan_cache_hits                 counter    plan-cache hits
session.result_cache_hits               counter    whole-query result-cache hits
session.subplan_cache_hits              counter    shared-subtree result-cache hits
session.node_executions                 counter    plan nodes evaluated (cache misses)
session.invalidations                   counter    cache invalidation sweeps
session.entries_invalidated             counter    cache entries dropped by invalidation
session.subscription_refreshes          counter    subscribed queries re-collected after publish
session.plan_cache_hit_ratio            gauge      plan hits / (hits + plans built)
session.result_cache_hit_ratio          gauge      result hits / queries
stream.upserts                          counter    upsert events accepted, summed over live engines
stream.retractions                      counter    retraction events accepted
stream.reliability_updates              counter    source-reliability change events accepted
stream.flushes                          counter    flush() calls
stream.publishes                        counter    flushes that published into a catalog
stream.empty_flush_skips                counter    quiet flushes that skipped the backend entirely
stream.combinations                     counter    pairwise Dempster combinations performed
stream.refolds                          counter    entity refolds performed
stream.kernel_combinations              counter    stream evidence combinations on the kernel
stream.ingest_lag_events                gauge      events buffered but not yet flushed
stream.watermark_age_seconds            gauge      seconds since the watermark last advanced
stream.source.<name>.events             counter    events ingested from one named source
stream.source.<name>.conflicts          counter    conflicts attributed to one named source
storage.<scheme>.saves                  counter    save_relation/save_database calls per engine
storage.<scheme>.loads                  counter    load_database calls per engine
storage.<scheme>.point_loads            counter    load_relation point reads per engine
storage.<scheme>.write_batches          counter    stream write_batch calls per engine
storage.<scheme>.bytes_written          counter    bytes on disk after mutating calls (delta);
                                                   SQLite stream flushes count the payload bytes
                                                   of the rows they write
storage.<scheme>.save_seconds           histogram  save-side call latency
storage.<scheme>.load_seconds           histogram  load-side call latency
storage.<scheme>.file_bytes             gauge      current on-disk size of the last-touched store
======================================  =========  ==================================================

``<scheme>`` is the backend scheme (``json``/``sqlite``/``log``);
``<name>`` is the caller-chosen stream source name.  Execution is
serial, so there are no ``exec.*`` metrics.  Span names mirror the
layer prefixes: ``session.execute``, ``physical.<op>``, ``stream.flush``,
``storage.<op>``.  A ``physical.<op>`` span covers one plan node
evaluated by :meth:`Plan.execute <repro.query.plans.Plan.execute>` or a
:class:`~repro.session.Session` (``<op>`` is the node's
:attr:`~repro.query.plans.Plan.op`); direct ``repro.algebra`` calls
emit none.
"""

from repro.obs.profile import FlushProfile, NodeProfile, QueryProfile
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.obs.tracing import (
    JsonlSink,
    SpanRecord,
    add_sink,
    enabled,
    remove_sink,
    set_tracing,
    span,
    take_records,
    tracing_scope,
)

__all__ = [
    "Counter",
    "FlushProfile",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NodeProfile",
    "QueryProfile",
    "SpanRecord",
    "add_sink",
    "enabled",
    "registry",
    "remove_sink",
    "set_tracing",
    "span",
    "take_records",
    "tracing_scope",
]
