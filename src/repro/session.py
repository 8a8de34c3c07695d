"""The unified query engine: one cache, two front ends.

A :class:`Session` owns everything between "query" and "result" for a
:class:`repro.storage.Database`:

* **catalog resolution + planning** -- query strings and fluent
  :class:`repro.expr.RelExpr` chains lower into the identical plan IR
  (:mod:`repro.query.plans`) and pass through the same optimizer;
* **a plan cache** keyed on the canonical source (query text or
  expression key), so repeated queries skip parse/bind/optimize;
* **a result cache** keyed on canonical plan fingerprints
  (:mod:`repro.query.fingerprint`), memoized *per subtree*: two queries
  sharing a prefix -- or one query collected twice -- evaluate the
  shared subplan once;
* **targeted invalidation** -- when the catalog changes
  (``add(..., replace=True)``, ``drop``, ...), only the cached plans and
  results that *depend on a changed relation* are evicted, tracked
  through :attr:`repro.storage.Database.version` and
  :meth:`repro.storage.Database.changed_names_since`; caches over
  untouched relations survive;
* **subscriptions** -- :meth:`Session.subscribe` registers a standing
  query that is re-collected after every catalog change affecting it
  (the continuous-query hook the streaming engine drives on each
  flush).

Lifecycle
---------

A session holds its database strongly, and the database holds its
default session (:meth:`repro.storage.Database.session`), so the two
form a reference cycle.  :meth:`repro.storage.Database.close` breaks it
by releasing the default session: a closed database that is dropped
frees its relations and the session's cached results at once, by
reference counting, and the session's counters leave the registry's
``session.*`` totals at the same moment.  A later ``db.session()``
builds a fresh session.  A default session with subscriptions is kept
at close -- its standing queries still refresh on later catalog changes
-- and so is every explicit ``Session(db)``: each lives as long as its
holders, keeping its database alive.

Example::

    session = db.session()
    fluent = session.rel("RA").select(attr("rating").is_({"ex"}))
    sql = "SELECT * FROM RA WHERE rating IS {ex}"
    assert session.fingerprint(fluent) == session.fingerprint(sql)
    session.execute(sql)        # executes
    fluent.collect()            # result-cache hit: same fingerprint
    session.stats().result_cache_hits
    1
"""

from __future__ import annotations

import time

from dataclasses import dataclass

from repro.ds.kernel import STATS as KERNEL_STATS
from repro.errors import PlanError, ReproError
from repro.expr import RelExpr, _Literal, _Rel
from repro.model.relation import ExtendedRelation
from repro.obs import tracing
from repro.obs.profile import NodeProfile, QueryProfile
from repro.obs.registry import registry as _metrics_registry
from repro.query.executor import compile_text
from repro.query.fingerprint import fingerprint as plan_fingerprint
from repro.query.fingerprint import plan_key
from repro.query.planner import optimize
from repro.query.plans import Plan, run_node, scan_names


@dataclass
class SessionStats:
    """Counters a :class:`Session` accumulates (see :meth:`Session.stats`)."""

    queries: int = 0
    plans_built: int = 0
    plan_cache_hits: int = 0
    result_cache_hits: int = 0
    subplan_cache_hits: int = 0
    node_executions: int = 0
    invalidations: int = 0
    entries_invalidated: int = 0
    subscription_refreshes: int = 0

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.queries} queries: {self.plans_built} plans built "
            f"({self.plan_cache_hits} plan hits), "
            f"{self.result_cache_hits} result hits, "
            f"{self.subplan_cache_hits} subplan hits, "
            f"{self.node_executions} nodes executed, "
            f"{self.invalidations} invalidations"
        )


def _plan_cache_hit_ratio() -> float:
    registry = _metrics_registry()
    hits = registry.group_total("session", "plan_cache_hits")
    built = registry.group_total("session", "plans_built")
    return hits / (hits + built) if hits + built else 0.0


def _result_cache_hit_ratio() -> float:
    registry = _metrics_registry()
    hits = registry.group_total("session", "result_cache_hits")
    queries = registry.group_total("session", "queries")
    return hits / queries if queries else 0.0


# Cache-effectiveness gauges over every live session, computed at
# collection time from the attached SessionStats group.
_metrics_registry().gauge(
    "session.plan_cache_hit_ratio",
    help="plan-cache hits / (hits + plans built), over live sessions",
    callback=_plan_cache_hit_ratio,
)
_metrics_registry().gauge(
    "session.result_cache_hit_ratio",
    help="whole-query result-cache hits / queries, over live sessions",
    callback=_result_cache_hit_ratio,
)


@dataclass
class _Compiled:
    plan: Plan
    fingerprint: str
    relations: frozenset


class Subscription:
    """A standing query re-collected after relevant catalog changes.

    Created by :meth:`Session.subscribe`.  :attr:`result` always holds
    the latest collected relation; when a *callback* was given it is
    invoked with each fresh result.  If the query itself fails (e.g.
    the subscribed relation was dropped), the error is recorded on
    :attr:`error` and the previous result is kept, so unrelated catalog
    mutations never blow up in the mutator's stack; a raising
    *callback* is recorded separately on :attr:`callback_error` (the
    result is already fresh at that point, so no retry is needed).
    """

    def __init__(self, session: "Session", query, callback=None):
        self._session = session
        self.query = query
        self.callback = callback
        self.result: ExtendedRelation | None = None
        self.error: Exception | None = None
        self.callback_error: Exception | None = None
        self.refreshes = 0
        self.active = True

    def refresh(self) -> ExtendedRelation | None:
        """Re-collect the query now; returns the fresh result.

        Exceptions are contained (see the class docstring): refreshes
        run inside catalog mutators (``db.add``, a stream engine's
        flush), which must not be broken by subscriber code.
        """
        try:
            self.result = self._session.execute(self.query)
        except ReproError as exc:
            self.error = exc
            return self.result
        self.error = None
        self.refreshes += 1
        self._session._stats.subscription_refreshes += 1
        if self.callback is not None:
            try:
                self.callback(self.result)
                self.callback_error = None
            except Exception as exc:  # noqa: BLE001 -- subscriber code
                self.callback_error = exc
        return self.result

    def cancel(self) -> None:
        """Deregister from the session; no further refreshes happen."""
        self._session.unsubscribe(self)

    def __repr__(self) -> str:
        size = len(self.result) if self.result is not None else "-"
        return (
            f"Subscription({self.query!r}, {self.refreshes} refreshes, "
            f"{size} tuples)"
        )


class Session:
    """A caching query engine bound to one database.

    Accepts *queries* in three shapes everywhere: a query-language
    string, a :class:`repro.expr.RelExpr`, or an already-built
    :class:`repro.query.plans.Plan`.
    """

    def __init__(self, database, max_cache_entries: int = 256):
        self._db = database
        self._max_entries = int(max_cache_entries)
        self._plans: dict[str, _Compiled] = {}
        self._results: dict[str, ExtendedRelation] = {}
        self._result_deps: dict[str, frozenset] = {}
        self._subscriptions: list[Subscription] = []
        self._listening = False
        self._stats = SessionStats()
        # Weakly tracked: the registry sums SessionStats fields over
        # live sessions under the ``session.*`` metric names.
        _metrics_registry().attach("session", self._stats)
        self._epoch = database.version

    @property
    def database(self):
        """The catalog this session plans and executes against."""
        return self._db

    # -- expression entry points --------------------------------------------

    def rel(self, name: str) -> RelExpr:
        """A lazy expression scanning the catalog relation *name*.

        The name is resolved eagerly so typos fail here, with the
        catalog's "did you mean" hint, rather than at collect time.
        """
        self._db.get(name)
        return RelExpr(self, _Rel(name))

    def from_relation(self, relation: ExtendedRelation) -> RelExpr:
        """A lazy expression over an ad-hoc (non-catalog) relation."""
        return RelExpr(self, _Literal(relation))

    # -- planning -----------------------------------------------------------

    def plan(self, query) -> Plan:
        """The optimized logical plan of *query* (cached)."""
        self._sync()
        return self._compile(query).plan

    def fingerprint(self, query) -> str:
        """The canonical fingerprint of *query*'s optimized plan."""
        self._sync()
        return self._compile(query).fingerprint

    def explain(self, query) -> str:
        """The optimized logical plan of *query*, as indented text."""
        self._sync()
        return self._compile(query).plan.describe()

    # -- execution ----------------------------------------------------------

    def execute(self, query) -> ExtendedRelation:
        """Plan (or reuse) and run *query* through the result cache."""
        self._sync()
        self._stats.queries += 1
        compiled = self._compile(query)
        if not tracing.enabled():
            return self._run(compiled.plan, root=True)
        with tracing.span(
            "session.execute", fingerprint=compiled.fingerprint
        ) as current:
            result = self._run(compiled.plan, root=True)
            current.note(rows=len(result))
            return result

    def explain_analyze(self, query) -> QueryProfile:
        """Execute *query* and return the plan annotated with measurements.

        Every node is evaluated exactly as :meth:`execute` would, but
        *bypassing the result caches*, so the timings measure real work.
        Each :class:`~repro.obs.profile.NodeProfile` carries the node's
        wall time, exact input/output row counts and the exact evidence
        combination count.  The session's caches and stats are
        untouched.
        """
        self._sync()
        compiled = self._compile(query)
        start = time.perf_counter()
        _, root = self._profile_node(compiled.plan)
        wall = time.perf_counter() - start
        text = query if isinstance(query, str) else compiled.plan.label()
        return QueryProfile(
            query=text,
            root=root,
            wall_seconds=wall,
        )

    def _profile_node(self, plan: Plan) -> tuple[ExtendedRelation, NodeProfile]:
        child_results = []
        child_profiles = []
        for child in plan.children():
            result, profile = self._profile_node(child)
            child_results.append(result)
            child_profiles.append(profile)
        inputs = tuple(child_results)
        kernel_baseline = KERNEL_STATS.snapshot()
        start = time.perf_counter()
        result = run_node(plan, inputs, self._db)
        wall = time.perf_counter() - start
        kernel_delta = KERNEL_STATS.since(kernel_baseline)
        profile = NodeProfile(
            label=plan.label(),
            rows_in=tuple(len(relation) for relation in inputs),
            rows_out=len(result),
            wall_seconds=wall,
            kernel_combinations=kernel_delta.kernel_combinations,
            children=tuple(child_profiles),
        )
        return result, profile

    def collect_all(self, queries) -> list[ExtendedRelation]:
        """Execute many queries, sharing results of common subplans.

        Subtree results are memoized by fingerprint, so a prefix shared
        between any two queries in the batch (or with anything executed
        earlier in this session) is evaluated only once.
        """
        self._sync()
        results = []
        for query in queries:
            self._stats.queries += 1
            results.append(self._run(self._compile(query).plan, root=True))
        return results

    # -- subscriptions ------------------------------------------------------

    def subscribe(self, query, callback=None, eager: bool = True) -> Subscription:
        """Register a standing *query*, re-collected after catalog changes.

        The query may be a string, a :class:`RelExpr` or a plan, exactly
        as for :meth:`execute`.  After any catalog mutation that touches
        a relation the query depends on (a streaming engine's flush, a
        ``replace`` or ``drop``), the subscription re-executes and --
        when a *callback* was given -- calls ``callback(result)``.  With
        *eager* (the default) the query runs once immediately; with
        ``eager=False`` it stays uncollected until the first catalog
        change touching one of its relations.
        """
        subscription = Subscription(self, query, callback)
        self._subscriptions.append(subscription)
        if not self._listening:
            self._db.add_listener(self._on_catalog_change)
            self._listening = True
        if eager:
            subscription.refresh()
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Deregister *subscription*; stops listening when none remain."""
        if subscription in self._subscriptions:
            self._subscriptions.remove(subscription)
        subscription.active = False
        if not self._subscriptions and self._listening:
            self._db.remove_listener(self._on_catalog_change)
            self._listening = False

    def subscriptions(self) -> tuple[Subscription, ...]:
        """The currently registered subscriptions."""
        return tuple(self._subscriptions)

    def _on_catalog_change(self, names) -> None:
        """Database listener: refresh subscriptions the change affects.

        *names* -- the relations mutated since the last notification
        (one for a plain add/drop, several for a batched bulk load, see
        :meth:`repro.storage.Database.batch`) -- are folded into the
        changed set because brand-new names are absent from
        ``changed_names_since`` (they cannot stale a cache), yet they
        are exactly what an ``eager=False`` subscription awaiting its
        relation's first publish depends on.  A bulk load thus triggers
        one sweep, and each affected subscription refreshes once.
        """
        changed = self._db.changed_names_since(self._epoch) | frozenset(names)
        self._sync()
        affected: list[Subscription] = []
        for subscription in list(self._subscriptions):
            if subscription.error is not None:
                # Broken by an earlier change (e.g. its relation was
                # dropped): retry on any mutation, so a drop + re-add --
                # which surfaces as a plain add with no changed names --
                # recovers the subscription.
                affected.append(subscription)
                continue
            try:
                dependencies = self._compile(subscription.query).relations
            except ReproError as exc:
                subscription.error = exc
                continue
            if dependencies & changed:
                # Covers never-collected (eager=False) subscriptions
                # too: they wait, untouched, until a dependency changes.
                affected.append(subscription)
        self._refresh_batch(affected)

    def _refresh_batch(self, affected: list[Subscription]) -> None:
        """Refresh the affected subscriptions, grouped by compiled plan.

        Subscriptions over the same query (same plan fingerprint)
        refresh back to back, so every group-mate after the first hits
        the still-warm result cache, and each distinct query executes
        once per sweep.  Refresh order stays registration order within a
        group and first-member-registration order across groups, so
        callbacks fire in a deterministic sequence.
        """
        groups: dict[str, list[Subscription]] = {}
        for subscription in affected:
            try:
                fingerprint = self._compile(subscription.query).fingerprint
            except ReproError:
                # Still uncompilable (e.g. its relation stayed dropped):
                # refresh alone so the error lands on the subscription.
                fingerprint = f"?{id(subscription)}"
            groups.setdefault(fingerprint, []).append(subscription)
        for group in groups.values():
            for subscription in group:
                subscription.refresh()

    # -- cache management ---------------------------------------------------

    def stats(self) -> SessionStats:
        """The accumulated counters (live object, not a copy)."""
        return self._stats

    def cache_info(self) -> dict[str, int]:
        """Current cache sizes, for quick inspection."""
        return {"plans": len(self._plans), "results": len(self._results)}

    def clear_cache(self) -> None:
        """Drop both caches (stats are kept)."""
        self._plans.clear()
        self._results.clear()
        self._result_deps.clear()

    # -- internals ----------------------------------------------------------

    def _sync(self) -> None:
        """Evict cache entries stale against the current catalog.

        Invalidation is *targeted*: only entries whose plan scans one of
        the relations changed since this session's epoch are dropped.
        Queries over untouched relations keep their cached plans and
        results across the change.
        """
        if self._db.version == self._epoch:
            return
        changed = self._db.changed_names_since(self._epoch)
        self._epoch = self._db.version
        evicted = 0
        if changed:
            for source_key, compiled in list(self._plans.items()):
                if compiled.relations & changed:
                    del self._plans[source_key]
                    evicted += 1
            for result_key in list(self._results):
                if self._result_deps.get(result_key, frozenset()) & changed:
                    del self._results[result_key]
                    self._result_deps.pop(result_key, None)
                    evicted += 1
        else:
            # A version bump without change records (only possible with
            # a hand-rolled catalog): fall back to a full flush.
            evicted = len(self._plans) + len(self._results)
            self.clear_cache()
        if evicted:
            self._stats.invalidations += 1
            self._stats.entries_invalidated += evicted

    def _compile(self, query) -> _Compiled:
        if isinstance(query, str):
            source_key = f"sql::{query}"
        elif isinstance(query, RelExpr):
            source_key = f"expr::{query.key()}"
        elif isinstance(query, Plan):
            # Raw plans are caller-managed; fingerprint but don't cache.
            return _Compiled(query, plan_fingerprint(query), scan_names(query))
        else:
            raise PlanError(
                f"cannot plan {query!r} (expected a query string, a "
                "RelExpr, or a Plan)"
            )
        cached = self._plans.get(source_key)
        if cached is not None:
            self._stats.plan_cache_hits += 1
            return cached
        if isinstance(query, str):
            plan = compile_text(query, self._db)
        else:
            plan = optimize(query.lower(self._db))
        compiled = _Compiled(plan, plan_fingerprint(plan), scan_names(plan))
        self._stats.plans_built += 1
        self._remember(self._plans, source_key, compiled)
        return compiled

    def _run(self, plan: Plan, root: bool = False) -> ExtendedRelation:
        key = plan_key(plan)
        cached = self._results.get(key)
        if cached is not None:
            if root:
                self._stats.result_cache_hits += 1
            else:
                self._stats.subplan_cache_hits += 1
            return cached
        inputs = tuple(self._run(child) for child in plan.children())
        result = run_node(plan, inputs, self._db)
        self._stats.node_executions += 1
        self._remember(self._results, key, result)
        self._result_deps[key] = scan_names(plan)
        return result

    def _remember(self, cache: dict, key, value) -> None:
        """Insert with FIFO eviction at the cache-size cap."""
        if len(cache) >= self._max_entries:
            oldest = next(iter(cache))
            cache.pop(oldest)
            if cache is self._results:
                self._result_deps.pop(oldest, None)
        cache[key] = value

    def __repr__(self) -> str:
        return (
            f"Session({self._db.name!r}, {len(self._plans)} cached plans, "
            f"{len(self._results)} cached results)"
        )
