"""The three workloads: one caller, closed loop, default serial executor.

Each workload builds its inputs from ``repro.datasets.generators`` and
the run's seed, times its operations through a :class:`Context`, and
checks its outputs afterwards (:mod:`checks`).  A *pass* is a fixed
sequence of operations; a run repeats passes until its time is up, and
the first pass of every run is the same work for a given seed, so its
counter deltas must repeat exactly.

``integrate``
    An operation integrates a fresh federation of three float-mass
    sources with ``Federation.integrate`` and persists the result to a
    new SQLite store.  Each operation's set-up generates its own inputs,
    so no cache carries over between operations.
``stream``
    Set-up writes a JSONL file of float upserts, re-upserts, retracts
    and reliability changes from three sources.  A pass replays it
    through ``read_events`` -> ``apply_event`` into a ``StreamEngine``
    with a SQLite backend; an operation is one batch of events plus its
    flush.  Rejected events are counted, never filtered out.
``query``
    Set-up persists two exact-``Fraction`` relations to SQLite.  A pass
    is one client session: ``Database.open`` (lazy catalog), then a
    fixed mix of selections, projections and fluent unions; an
    operation is one query.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time

from collections import Counter
from dataclasses import replace
from pathlib import Path

from checks import (
    CheckFailed,
    canonical_digest,
    check_masses_sum_to_one,
    check_same_relation,
)
from layers import counter_delta, instance_counts, registry_counters, self_times
from repro.algebra.predicates import attr
from repro.algebra.thresholds import sn_at_least
from repro.datasets.generators import (
    SyntheticConfig,
    synthetic_pair,
    synthetic_schema,
)
from repro.errors import ReproError
from repro.integration import Federation, TupleMerger
from repro.obs import span
from repro.storage.backends import create_database, open_backend
from repro.storage.database import Database
from repro.stream import (
    StreamEngine,
    apply_event,
    read_events,
    relation_to_events,
    write_events,
)
from repro.stream.connectors import ReliabilityEvent, RetractEvent

SOURCES = ("s0", "s1", "s2")
RELIABILITIES = (1, 0.9, 0.8)


class Context:
    """The clock, the stop rule and the per-pass tallies of one run."""

    def __init__(self, clock):
        self.clock = clock
        self.deadline = float("inf")
        self.min_ops = 0
        self.passes_done = 0
        self.tracer = None
        #: ``(segment index, {metric: raw self seconds})`` per traced segment.
        self.layer_times: list[tuple[int, dict]] = []
        #: ``(segment index, work units)`` per operation.
        self.samples: list[tuple[int, int]] = []
        self.ops = 0
        self.failed_ops = 0
        #: Exception types of failed operations and rejected events.
        self.errors: Counter = Counter()
        #: Work items attempted / rejected (events on ``stream``,
        #: operations elsewhere): the base of ``accepted_ratio``.
        self.items_attempted = 0
        self.items_rejected = 0
        self.begin_pass()

    # -- passes ---------------------------------------------------------------

    def begin_pass(self) -> None:
        """Start counting a pass: counts, stats objects, registry."""
        self.counts: Counter = Counter()
        self.stats_objects: list = []
        self._setup_registry: Counter = Counter()
        self._registry_before = registry_counters()

    def pass_counts(self) -> dict:
        """Registry deltas (set-up excluded), instance stats and the
        workload's and wrappers' own counts for the current pass."""
        counts = Counter(counter_delta(self._registry_before, registry_counters()))
        counts.subtract(self._setup_registry)
        counts.update(instance_counts(self.stats_objects))
        counts.update(self.counts)
        if self.tracer is not None:
            counts.update(self.tracer.calls)
        return {name: value for name, value in sorted(counts.items()) if value}

    def stop(self) -> bool:
        """Whether the run has measured long enough (never in pass 0)."""
        return (
            self.passes_done >= 1
            and self.ops >= self.min_ops
            and time.perf_counter() >= self.deadline
        )

    # -- timed segments -------------------------------------------------------

    def setup(self, fn, group: int):
        """Run *fn* as set-up: timed, but outside every operation and
        outside the pass's counts."""
        before = registry_counters()
        calls = Counter(self.tracer.calls) if self.tracer is not None else None
        result = self.clock.run("setup", fn, group=group)
        after = registry_counters()
        for name, value in after.items():
            self._setup_registry[name] += value - before.get(name, 0)
        if self.tracer is not None:
            self.tracer.take()
            self.tracer.calls.subtract(self.tracer.calls - calls)
        return result

    def busy(self, fn):
        """Run *fn* as operation overhead: it counts toward throughput
        but is not an operation (opening a client session)."""
        return self._timed("busy", fn)

    def op(self, fn, units):
        """Run *fn* as one operation of *units* work units (an int, or a
        callable mapping the result to one).  A ``ReproError`` counts the
        operation failed and returns None."""
        outcome: dict = {}

        def body():
            try:
                outcome["result"] = fn()
            except ReproError as exc:
                outcome["error"] = exc

        self._timed("op", body)
        self.ops += 1
        if "error" in outcome:
            self.failed_ops += 1
            self.errors[type(outcome["error"]).__name__] += 1
            self.samples.append((len(self.clock.segments) - 1, 0))
            return None
        result = outcome["result"]
        count = units(result) if callable(units) else units
        self.samples.append((len(self.clock.segments) - 1, count))
        return result

    def _timed(self, kind: str, fn):
        if self.tracer is None:
            return self.clock.run(kind, fn)

        def traced():
            with span("bench.op"):
                return fn()

        result = self.clock.run(kind, traced)
        self.layer_times.append(
            (len(self.clock.segments) - 1, self_times(self.tracer.take()))
        )
        return result


def _float_sources(seed: int, entities: int, overlap: float):
    """Three float-mass sources: ``s0``/``s1`` are one synthetic pair
    (``s1`` perturbs ``s0`` at conflict 0.3), ``s2`` the right side of a
    second pair, so its evidence is independent of ``s0``'s."""
    config = SyntheticConfig(
        n_tuples=entities, overlap=overlap, conflict=0.3, exact=False, seed=seed
    )
    s0, s1 = synthetic_pair(config, "s0", "s1")
    _, s2 = synthetic_pair(replace(config, seed=seed + 1), "t0", "s2")
    return s0, s1, s2


def _store_url(path: Path) -> str:
    return f"sqlite:{path}"


# -- integrate ----------------------------------------------------------------


class Integrate:
    """Federation.integrate + Database.persist on fresh inputs."""

    name = "integrate"
    unit = "entities"
    ENTITIES = 200
    OVERLAP = 0.8
    PASS_OPS = 25
    setup_reps = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.digests: dict[int, str] = {}
        self.stored_bytes = 0
        self.stored_rows = 0

    def sources(self, index: int):
        """The three sources of operation *index* (distinct per index)."""
        return _float_sources(
            self.seed * 1_000_003 + 2 * index, self.ENTITIES, self.OVERLAP
        )

    def integrate(self, sources):
        federation = Federation(TupleMerger(on_conflict="vacuous"))
        for name, relation, reliability in zip(SOURCES, sources, RELIABILITIES):
            federation.add_source(name, relation, reliability)
        return federation.integrate(name="F")

    def run_pass(self, ctx: Context, pass_index: int) -> None:
        first = pass_index * self.PASS_OPS
        for index in range(first, first + self.PASS_OPS):
            if ctx.stop():
                return
            self.run_op(ctx, index)
        ctx.passes_done += 1

    def run_op(self, ctx: Context, index: int) -> None:
        path = self.workdir / f"integrate-{index}.db"

        def prepare():
            return self.sources(index), create_database(_store_url(path), "bench")

        sources, database = ctx.setup(prepare, group=index)

        def operation():
            relation, report = self.integrate(sources)
            database.add(relation)
            database.persist()
            database.close()
            return relation, report

        outcome = ctx.op(operation, lambda result: len(result[0]))
        ctx.items_attempted += 1
        if outcome is None:
            ctx.items_rejected += 1
            database.close()
            path.unlink(missing_ok=True)
            return
        relation, report = outcome
        ctx.counts["integration.conflicts"] += sum(
            len(step.conflicts) for _, step in report.steps
        )
        check_masses_sum_to_one(relation, f"integrate op {index}")
        if index < self.PASS_OPS:
            digest = canonical_digest(relation)
            if self.digests.setdefault(index, digest) != digest:
                raise CheckFailed(f"integrate op {index} gave two digests")
        self.stored_bytes += path.stat().st_size
        self.stored_rows += len(relation)
        path.unlink()

    def check(self) -> dict:
        """Operation 0 integrated again from freshly generated inputs must
        give the digest it gave during the run."""
        relation, _ = self.integrate(self.sources(0))
        again = canonical_digest(relation)
        if again != self.digests[0]:
            raise CheckFailed(
                f"integrating the inputs of op 0 again gave digest {again}, "
                f"not {self.digests[0]}"
            )
        return {"digests": [self.digests[i] for i in sorted(self.digests)]}


# -- stream -------------------------------------------------------------------


class Stream:
    """JSONL replay into a StreamEngine with a SQLite backend."""

    name = "stream"
    unit = "events"
    ENTITIES = 500
    OVERLAP = 0.8
    RE_UPSERTS = 500
    RETRACTS = 95
    BATCH = 50
    setup_reps = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        #: ``(path, event count)`` of each set-up's event file.
        self.files: list[tuple[Path, int]] = []
        self.checked = None
        self.stored_bytes = 0
        self.stored_rows = 0
        self._engines = 0

    def events(self, variant: int) -> list:
        """One event stream: reliabilities first, then the three sources'
        upserts interleaved, then re-upserts of existing keys mixed with
        retracts; two reliability changes ride in the middle."""
        rng = random.Random(f"e2ebench/stream/{self.seed}/{variant}")
        base = (self.seed * 1000 + variant) * 1_000_003
        sources = _float_sources(base, self.ENTITIES, self.OVERLAP)
        per_source = [
            relation_to_events(relation, name)
            for name, relation in zip(SOURCES, sources)
        ]
        events: list = [
            ReliabilityEvent(name, reliability)
            for name, reliability in zip(SOURCES, RELIABILITIES)
        ]
        for position in range(self.ENTITIES):
            events.extend(batch[position] for batch in per_source)
            if position == self.ENTITIES // 3:
                events.append(ReliabilityEvent("s1", 0.85))
        fresh = _float_sources(base + 2, self.ENTITIES, self.OVERLAP)
        reupserts = [
            event
            for name, relation in zip(SOURCES[:2], fresh[:2])
            for event in relation_to_events(relation, name)
        ]
        rng.shuffle(reupserts)
        reupserts = reupserts[: self.RE_UPSERTS]
        retract_keys = rng.sample(sorted(sources[2].keys()), self.RETRACTS)
        retracts = [RetractEvent("s2", key) for key in retract_keys]
        every = len(reupserts) // len(retracts)
        for position, event in enumerate(reupserts):
            events.append(event)
            if position % every == every - 1 and retracts:
                events.append(retracts.pop())
            if position == len(reupserts) // 2:
                events.append(ReliabilityEvent("s2", 0.75))
        events.extend(retracts)
        return events

    def new_engine(self):
        self._engines += 1
        path = self.workdir / f"stream-{self._engines}.db"
        engine = StreamEngine(
            synthetic_schema(SyntheticConfig(exact=False), "F"),
            name="F",
            merger=TupleMerger(on_conflict="vacuous"),
            backend=open_backend(_store_url(path)),
        )
        return engine, path

    def setup(self, ctx: Context, rep: int) -> None:
        """Set-up number *rep* writes event file *rep*; passes cycle
        through the files, so one run averages over several streams."""
        events = ctx.setup(lambda: self.events(rep), group=rep)
        events_path = self.workdir / f"events-{rep}.jsonl"
        count = ctx.setup(lambda: write_events(events, events_path), group=rep)
        self.files.append((events_path, count))
        engine, path = ctx.setup(self.new_engine, group=rep)
        engine.backend.close()
        path.unlink()

    def run_pass(self, ctx: Context, pass_index: int) -> None:
        events_path, event_count = self.files[pass_index % len(self.files)]
        engine, path = self.new_engine()
        ctx.stats_objects.append(("stream", engine.stats()))
        events = read_events(events_path)
        try:
            for first in range(0, event_count, self.BATCH):
                if ctx.stop():
                    return
                size = min(self.BATCH, event_count - first)

                def batch():
                    rejected = 0
                    for event in itertools.islice(events, size):
                        try:
                            apply_event(engine, event)
                        except ReproError as exc:
                            rejected += 1
                            ctx.errors[type(exc).__name__] += 1
                    engine.flush()
                    return rejected

                rejected = ctx.op(batch, size)
                if rejected is None:
                    # The flush failed: none of the batch was published.
                    rejected = size
                ctx.items_attempted += size
                ctx.items_rejected += rejected
                ctx.counts["stream.events_accepted"] += size - rejected
                ctx.counts["stream.events_rejected"] += rejected
            ctx.passes_done += 1
            if self.checked is None:
                self.check_engine(engine, path)
        finally:
            events.close()
            engine.backend.close()
            path.unlink()

    def check_engine(self, engine, path: Path) -> None:
        """The replayed relation equals ``Federation.integrate`` over the
        sources' final snapshots at their final reliabilities."""
        federation = Federation(TupleMerger(on_conflict="vacuous"))
        for name in engine.sources():
            federation.add_source(
                name, engine.source_snapshot(name), engine.reliability(name)
            )
        expected, _ = federation.integrate(name="F")
        check_same_relation(engine.relation, expected, "stream final relation")
        check_masses_sum_to_one(engine.relation, "stream final relation")
        self.stored_bytes = path.stat().st_size
        self.stored_rows = len(engine.relation)
        self.checked = {
            "final_rows": len(engine.relation),
            "digest": canonical_digest(engine.relation),
        }

    def check(self) -> dict:
        if self.checked is None:
            raise CheckFailed("stream: no complete pass was checked")
        return dict(self.checked, events_per_pass=self.files[0][1])


# -- query --------------------------------------------------------------------


class Query:
    """Client sessions over a persisted exact database."""

    name = "query"
    unit = "queries"
    ENTITIES = 1000
    OVERLAP = 0.6
    SELECT_SN = 24
    SELECT_SP = 9
    UNIONS = 6
    #: Kinds of the queries a session sends again (a quarter of its 60), so
    #: that the result cache answers them.
    REPEATS = ("sn",) * 7 + ("sp",) * 3 + ("project",) * 3 + ("union",) * 2
    setup_reps = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.url = None
        self.queries = self.query_mix()
        self.first_digests: list = []
        self.sessions = 0
        self.stored_bytes = 0
        self.stored_rows = 0

    def query_mix(self) -> list:
        """One session's 60 queries: text, or a tuple naming a fluent
        union.  The seed picks predicates, thresholds and the order; the
        number of each kind, and of repeats, is fixed."""
        rng = random.Random(f"e2ebench/query/{self.seed}")
        categories = [f"c{i}" for i in range(12)]
        scores = [str(i) for i in range(12)]

        def threshold():
            return f"{rng.randint(1, 19) * 0.05:.2f}"

        fresh = []
        for index in range(self.SELECT_SN):
            members = ", ".join(rng.sample(categories, index % 3 + 1))
            fresh.append(
                (
                    "sn",
                    f"SELECT id, category FROM {'LR'[index % 2]} WHERE category "
                    f"IS {{{members}}} WITH SN >= {threshold()}",
                )
            )
        for index in range(self.SELECT_SP):
            members = ", ".join(rng.sample(scores, index % 4 + 1))
            fresh.append(
                (
                    "sp",
                    f"SELECT * FROM {'LR'[index % 2]} WHERE score IS "
                    f"{{{members}}} WITH SP >= {threshold()}",
                )
            )
        for column in ("category", "score", "label"):
            for relation in "LR":
                fresh.append(("project", f"SELECT id, {column} FROM {relation}"))
        fresh.append(("union", ("union",)))
        for _ in range(self.UNIONS - 1):
            pair = tuple(sorted(rng.sample(categories, 2)))
            fresh.append(("union", ("union", pair, threshold())))
        rng.shuffle(fresh)
        mix = list(fresh)
        for kind in self.REPEATS:
            original = rng.choice(
                [index for index, (k, _) in enumerate(mix) if k == kind]
            )
            mix.insert(rng.randint(original + 1, len(mix)), mix[original])
        return [spec for _, spec in mix]

    @staticmethod
    def run_query(database, spec):
        if isinstance(spec, str):
            return database.query(spec)
        session = database.session()
        union = session.rel("L").union(session.rel("R"), on_conflict="vacuous")
        if len(spec) > 1:
            (first, second), threshold = spec[1], spec[2]
            union = union.select(
                attr("category").is_({first, second}), sn_at_least(threshold)
            )
        return union.collect()

    def relations(self):
        config = SyntheticConfig(
            n_tuples=self.ENTITIES, overlap=self.OVERLAP, exact=True, seed=self.seed
        )
        return synthetic_pair(config, "L", "R")

    def build_store(self, rep: int) -> None:
        relations = self.relations()
        path = self.workdir / f"query-{rep}.db"
        database = create_database(_store_url(path), "bench")
        database.add_all(relations)
        database.persist()
        database.close()
        Database.open(_store_url(path)).close()
        self.url = _store_url(path)
        self.stored_bytes = path.stat().st_size
        self.stored_rows = sum(len(relation) for relation in relations)

    def setup(self, ctx: Context, rep: int) -> None:
        ctx.setup(lambda: self.build_store(rep), group=rep)

    def run_pass(self, ctx: Context, pass_index: int) -> None:
        """One session.  Answers are kept as digests only: holding them
        would grow the heap every later garbage collection walks."""
        database = ctx.busy(lambda: Database.open(self.url))
        try:
            ctx.stats_objects.append(("session", database.session().stats()))
            for index, spec in enumerate(self.queries):
                if ctx.stop():
                    return
                answer = ctx.op(lambda: self.run_query(database, spec), 1)
                ctx.items_attempted += 1
                digest = None if answer is None else canonical_digest(answer)
                if self.sessions == 0:
                    self.first_digests.append(digest)
                if answer is None:
                    ctx.items_rejected += 1
                elif digest != self.first_digests[index]:
                    raise CheckFailed(
                        f"query {index} of session {self.sessions} differs "
                        f"from the same query in session 0: {spec!r}"
                    )
            ctx.passes_done += 1
            self.sessions += 1
        finally:
            ctx.busy(database.close)

    def check(self) -> dict:
        """Session 0's answers equal the same queries on an in-memory
        database built from the same relations (later sessions were
        compared with session 0 as they ran)."""
        reference = Database("reference")
        reference.add_all(self.relations())
        for index, spec in enumerate(self.queries):
            if canonical_digest(self.run_query(reference, spec)) != (
                self.first_digests[index]
            ):
                raise CheckFailed(
                    f"query {index} ({spec!r}) read from SQLite differs from "
                    f"the in-memory answer"
                )
        digest = hashlib.sha256("".join(self.first_digests).encode())
        return {
            "sessions": self.sessions,
            "queries_per_session": len(self.queries),
            "answer_digest": digest.hexdigest(),
        }


WORKLOADS = {workload.name: workload for workload in (Integrate, Stream, Query)}
