#!/usr/bin/env python3
"""Quickstart: resolve attribute conflicts between two databases.

This walks the paper's core loop with the fluent lazy API:

1. load the two news agencies' restaurant relations (Table 1),
2. integrate them with the extended union (Dempster's rule, Table 4),
3. query with composable expressions -- nothing runs until collect(),
   and the session caches plans and results across queries,
4. stream the same evidence incrementally: a StreamEngine folds
   per-source events into the integrated relation exactly (Dempster's
   rule is associative), publishes on flush, and re-collects
   subscribed queries,
5. inspect the compact evidence kernel that runs underneath it all,
6. look at the optimized plan: the optimizer rewrites each query, and
   every plan node calls its algebra operation in one exact serial
   pass,
7. persist everything through a pluggable storage backend (json /
   sqlite / append-only log), with write-ahead durability for streams,
8. watch it all through the unified telemetry layer (repro.obs):
   the process-wide metrics registry, EXPLAIN ANALYZE query profiles
   and structured tracing spans,
9. check the correctness invariants behind all of the above with the
   built-in static analyzer (python -m repro.analysis).

Run:  python examples/quickstart.py
"""

import tempfile
from pathlib import Path

from repro import (
    Database,
    StreamEngine,
    attr,
    create_database,
    format_relation,
    open_backend,
    sn_at_least,
    table_ra,
    table_rb,
)


def main() -> None:
    # The two source relations (Table 1 of the paper).  Attribute values
    # are *evidence sets*: mass assignments over sets of domain values
    # derived from reviewer votes; each tuple carries an (sn, sp)
    # membership pair.
    db = Database("tourist_bureau")
    db.add(table_ra())
    db.add(table_rb())
    print(format_relation(db.get("RA"), title="R_A (Minnesota Daily)"))
    print()
    print(format_relation(db.get("RB"), title="R_B (Star Tribune)"))
    print()

    # Attribute-value conflict resolution = the extended union: tuples
    # matched on the key have every attribute (and the membership)
    # pooled with Dempster's rule of combination.  `union` here is an
    # expression -- lazy until collected.
    integrated = db.rel("RA").union(db.rel("RB"))
    print(
        format_relation(
            integrated.collect(), title="Integrated (Table 4 of the paper)"
        )
    )
    print()

    # Query processing returns answers with a full range of certainty --
    # one result set, graded by the revised (sn, sp), instead of
    # DeMichiel's separate true/may-be sets.  The chain below reuses the
    # union subplan just collected: the session caches subtree results
    # by plan fingerprint.
    excellent = (
        integrated
        .select(attr("rating").is_({"ex"}), sn_at_least("1/2"))
        .project("rname", "rating")
    )
    print("Optimized plan:")
    print(excellent.explain())
    print()
    print("Restaurants rated excellent with sn >= 0.5:")
    for row in excellent.collect():
        print(
            f"  {row.key()[0]:<10} rating={row.evidence('rating').format()} "
            f"(sn,sp)={row.membership.format(style='decimal')}"
        )
    print()

    # The SQL front end lowers into the identical plans (and shares the
    # same caches -- note the subplan hits in the session stats).
    same = db.query(
        "SELECT rname, rating FROM (RA UNION RB) WHERE rating IS {ex} WITH SN >= 0.5"
    )
    assert same.same_tuples(excellent.collect())
    print(f"session: {db.session().stats().summary()}")
    print()

    # Streaming integration: the same result, built incrementally.
    # Each upsert folds one tuple of evidence into the entity's cached
    # combined state (a single Dempster combination); flush() publishes
    # the integrated relation into the catalog and re-collects any
    # subscribed queries.
    engine = StreamEngine(db.get("RA").schema, name="R_LIVE", database=db)
    for etuple in table_ra():
        engine.upsert("daily", etuple)
    engine.flush()

    watching = db.session().subscribe(
        "SELECT rname, rating FROM R_LIVE WHERE rating IS {ex} WITH SN >= 0.5"
    )
    print(f"subscribed after source 1: {len(watching.result)} excellent")

    for etuple in table_rb():
        engine.upsert("tribune", etuple)
    delta = engine.flush()  # publishes + refreshes the subscription
    print(f"after source 2, {delta.summary()}")
    print(f"subscription now sees {len(watching.result)} excellent")
    assert engine.relation.same_tuples(integrated.collect())
    assert watching.result.same_tuples(excellent.collect())
    print(f"stream: {engine.stats().summary()}")
    print()

    # The evidence kernel.  Every combination above ran on the compact
    # kernel (repro.ds.kernel): because `rating` is an *enumerated*
    # domain, its frame is interned -- each value gets a bit position --
    # and focal elements become int bitmasks, so Dempster's pairwise
    # intersections are bitwise-ANDs instead of frozenset operations.
    # Evidence over open domains (text, numerics) compiles the same way
    # over the values it mentions, plus a residual bit for the rest of
    # the domain.  Compilation is lazy (the first combination or belief
    # query triggers it) and purely representational: exact Fractions
    # stay exact.  Inspect any value via `is_compiled`:
    sample = next(iter(engine.relation))
    rating = sample.evidence("rating")
    print(f"{sample.key()[0]} rating evidence compiled? {rating.is_compiled}")
    print(f"compiled form: {rating.mass_function.compiled()!r}")

    from repro.ds import kernel_stats

    print(kernel_stats().summary())
    print()

    # Execution.  The paper's operators work per entity (definite keys
    # identify real-world entities; merges never mix entities), so one
    # serial pass is already exact.  The optimizer rewrites each plan
    # (selection fusion and pushdown, projection pruning), and every
    # plan node evaluates by calling its algebra operation;
    # session.explain shows the optimized plan, as
    # `repro query DB --explain` does.
    from repro.session import Session

    # A fresh session, so the query below really re-executes (the
    # default session would serve its cached result).
    session = Session(db)
    print(session.explain("RA UNION RB BY (rname)"))
    again = session.execute("RA UNION RB BY (rname)")
    assert again.same_tuples(integrated.collect())
    assert list(again.keys()) == list(integrated.collect().keys())
    # Persistence is adaptive too: sqlite stream flushes write only
    # the rows the batch changed, addressed by entity key (bytes written
    # scale with the *delta*, watch storage.sqlite.bytes_written), and
    # quiet flushes skip the backend entirely.  A log: journal grows
    # until `repro compact DB` folds its history away.
    print()

    # Persistence & backends.  Storage locations are URLs -- `json:`
    # (one human-readable file per database, the historical format),
    # `sqlite:` (one row per tuple: single relations load without
    # parsing the rest), `log:`
    # (append-only JSONL journal) -- or bare paths resolved by the
    # REPRO_STORAGE environment variable and the file extension.  Every
    # engine stores rows through one codec and round-trips relations
    # bit-for-bit: exact masses, memberships and scalar values stay
    # Fractions, floats survive via shortest repr, tuple order and
    # domains are preserved.  (Bracket notation rendered for display,
    # as relation_to_events writes it, rounds float masses.)  Pick json for portability and small catalogs,
    # sqlite for point reads into big catalogs, log for audit trails
    # and durable streams.
    with tempfile.TemporaryDirectory() as scratch:
        store = create_database(f"sqlite:{Path(scratch) / 'fed.sqlite'}", "fed")
        store.add(table_ra())
        store.add(engine.relation)
        store.persist()                       # whole catalog, one version bump
        reopened = Database.open(store.backend.url())
        assert reopened.get("RA") == table_ra()
        # ... and the sqlite engine reads one relation without
        # deserializing the rest of the database:
        hot = reopened.backend.load_relation("R_LIVE")
        assert hot.same_tuples(engine.relation)
        print(f"reopened {reopened.backend.describe()}")
        reopened.close()
        store.close()

        # Streams become durable by attaching a backend: each flush
        # writes the batch ahead of publishing.  A log: backend keeps a
        # write-ahead event journal whose replay rebuilds the engine --
        # relation, per-source state, watermark -- exactly.
        wal = open_backend(f"log:{Path(scratch) / 'wal.jsonl'}")
        durable = StreamEngine(table_ra().schema, name="R_WAL", backend=wal)
        for etuple in table_ra():
            durable.upsert("daily", etuple)
        durable.flush()
        recovered = wal.recover_stream("R_WAL")   # e.g. after a crash
        assert recovered.relation == durable.relation
        assert recovered.watermark == durable.watermark == 6
        print(
            f"recovered stream 'R_WAL' at watermark {recovered.watermark} "
            f"from {wal.url()}"
        )
        wal.close()
    print()

    # Observability & profiling.  Everything above was also *measured*:
    # each layer keeps thread-local counters and registers them with the
    # process-wide metrics registry (repro.obs), so one snapshot covers
    # kernel combinations, session caches, stream
    # ingest and per-backend storage I/O.  The same data is exported by
    # `repro stats [DB] [--json|--prometheus]` and the repl's `:stats`.
    from repro import registry, span, tracing_scope
    from repro.obs import take_records

    snapshot = registry().collect()
    print(f"metrics registry: {len(snapshot)} instruments, e.g.")
    for name in ("kernel.kernel_combinations", "session.queries",
                 "stream.upserts", "session.result_cache_hit_ratio"):
        print(f"  {name} = {snapshot[name]}")
    # ... and any Prometheus scraper can consume the same registry:
    assert "repro_kernel_kernel_combinations" in registry().prometheus()

    # EXPLAIN ANALYZE: run a query once, uncached, and get the plan
    # back annotated per node with wall time, exact row counts and the
    # number of evidence combinations (repl: `:profile Q`).
    profile = db.session().explain_analyze(
        "SELECT rname, rating FROM (RA UNION RB BY (rname)) "
        "WHERE rating IS {ex} WITH SN >= 0.5"
    )
    print()
    print(profile.describe())
    assert profile.rows == profile.root.rows_out
    assert all(node.wall_seconds >= 0.0 for node in profile.nodes())

    # Structured tracing is off by default (zero cost on the hot path);
    # flip it on process-wide with REPRO_TRACE=1, `--trace-out FILE` on
    # the CLI, or locally with a scope.  Spans nest parent/child, one
    # tree per driving thread.
    with tracing_scope():
        with span("quickstart.traced", step=9):
            db.session().execute("RA UNION RB BY (rname)")
        traced = take_records()
    assert any(record.name == "session.execute" for record in traced)
    print(f"tracing scope captured {len(traced)} span record(s)")
    print()

    # Correctness invariants & static analysis.  Everything demonstrated
    # above rests on four invariants that ordinary tests only probe
    # pointwise, so the repo ships an AST-based analyzer (reprolint,
    # `python -m repro.analysis` / `make lint-analysis`, run in CI) that
    # enforces them structurally across the whole source tree:
    #
    #   EXACT    mass values are exact Fractions end to end: no float
    #            literals, float() casts or bare `/` division on the
    #            mass paths (repro.ds / repro.algebra).  This is what
    #            lets the kernel-vs-frozenset equivalence suite (PR 3,
    #            tests/ds/test_kernel.py) demand *equality*, not
    #            approximation.
    #   DETERM   no unordered-set iteration flows into returned or
    #            serialized order, and nothing time- or random-derived
    #            reaches plan fingerprints -- the golden digests
    #            (tests/storage/test_golden_query.py and friends) pin
    #            tuple order bit-for-bit, which only holds if no code
    #            path depends on PYTHONHASHSEED.
    #   CONC     module-level mutable state written from a function
    #            must be locked or thread-local (the kernel's STATS
    #            counters aggregate thread-local cells), since callers
    #            may drive the library from several threads.
    #   BACKEND  every StorageBackend engine implements the full
    #            abstract surface, and every mutating save/delete hook
    #            bumps catalog_version -- the invariants behind the PR 5
    #            round-trip suite (tests/storage/).
    #
    # Deliberate boundary crossings (presenting a mass as a decimal,
    # entropy measures that are floats by definition) carry inline
    # `# repro: ignore[RULE]` pragmas; accepted debt lives in
    # analysis-baseline.json, where a fixed finding turns its entry
    # stale and *fails* the run until the baseline is regenerated with
    # --write-baseline.  The shipped tree is clean:
    from repro.analysis.lint import analyze

    repo_root = Path(__file__).resolve().parent.parent
    report = analyze(
        [repo_root / "src"],
        baseline_path=repo_root / "analysis-baseline.json",
    )
    assert report.clean
    print(
        f"reprolint: {report.files} files analyzed, "
        f"{len(report.findings)} findings, "
        f"{len(report.ignored)} documented pragma exemptions"
    )


if __name__ == "__main__":
    main()
