"""Command-line interface.

Every ``DB`` argument is a storage *location*: a backend URL
(``json:restaurants.json``, ``sqlite:federation.db``,
``log:journal.jsonl``) or a bare path resolved per
:mod:`repro.storage.backends` (the ``REPRO_STORAGE`` environment
variable names the default engine, else the file extension decides,
else JSON).

``repro demo [DB]``
    Write the paper's example database (R_A, R_B, M_A, M_B, RM_A, RM_B)
    to ``DB`` (default ``restaurants.json``), ready for querying.

``repro query DB QUERY``
    Execute one query against a database and print the result in the
    paper's table style.  ``--explain`` prints the optimized plan
    instead; ``--save NAME OUT`` stores the result relation under NAME
    into the location OUT (which may equal DB).

``repro show DB [RELATION]``
    Print the catalog, or one relation as a table.

``repro convert SRC DST``
    Migrate a database between any two backend locations.  Relations
    are written flat, in tuple order, whatever layout the source held.

``repro compact DB``
    Fold an append-only ``log:`` store's history into its live
    snapshots (:meth:`repro.storage.backends.log.LogBackend.compact`)
    and report bytes before/after.

``repro repl DB``
    Interactive query loop over one database, running through a caching
    :class:`repro.session.Session`: repeated queries hit the
    plan/result caches.  ``:explain Q`` prints the optimized plan,
    ``:profile Q`` executes Q and prints the EXPLAIN ANALYZE profile
    (per-node wall times and row counts, see
    :meth:`repro.session.Session.explain_analyze`), ``:stats`` the
    session counters plus the evidence-kernel counters
    (:mod:`repro.ds.kernel`), the storage backend and the full metrics
    registry (:mod:`repro.obs`),
    ``:tables`` the catalog, ``:open URL`` switches to another
    database, ``:persist`` writes the catalog back through the attached
    backend, and ``:quit`` (or EOF) exits.  ``--trace-out FILE``
    enables structured tracing and appends span records to FILE as
    JSONL.

``repro stats [DB]``
    Dump the process metrics registry (:mod:`repro.obs`) -- as a human
    table, ``--json``, or ``--prometheus`` text exposition.  With a
    database and ``--query Q`` (repeatable), runs the queries first so
    their kernel/session activity shows in the dump.

``repro stream DB EVENTS --schema REL``
    Replay a JSONL event file (see :mod:`repro.stream.connectors`)
    through a :class:`repro.stream.StreamEngine` using REL's schema,
    publish the integrated relation into the catalog, and report
    throughput, the evidence combination count and the per-batch
    changelog.  ``--durable URL`` journals every flushed batch through a
    storage backend (a ``log:`` URL gives write-ahead recovery);
    ``--save OUT`` persists the resulting database, ``--show`` prints
    the integrated table, ``--trace-out FILE`` traces the replay into
    FILE as JSONL.

Every command runs serially in this process.  Environment variables
of removed execution features (:data:`REMOVED_ENV`) are refused with a
:class:`repro.errors.ConfigError` naming the variable.

Exit status: 0 on success, 1 on any :class:`repro.errors.ReproError`
(message on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from contextlib import contextmanager

from repro.errors import ConfigError, ReproError
from repro.integration.merging import CONFLICT_POLICIES
from repro.storage.backends import (
    open_backend,
    open_database,
    resolve_backend,
)
from repro.storage.database import Database
from repro.storage.formatting import format_relation

#: Environment variables of removed features: the executor, worker and
#: partition settings of the deleted process pool, and the remote tier
#: and warm-pool switches removed before it.
REMOVED_ENV = (
    "REPRO_EXECUTOR",
    "REPRO_WORKERS",
    "REPRO_PARTITIONS",
    "REPRO_WORKERS_ADDRS",
    "REPRO_REMOTE_THRESHOLD",
    "REPRO_REMOTE_LOCALITY",
    "REPRO_WARM_POOL",
)


def _refuse_removed_settings() -> None:
    """Raise :class:`ConfigError` if a removed feature's variable is set."""
    for name in REMOVED_ENV:
        if os.environ.get(name, "").strip():
            raise ConfigError(
                f"{name} configures a removed feature (execution is "
                f"serial only); unset it"
            )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Evidential reasoning for database integration "
        "(Lim, Srivastava & Shekhar, ICDE 1994).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser(
        "demo", help="write the paper's example database to a storage location"
    )
    demo.add_argument(
        "path",
        nargs="?",
        default="restaurants.json",
        help="output location -- a json:/sqlite:/log: URL or a path "
        "(default: restaurants.json)",
    )
    demo.add_argument(
        "--integrated",
        action="store_true",
        help="also include the integrated relations R, M, RM",
    )

    query = commands.add_parser(
        "query", help="run a query against a database"
    )
    query.add_argument("database", help="database location (URL or path)")
    query.add_argument("text", help="the query, e.g. 'RA UNION RB BY (rname)'")
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the optimized logical plan instead of executing",
    )
    query.add_argument(
        "--style",
        choices=["decimal", "fraction", "auto"],
        default="decimal",
        help="mass rendering style (default: decimal, as the paper prints)",
    )
    query.add_argument(
        "--save",
        nargs=2,
        metavar=("NAME", "OUT"),
        help="store the result relation under NAME into the database "
        "location OUT",
    )

    convert = commands.add_parser(
        "convert",
        help="migrate a database between two storage backends",
    )
    convert.add_argument("source", help="source location (URL or path)")
    convert.add_argument("destination", help="destination location (URL or path)")

    repl = commands.add_parser(
        "repl", help="interactive query loop (cached session) over a database"
    )
    repl.add_argument("database", help="database location (URL or path)")
    repl.add_argument(
        "--style",
        choices=["decimal", "fraction", "auto"],
        default="decimal",
        help="mass rendering style",
    )
    repl.add_argument(
        "--trace-out",
        metavar="FILE",
        help="enable structured tracing and append span records to FILE "
        "as JSONL",
    )

    stream = commands.add_parser(
        "stream",
        help="replay a JSONL event file into an integrated relation",
    )
    stream.add_argument("database", help="database location (URL or path)")
    stream.add_argument("events", help="JSONL event file")
    stream.add_argument(
        "--schema",
        required=True,
        metavar="RELATION",
        help="catalog relation whose schema the stream speaks",
    )
    stream.add_argument(
        "--name",
        default="integrated",
        help="name of the integrated relation (default: integrated)",
    )
    stream.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="N",
        help="auto-flush every N events (default: only explicit flushes)",
    )
    stream.add_argument(
        "--on-conflict",
        choices=CONFLICT_POLICIES,
        default="vacuous",
        help="total-conflict policy (default: vacuous)",
    )
    stream.add_argument(
        "--durable",
        metavar="URL",
        help="journal every flushed batch through this storage backend "
        "(a log: URL keeps a write-ahead event log)",
    )
    stream.add_argument(
        "--save",
        metavar="OUT",
        help="write the database (with the integrated relation) to the "
        "location OUT",
    )
    stream.add_argument(
        "--show",
        action="store_true",
        help="print the integrated relation after the replay",
    )
    stream.add_argument(
        "--style",
        choices=["decimal", "fraction", "auto"],
        default="decimal",
        help="mass rendering style",
    )
    stream.add_argument(
        "--trace-out",
        metavar="FILE",
        help="enable structured tracing and append span records to FILE "
        "as JSONL",
    )

    stats = commands.add_parser(
        "stats",
        help="dump the process metrics registry (optionally after "
        "running queries)",
    )
    stats.add_argument(
        "database",
        nargs="?",
        help="database location (URL or path) to run --query against",
    )
    stats.add_argument(
        "--query",
        action="append",
        default=[],
        metavar="Q",
        help="execute Q against DATABASE before dumping (repeatable)",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit the metrics as a JSON object",
    )
    stats.add_argument(
        "--prometheus",
        action="store_true",
        help="emit the metrics in the Prometheus text exposition format",
    )

    show = commands.add_parser("show", help="inspect a database")
    show.add_argument("database", help="database location (URL or path)")
    show.add_argument(
        "relation", nargs="?", help="relation to print (default: catalog)"
    )
    show.add_argument(
        "--style",
        choices=["decimal", "fraction", "auto"],
        default="decimal",
        help="mass rendering style",
    )

    compact = commands.add_parser(
        "compact",
        help="fold an append-only log store's history away "
        "(log: URLs only)",
    )
    compact.add_argument("database", help="store location (URL or path)")
    return parser


def _command_demo(args: argparse.Namespace, out) -> int:
    from repro.algebra.union import union
    from repro.datasets.restaurants import (
        table_m_a,
        table_m_b,
        table_ra,
        table_rb,
        table_rm_a,
        table_rm_b,
    )

    db = Database("tourist_bureau")
    for relation in (
        table_ra(),
        table_rb(),
        table_m_a(),
        table_m_b(),
        table_rm_a(),
        table_rm_b(),
    ):
        db.add(relation)
    if args.integrated:
        db.add(union(table_ra(), table_rb(), name="R"))
        db.add(union(table_m_a(), table_m_b(), name="M"))
        db.add(union(table_rm_a(), table_rm_b(), name="RM"))
    with open_backend(args.path) as backend:
        backend.save_database(db)
        print(
            f"wrote {len(db)} relations ({', '.join(db.names())}) "
            f"to {backend.url()}",
            file=out,
        )
    return 0


def _save_result(relation, name: str, destination: str, out) -> None:
    """Store one relation into a (possibly new) database location."""
    with open_backend(destination) as backend:
        target = backend.load_database() if backend.exists() else Database()
        target.add(relation.with_name(name), replace=True)
        backend.save_database(target)
        print(f"saved result as {name!r} in {backend.url()}", file=out)


def _command_query(args: argparse.Namespace, out) -> int:
    db = open_database(args.database)
    try:
        if args.explain:
            print(db.explain(args.text), file=out)
            return 0
        result = db.query(args.text)
        print(format_relation(result, style=args.style), file=out)
    finally:
        db.close()
    if args.save:
        name, destination = args.save
        _save_result(result, name, destination, out)
    return 0


def _command_convert(args: argparse.Namespace, out) -> int:
    source = resolve_backend(args.source)
    destination = resolve_backend(args.destination)
    if source.path.resolve() == destination.path.resolve():
        raise ReproError(
            f"convert needs two distinct locations, got {source.url()} "
            f"twice"
        )
    with source, destination:
        db = source.load_database()
        destination.save_database(db)
        tuples = sum(len(relation) for relation in db)
        print(
            f"converted {len(db)} relations ({tuples} tuples) from "
            f"{source.url()} to {destination.url()}",
            file=out,
        )
    return 0


@contextmanager
def _trace_to(path: str | None):
    """Enable tracing with a JSONL sink at *path* for one command."""
    if not path:
        yield
        return
    from repro.obs import tracing

    sink = tracing.JsonlSink(path)
    tracing.add_sink(sink)
    previous = tracing.enabled()
    tracing.set_tracing(True)
    try:
        yield
    finally:
        tracing.set_tracing(previous)
        tracing.remove_sink(sink)
        sink.close()


def _command_stats(args: argparse.Namespace, out) -> int:
    import json

    from repro.obs import registry

    if args.query and args.database is None:
        raise ReproError("--query needs a DATABASE to run against")
    db = session = None
    if args.database is not None:
        from repro.session import Session

        db = open_database(args.database)
        # Held in a local on purpose: the registry tracks SessionStats
        # weakly, so the session must outlive the dump below.
        session = Session(db)
        for query in args.query:
            session.execute(query)
    try:
        if args.json:
            print(
                json.dumps(registry().to_json(), indent=2, sort_keys=True),
                file=out,
            )
        elif args.prometheus:
            print(registry().prometheus(), file=out, end="")
        else:
            print(registry().render(), file=out)
    finally:
        del session
        if db is not None:
            db.close()
    return 0


def _command_repl(args: argparse.Namespace, out) -> int:
    from repro.session import Session

    db = open_database(args.database)
    session = Session(db)

    def banner() -> None:
        print(
            f"database {db.name!r}: {', '.join(db.names())} -- "
            f":explain Q / :profile Q / :stats / :tables / :open URL / "
            f":persist / :quit",
            file=out,
        )

    banner()
    with _trace_to(args.trace_out):
        for line in sys.stdin:
            text = line.strip()
            if not text:
                continue
            if text in (":quit", ":q", ":exit"):
                break
            try:
                if text == ":stats":
                    from repro.ds.kernel import kernel_stats
                    from repro.obs import registry

                    print(session.stats().summary(), file=out)
                    print(kernel_stats().summary(), file=out)
                    backend = db.backend
                    print(
                        backend.describe()
                        if backend is not None
                        else "storage backend: (none attached)",
                        file=out,
                    )
                    print(registry().render(), file=out)
                elif text == ":tables":
                    for relation in db:
                        keys = ", ".join(relation.schema.key_names)
                        print(
                            f"  {relation.name:<12} {len(relation):>4} tuples  "
                            f"key=({keys})",
                            file=out,
                        )
                elif text.startswith(":open"):
                    url = text[len(":open"):].strip()
                    if not url:
                        print("usage: :open URL", file=out)
                        continue
                    fresh = open_database(url)
                    db.close()
                    db, session = fresh, Session(fresh)
                    banner()
                elif text == ":persist":
                    db.persist()
                    print(
                        f"persisted {len(db)} relations to {db.backend.url()}",
                        file=out,
                    )
                elif text.startswith(":profile"):
                    query = text[len(":profile"):].strip()
                    if not query:
                        print("usage: :profile Q", file=out)
                        continue
                    print(session.explain_analyze(query).describe(), file=out)
                elif text.startswith(":explain"):
                    print(session.explain(text[len(":explain"):].strip()), file=out)
                elif text.startswith(":"):
                    print(f"unknown command {text.split()[0]!r}", file=out)
                else:
                    result = session.execute(text)
                    print(format_relation(result, style=args.style), file=out)
            except ReproError as exc:
                print(f"error: {exc}", file=out)
    db.close()
    return 0


def _command_stream(args: argparse.Namespace, out) -> int:
    import time

    from repro.integration.merging import TupleMerger
    from repro.stream import StreamEngine, read_events, replay

    db = open_database(args.database)
    durable = open_backend(args.durable) if args.durable else None
    try:
        schema = db.get(args.schema).schema
        engine = StreamEngine(
            schema,
            name=args.name,
            merger=TupleMerger(on_conflict=args.on_conflict),
            database=db,
            batch_size=args.batch,
            backend=durable,
        )
        started = time.perf_counter()
        with _trace_to(args.trace_out):
            report = replay(engine, read_events(args.events))
        elapsed = time.perf_counter() - started
        # A tiny replay can finish between two clock ticks; "inf
        # events/s" is noise, so elide the rate instead.
        rate = (
            f"{report.events / elapsed:,.0f} events/s"
            if elapsed > 0
            else "events/s: n/a"
        )
        print(
            f"replayed {report.summary()} in {elapsed:.3f}s ({rate})",
            file=out,
        )
        print(
            f"integrated {args.name!r}: {len(engine.relation)} tuples from "
            f"{len(engine.sources())} source(s), watermark {engine.watermark}",
            file=out,
        )
        stats = engine.stats()
        print(
            f"evidence combinations: {stats.kernel_combinations}",
            file=out,
        )
        if durable is not None:
            print(
                f"durable: {durable.describe()} (watermark "
                f"{durable.stream_watermark(args.name)})",
                file=out,
            )
        print(engine.changelog.summary(), file=out)
        if args.show:
            print(format_relation(engine.relation, style=args.style), file=out)
        if args.save:
            with open_backend(args.save) as target:
                target.save_database(db)
                print(f"saved database to {target.url()}", file=out)
    finally:
        if durable is not None:
            durable.close()
        db.close()
    return 0


def _command_compact(args: argparse.Namespace, out) -> int:
    with open_backend(args.database) as backend:
        compact = getattr(backend, "compact", None)
        if compact is None:
            print(
                f"error: {backend.url()} does not support compaction "
                f"(only log: stores do)",
                file=sys.stderr,
            )
            return 1
        digest = compact()
    saved = digest["bytes_before"] - digest["bytes_after"]
    ratio = saved / digest["bytes_before"] if digest["bytes_before"] else 0.0
    print(
        f"compacted {backend.url()}: {digest['bytes_before']:,} -> "
        f"{digest['bytes_after']:,} bytes ({digest['records']} record(s), "
        f"{saved:,} bytes / {ratio:.0%} reclaimed)",
        file=out,
    )
    return 0


def _command_show(args: argparse.Namespace, out) -> int:
    db = open_database(args.database)
    try:
        if args.relation is None:
            print(f"database {db.name!r}: {len(db)} relation(s)", file=out)
            for relation in db:
                keys = ", ".join(relation.schema.key_names)
                print(
                    f"  {relation.name:<12} {len(relation):>4} tuples  "
                    f"key=({keys})",
                    file=out,
                )
            return 0
        print(
            format_relation(db.get(args.relation), style=args.style), file=out
        )
    finally:
        db.close()
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the exit status."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "compact": _command_compact,
        "demo": _command_demo,
        "query": _command_query,
        "convert": _command_convert,
        "repl": _command_repl,
        "show": _command_show,
        "stats": _command_stats,
        "stream": _command_stream,
    }
    try:
        _refuse_removed_settings()
        return handlers[args.command](args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output was piped into a pager/head that closed early: normal.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
