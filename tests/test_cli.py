"""Tests for the command-line interface.

Database locations go through the storage-backend resolver, so the
whole file honors ``REPRO_STORAGE`` -- the CI matrix reruns it with the
SQLite engine as the default backend.  Tests that assert the *JSON*
on-disk format pin the ``json:`` scheme explicitly.
"""

import io
import json
import os
import subprocess
import sys

from pathlib import Path

import pytest

from repro.cli import REMOVED_ENV, main
from repro.storage import open_database


#: The repository root (the subprocess test imports ``src/repro``).
ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    out = io.StringIO()
    status = main(list(argv), out=out)
    return status, out.getvalue()


def read_database(path):
    """Load a database through the URL resolver, releasing the backend."""
    db = open_database(str(path))
    db.close()
    return db


@pytest.fixture
def demo_db(tmp_path):
    path = tmp_path / "restaurants.json"
    status, _ = run_cli("demo", str(path))
    assert status == 0
    return path


class TestDemo:
    def test_writes_six_relations(self, tmp_path):
        path = tmp_path / "db.json"
        status, output = run_cli("demo", str(path))
        assert status == 0
        assert "6 relations" in output
        db = read_database(path)
        assert db.names() == ("M_A", "M_B", "RA", "RB", "RM_A", "RM_B")

    def test_integrated_flag(self, tmp_path):
        path = tmp_path / "db.json"
        status, _ = run_cli("demo", str(path), "--integrated")
        assert status == 0
        db = read_database(path)
        assert {"R", "M", "RM"} <= set(db.names())
        assert len(db.get("R")) == 6

    def test_output_is_valid_json(self, tmp_path):
        # json: pinned: this asserts the JSON engine's on-disk format.
        path = tmp_path / "db.json"
        run_cli("demo", f"json:{path}")
        json.loads(path.read_text())

    def test_scheme_url_picks_engine(self, tmp_path):
        """An explicit sqlite: URL wins over the .json extension."""
        path = tmp_path / "oddly-named.json"
        status, output = run_cli("demo", f"sqlite:{path}")
        assert status == 0
        assert f"sqlite:{path}" in output
        db = read_database(f"sqlite:{path}")
        assert db.names() == ("M_A", "M_B", "RA", "RB", "RM_A", "RM_B")


class TestQuery:
    def test_select(self, demo_db):
        status, output = run_cli(
            "query", str(demo_db), "SELECT * FROM RA WHERE speciality IS {si}"
        )
        assert status == 0
        assert "garden" in output
        assert "wok" in output
        assert "olive" not in output

    def test_union_matches_table4_digits(self, demo_db):
        status, output = run_cli("query", str(demo_db), "RA UNION RB BY (rname)")
        assert status == 0
        assert "0.655" in output
        assert "0.857" in output

    def test_explain(self, demo_db):
        status, output = run_cli(
            "query", str(demo_db), "RA UNION RB", "--explain"
        )
        assert status == 0
        assert "Union" in output
        assert "Scan RA" in output

    def test_fraction_style(self, demo_db):
        status, output = run_cli(
            "query", str(demo_db), "RA UNION RB", "--style", "fraction"
        )
        assert status == 0
        assert "19/29" in output

    def test_save_result(self, demo_db, tmp_path):
        destination = tmp_path / "out.json"
        status, output = run_cli(
            "query",
            str(demo_db),
            "RA UNION RB",
            "--save",
            "R",
            str(destination),
        )
        assert status == 0
        saved = read_database(destination)
        assert len(saved.get("R")) == 6

    def test_bad_query_is_clean_error(self, demo_db, capsys):
        status, _ = run_cli("query", str(demo_db), "SELECT FROM nothing")
        assert status == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_relation_is_clean_error(self, demo_db, capsys):
        status, _ = run_cli("query", str(demo_db), "SELECT * FROM GHOST")
        assert status == 1
        assert "no relation" in capsys.readouterr().err

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        status, _ = run_cli("query", str(tmp_path / "absent.json"), "RA")
        assert status == 1


class TestShow:
    def test_catalog(self, demo_db):
        status, output = run_cli("show", str(demo_db))
        assert status == 0
        assert "6 relation(s)" in output
        assert "RA" in output
        assert "key=(rname)" in output

    def test_single_relation(self, demo_db):
        status, output = run_cli("show", str(demo_db), "RA")
        assert status == 0
        assert "yspeciality" in output
        assert "ashiana" in output

    def test_unknown_relation(self, demo_db, capsys):
        status, _ = run_cli("show", str(demo_db), "GHOST")
        assert status == 1


class TestRepl:
    def run_repl(self, monkeypatch, db_path, script):
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        return run_cli("repl", str(db_path))

    def test_query_loop(self, demo_db, monkeypatch):
        status, output = self.run_repl(
            monkeypatch,
            demo_db,
            "SELECT rname FROM RA WHERE speciality IS {si}\n:quit\n",
        )
        assert status == 0
        assert "garden" in output
        assert "wok" in output

    def test_explain_and_stats(self, demo_db, monkeypatch):
        script = (
            "SELECT rname FROM RA\n"
            "SELECT rname FROM RA\n"
            ":explain SELECT rname FROM RA\n"
            ":stats\n"
            ":quit\n"
        )
        status, output = self.run_repl(monkeypatch, demo_db, script)
        assert status == 0
        assert "Scan RA" in output
        # The second run of the identical query is a result-cache hit.
        assert "1 result hits" in output
        # :stats also reports the evidence-kernel counters.
        assert "kernel: " in output and "combination(s)" in output

    def test_stats_names_storage_backend(self, demo_db, monkeypatch):
        status, output = self.run_repl(monkeypatch, demo_db, ":stats\n:quit\n")
        assert status == 0
        assert "storage backend:" in output

    def test_open_switches_databases(self, demo_db, tmp_path, monkeypatch):
        other = tmp_path / "other.sqlite"
        status, _ = run_cli("demo", f"sqlite:{other}")
        assert status == 0
        script = f":open sqlite:{other}\n:stats\n:quit\n"
        status, output = self.run_repl(monkeypatch, demo_db, script)
        assert status == 0
        # The banner reprints for the new database and :stats names it.
        assert output.count("database 'tourist_bureau'") == 2
        assert f"sqlite at {other}" in output

    def test_open_bad_url_stays_in_loop(self, demo_db, monkeypatch):
        script = ":open sqlite:/nonexistent/nowhere.db\n:tables\n:quit\n"
        status, output = self.run_repl(monkeypatch, demo_db, script)
        assert status == 0
        assert "error:" in output
        assert "RA" in output  # the original database is still live

    def test_persist_writes_back(self, tmp_path, monkeypatch):
        path = tmp_path / "db.sqlite"
        status, _ = run_cli("demo", f"sqlite:{path}")
        assert status == 0
        script = ":persist\n:quit\n"
        status, output = self.run_repl(monkeypatch, f"sqlite:{path}", script)
        assert status == 0
        assert "persisted 6 relations" in output
        assert read_database(f"sqlite:{path}").names() == (
            "M_A", "M_B", "RA", "RB", "RM_A", "RM_B",
        )

    def test_tables_lists_catalog(self, demo_db, monkeypatch):
        status, output = self.run_repl(monkeypatch, demo_db, ":tables\n:quit\n")
        assert status == 0
        assert "RA" in output
        assert "key=(rname)" in output

    def test_errors_stay_in_loop(self, demo_db, monkeypatch):
        script = ":bogus\nSELECT * FROM GHOST\nSELECT rname FROM RA\n"
        status, output = self.run_repl(monkeypatch, demo_db, script)
        assert status == 0  # EOF exits cleanly
        assert "unknown command" in output
        assert "no relation" in output
        assert "ashiana" in output

    def test_stats_includes_the_metrics_registry(self, demo_db, monkeypatch):
        script = "SELECT rname FROM RA\n:stats\n:quit\n"
        status, output = self.run_repl(monkeypatch, demo_db, script)
        assert status == 0
        assert "metrics:" in output
        assert "kernel.kernel_combinations" in output
        assert "session.queries" in output

    def test_profile_annotates_the_plan(self, demo_db, monkeypatch):
        script = ":profile RA UNION RB BY (rname)\n:quit\n"
        status, output = self.run_repl(monkeypatch, demo_db, script)
        assert status == 0
        assert "EXPLAIN ANALYZE" in output
        assert "rows=6+5->6" in output
        assert "Scan RA" in output and "Scan RB" in output
        assert "time=" in output
        assert "combine=" in output

    def test_profile_without_query_is_usage_error(self, demo_db, monkeypatch):
        status, output = self.run_repl(
            monkeypatch, demo_db, ":profile\n:quit\n"
        )
        assert status == 0
        assert "usage: :profile" in output

    def test_trace_out_writes_span_records(
        self, demo_db, tmp_path, monkeypatch
    ):
        trace = tmp_path / "repl-trace.jsonl"
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("SELECT rname FROM RA\n:quit\n")
        )
        status, _ = run_cli("repl", str(demo_db), "--trace-out", str(trace))
        assert status == 0
        records = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if line
        ]
        names = {record["name"] for record in records}
        assert "session.execute" in names
        assert "physical.scan" in names


class TestStream:
    @pytest.fixture
    def events_file(self, tmp_path):
        from repro.datasets.restaurants import table_ra, table_rb
        from repro.stream import FlushEvent, relation_to_events, write_events

        path = tmp_path / "events.jsonl"
        write_events(
            relation_to_events(table_ra(), "daily")
            + [FlushEvent()]
            + relation_to_events(table_rb(), "tribune"),
            path,
        )
        return path

    def test_replay_reports_throughput(self, demo_db, events_file):
        status, output = run_cli(
            "stream", str(demo_db), str(events_file), "--schema", "RA"
        )
        assert status == 0
        assert "events/s" in output
        assert "watermark 11" in output
        assert "6 tuples" in output
        assert "batch 1" in output and "batch 2" in output
        # The throughput report counts the evidence combinations, all on
        # the kernel: 5 matched entities x 6 attributes, enumerated and
        # open text alike.
        assert "evidence combinations: 30" in output

    @pytest.mark.parametrize("flag", ["--workers", "--executor"])
    def test_removed_executor_flags_are_usage_errors(
        self, demo_db, events_file, flag, capsys
    ):
        """Replays run serially; the pool's flags are gone."""
        with pytest.raises(SystemExit) as exit_info:
            run_cli(
                "stream", str(demo_db), str(events_file),
                "--schema", "RA", flag, "2",
            )
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_on_conflict_choices_are_the_merge_policies(
        self, demo_db, events_file, capsys
    ):
        """The flag offers exactly the merger's policies."""
        from repro.integration.merging import CONFLICT_POLICIES

        with pytest.raises(SystemExit) as exit_info:
            run_cli(
                "stream", str(demo_db), str(events_file),
                "--schema", "RA", "--on-conflict", "bogus",
            )
        assert exit_info.value.code == 2
        choices = ", ".join(map(repr, CONFLICT_POLICIES))
        assert f"(choose from {choices})" in capsys.readouterr().err

    def test_save_persists_integrated_relation(
        self, demo_db, events_file, tmp_path
    ):
        out = tmp_path / "live.json"
        status, output = run_cli(
            "stream",
            str(demo_db),
            str(events_file),
            "--schema",
            "RA",
            "--name",
            "R_LIVE",
            "--save",
            str(out),
        )
        assert status == 0
        db = read_database(out)
        assert "R_LIVE" in db
        assert len(db.get("R_LIVE")) == 6

    def test_show_prints_table(self, demo_db, events_file):
        status, output = run_cli(
            "stream",
            str(demo_db),
            str(events_file),
            "--schema",
            "RA",
            "--show",
        )
        assert status == 0
        assert "ashiana" in output

    def test_malformed_events_are_clean_errors(self, demo_db, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"op": "teleport"}\n')
        status, _ = run_cli("stream", str(demo_db), str(bad), "--schema", "RA")
        assert status == 1
        assert "unknown event op" in capsys.readouterr().err

    def test_durable_flag_journals_batches(self, demo_db, events_file, tmp_path):
        from repro.storage import open_backend

        wal = tmp_path / "wal.jsonl"
        status, output = run_cli(
            "stream", str(demo_db), str(events_file),
            "--schema", "RA", "--name", "R_LIVE",
            "--durable", f"log:{wal}",
        )
        assert status == 0
        assert "durable:" in output and "watermark 11" in output
        with open_backend(f"log:{wal}") as backend:
            recovered = backend.recover_stream("R_LIVE", attach=False)
            assert recovered.watermark == 11
            assert len(recovered.relation) == 6


    def test_zero_elapsed_replay_elides_the_rate(
        self, demo_db, events_file, monkeypatch
    ):
        """A replay finishing between clock ticks must not print
        'inf events/s'."""
        import time

        monkeypatch.setattr(time, "perf_counter", lambda: 42.0)
        status, output = run_cli(
            "stream", str(demo_db), str(events_file), "--schema", "RA"
        )
        assert status == 0
        assert "inf" not in output
        assert "events/s: n/a" in output

    def test_trace_out_writes_flush_spans(
        self, demo_db, events_file, tmp_path
    ):
        trace = tmp_path / "stream-trace.jsonl"
        status, _ = run_cli(
            "stream",
            str(demo_db),
            str(events_file),
            "--schema",
            "RA",
            "--trace-out",
            str(trace),
        )
        assert status == 0
        records = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if line
        ]
        names = [record["name"] for record in records]
        # The events file carries an explicit mid-file flush marker and
        # replay flushes once more at the end.
        assert names.count("stream.flush") == 2


class TestStats:
    def test_registry_table_without_a_database(self):
        status, output = run_cli("stats")
        assert status == 0
        assert output.startswith("metrics:")
        assert "kernel.kernel_combinations" in output
        assert "stream.ingest_lag_events" in output

    def test_query_runs_against_the_database(self, demo_db):
        status, output = run_cli(
            "stats", str(demo_db), "--query", "RA UNION RB BY (rname)"
        )
        assert status == 0
        assert "session.queries" in output
        assert "storage backend" not in output  # registry table only

    def test_query_without_database_is_a_clean_error(self, capsys):
        status, _ = run_cli("stats", "--query", "RA")
        assert status == 1
        assert "--query needs a DATABASE" in capsys.readouterr().err

    def test_json_round_trips_with_stable_names(self, demo_db):
        status, output = run_cli(
            "stats", str(demo_db), "--query", "RA UNION RB BY (rname)",
            "--json",
        )
        assert status == 0
        payload = json.loads(output)
        for name in (
            "kernel.kernel_combinations",
            "session.queries",
            "session.plans_built",
            "session.result_cache_hit_ratio",
            "stream.ingest_lag_events",
        ):
            assert name in payload
        assert payload["session.queries"] >= 1
        # The union's 5 x 6 combinations, open-domain ones included, all
        # count as kernel combinations (the registry is process-wide).
        assert payload["kernel.kernel_combinations"] >= 30
        assert "kernel.fallback_combinations" not in payload
        # Execution is serial: there are no fan-out counters.
        assert not any(name.startswith("exec.") for name in payload)
        # Storage I/O of the demo-database load is accounted per scheme.
        assert any(name.startswith("storage.") for name in payload)
        # Histogram values arrive as structured objects.
        latencies = [
            value
            for name, value in payload.items()
            if name.endswith("_seconds") and isinstance(value, dict)
        ]
        assert any(value["count"] >= 1 for value in latencies)

    def test_prometheus_exposition(self, demo_db):
        status, output = run_cli(
            "stats", str(demo_db), "--query", "RA", "--prometheus"
        )
        assert status == 0
        assert "# TYPE repro_kernel_kernel_combinations counter" in output
        assert "# TYPE repro_session_result_cache_hit_ratio gauge" in output
        assert '_bucket{le="+Inf"}' in output


class TestRemovedSettings:
    """Variables of removed execution features fail loudly, naming the
    variable, instead of being silently ignored."""

    @pytest.mark.parametrize("name", REMOVED_ENV)
    def test_removed_variables_are_rejected(self, name, monkeypatch, capsys):
        monkeypatch.setenv(name, "2")
        status, output = run_cli("stats")
        assert status == 1
        assert output == ""
        error = capsys.readouterr().err
        assert name in error and "removed" in error

    def test_empty_values_count_as_unset(self, monkeypatch):
        for name in REMOVED_ENV:
            monkeypatch.setenv(name, " ")
        status, _ = run_cli("stats")
        assert status == 0

    def test_executor_variable_fails_the_installed_entry_point(self):
        """``REPRO_EXECUTOR=process repro stats`` exits 1, naming it."""
        env = dict(
            os.environ,
            REPRO_EXECUTOR="process",
            PYTHONPATH=str(ROOT / "src"),
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "stats"],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )
        assert result.returncode == 1
        assert "REPRO_EXECUTOR" in result.stderr
        assert "Traceback" not in result.stderr


class TestConvert:
    def test_json_to_sqlite_round_trip(self, demo_db, tmp_path):
        destination = tmp_path / "out.sqlite"
        status, output = run_cli(
            "convert", str(demo_db), f"sqlite:{destination}"
        )
        assert status == 0
        assert "converted 6 relations" in output
        source = read_database(demo_db)
        converted = read_database(f"sqlite:{destination}")
        assert converted.names() == source.names()
        for name in source.names():
            assert converted.get(name) == source.get(name)

    def test_partitions_option_is_gone(self, demo_db, tmp_path, capsys):
        destination = tmp_path / "out.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            run_cli(
                "convert", str(demo_db), f"log:{destination}",
                "--partitions", "3",
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --partitions" in capsys.readouterr().err
        assert not destination.exists()

    def test_same_location_rejected(self, demo_db, capsys):
        status, _ = run_cli("convert", str(demo_db), str(demo_db))
        assert status == 1
        assert "distinct locations" in capsys.readouterr().err

    def test_missing_source_is_clean_error(self, tmp_path, capsys):
        status, _ = run_cli(
            "convert", str(tmp_path / "absent.json"), str(tmp_path / "out.db")
        )
        assert status == 1


class TestCompact:
    @pytest.fixture
    def grown_log(self, demo_db, tmp_path):
        """A journal with history: the demo converted in, then resaved."""
        destination = tmp_path / "wal.jsonl"
        status, _ = run_cli("convert", str(demo_db), f"log:{destination}")
        assert status == 0
        from repro.storage import open_backend

        with open_backend(f"log:{destination}") as backend:
            for name in backend.list_relations():
                backend.save_relation(backend.load_relation(name))
        return destination

    def test_reports_bytes_before_and_after(self, grown_log):
        before = grown_log.stat().st_size
        status, output = run_cli("compact", f"log:{grown_log}")
        assert status == 0
        after = grown_log.stat().st_size
        assert after < before
        assert f"{before:,} -> {after:,} bytes" in output
        assert "reclaimed" in output
        # The compacted store still loads every relation.
        db = read_database(f"log:{grown_log}")
        assert len(db.names()) == 6

    def test_snapshot_backends_are_a_clean_error(self, demo_db, capsys):
        status, _ = run_cli("compact", f"json:{demo_db}")
        assert status == 1
        assert "does not support compaction" in capsys.readouterr().err
