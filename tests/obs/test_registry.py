"""The metrics registry: instruments, adoption, export formats.

Unit tests run against *fresh* :class:`MetricsRegistry` instances so
they cannot disturb the process-wide registry other tests read; the
stable-name tests at the bottom assert the global catalogue the CLI and
Prometheus surfaces depend on.
"""

from __future__ import annotations

import json
import threading

from dataclasses import dataclass

import pytest

from repro import Database, table_ra, table_rb
from repro.obs import MetricsRegistry, registry
from repro.obs.registry import Counter, Gauge, Histogram


class TestInstruments:
    def test_counter_increments_and_resets(self):
        reg = MetricsRegistry()
        counter = reg.counter("t.hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.reset()
        assert counter.value == 0

    def test_get_or_create_returns_the_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("t.hits") is reg.counter("t.hits")
        assert reg.gauge("t.depth") is reg.gauge("t.depth")
        assert reg.histogram("t.lat") is reg.histogram("t.lat")

    def test_kind_mismatch_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("t.hits")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("t.hits")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("t.hits")

    def test_gauge_set_and_callback(self):
        reg = MetricsRegistry()
        explicit = reg.gauge("t.depth")
        explicit.set(7.5)
        assert explicit.value == 7.5
        computed = reg.gauge("t.live", callback=lambda: 42)
        assert computed.value == 42

    def test_histogram_aggregates(self):
        reg = MetricsRegistry()
        hist = reg.histogram("t.lat")
        for value in (0.002, 0.02, 0.2, 2.0):
            hist.observe(value)
        snap = hist.value
        assert snap["count"] == 4
        assert snap["min"] == 0.002
        assert snap["max"] == 2.0
        assert abs(snap["sum"] - 2.222) < 1e-12
        # One observation per matching bucket, none lost to +inf.
        assert sum(snap["buckets"]) == 4


class TestAdoption:
    def test_register_source_surfaces_and_resets(self):
        reg = MetricsRegistry()
        state = {"calls": 3}
        reg.register_source(
            "src", lambda: dict(state), lambda: state.update(calls=0)
        )
        assert reg.collect()["src.calls"] == 3
        reg.reset()
        assert reg.collect()["src.calls"] == 0

    def test_attached_groups_sum_over_live_instances(self):
        @dataclass
        class Stats:
            queries: int = 0

        reg = MetricsRegistry()
        first, second = Stats(queries=2), Stats(queries=5)
        reg.attach("grp", first)
        reg.attach("grp", second)
        assert reg.group_total("grp", "queries") == 7
        assert reg.collect()["grp.queries"] == 7
        # Weakly held: a collected instance leaves the sum.
        del second
        assert reg.group_total("grp", "queries") == 2

    def test_reset_leaves_attached_groups_alone(self):
        @dataclass
        class Stats:
            queries: int = 0

        reg = MetricsRegistry()
        stats = Stats(queries=9)
        reg.attach("grp", stats)
        reg.counter("t.hits").inc()
        reg.reset()
        assert reg.collect() == {"grp.queries": 9, "t.hits": 0}


class TestExport:
    @pytest.fixture
    def loaded(self):
        reg = MetricsRegistry()
        reg.counter("t.hits").inc(3)
        reg.gauge("t.depth").set(1.5)
        reg.histogram("t.lat").observe(0.003)
        return reg

    def test_collect_is_flat_and_sorted(self, loaded):
        names = list(loaded.collect())
        assert names == sorted(names) == ["t.depth", "t.hits", "t.lat"]

    def test_render_is_an_aligned_table(self, loaded):
        rendered = loaded.render()
        assert rendered.startswith("metrics:")
        assert "  t.hits   3" in rendered
        assert "n=1" in rendered

    def test_to_json_round_trips(self, loaded):
        payload = json.loads(json.dumps(loaded.to_json()))
        assert payload["t.hits"] == 3
        assert payload["t.lat"]["count"] == 1

    def test_prometheus_exposition(self, loaded):
        text = loaded.prometheus()
        assert "# TYPE repro_t_hits counter" in text
        assert "repro_t_hits 3" in text
        assert "# TYPE repro_t_depth gauge" in text
        assert "# TYPE repro_t_lat histogram" in text
        assert 'repro_t_lat_bucket{le="+Inf"} 1' in text
        assert "repro_t_lat_count 1" in text
        # Bucket series are cumulative: every bound >= 0.003 counts 1.
        assert 'repro_t_lat_bucket{le="0.005"} 1' in text
        assert 'repro_t_lat_bucket{le="0.001"} 0' in text


class TestConcurrency:
    """Histograms keep the thread-local-cell exactness contract.

    Storage latency histograms are bumped from pool threads; eight
    threads hammer one histogram through a start barrier and the
    aggregate must come out exact, not merely close.
    """

    THREADS = 8
    ROUNDS = 250

    def test_concurrent_observations_counted_exactly(self):
        hist = Histogram("t.hammer")
        barrier = threading.Barrier(self.THREADS)
        failures = []

        def hammer():
            try:
                barrier.wait()
                for _ in range(self.ROUNDS):
                    hist.observe(1.0)
            except Exception as exc:  # pragma: no cover - diagnostic aid
                failures.append(exc)

        workers = [
            threading.Thread(target=hammer) for _ in range(self.THREADS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        assert not failures
        expected = self.THREADS * self.ROUNDS
        snap = hist.value
        # 1.0 sums exactly in floats, so == is the right assertion.
        assert snap["count"] == expected
        assert snap["sum"] == float(expected)
        assert snap["min"] == snap["max"] == 1.0
        assert sum(snap["buckets"]) == expected


class TestGlobalCatalogue:
    """The process-wide names the CLI/Prometheus surfaces depend on."""

    def test_core_names_are_registered(self):
        db = Database("names")
        db.add(table_ra())
        db.add(table_rb())
        db.session().execute("RA UNION RB BY (rname)")
        names = registry().names()
        for expected in (
            "kernel.kernel_combinations",
            "kernel.compilations",
            "session.queries",
            "session.plans_built",
            "session.plan_cache_hit_ratio",
            "session.result_cache_hit_ratio",
            "stream.ingest_lag_events",
            "stream.watermark_age_seconds",
        ):
            assert expected in names
        # One combination engine: there is no fallback counter to report.
        assert "kernel.fallback_combinations" not in names
        assert "stream.fallback_combinations" not in names
        # Execution is serial: no fan-out counters.
        assert not any(name.startswith("exec.") for name in names)

    def test_instrument_kinds_are_stable(self):
        reg = registry()
        assert isinstance(reg.counter("tests.scratch.counter"), Counter)
        assert isinstance(reg.gauge("session.plan_cache_hit_ratio"), Gauge)
        with pytest.raises(ValueError):
            reg.counter("session.plan_cache_hit_ratio")
