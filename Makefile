# Tier-1 verify and friends, each as one command.
#
#   make test           run the test suite (tier-1 gate)
#   make test-sqlite    the same suite with SQLite as the default backend
#   make bench          run the benchmark harness (timings + assertions)
#   make bench-stream   incremental-vs-recompute ingestion benchmark
#   make bench-kernel   evidence kernel vs the frozenset test oracle
#   make bench-query    selection, session-cache and planner benchmarks
#                       (the exact query path's own assertions), and
#                       the recorded load and IS-scan layer times
#   make bench-merge    Table 4 union, union scaling and federation
#                       ablation benchmarks (the merge path's assertions)
#   make bench-storage  save/load/point-load per storage backend
#   make bench-e2e      the end-to-end benchmark's own tests plus a
#                       5-second smoke run of every workload
#   make lint           ruff check (fails in CI when ruff is absent;
#                       skipped with a notice locally)
#   make lint-analysis  reprolint: invariant static analysis (EXACT,
#                       DETERM, CONC, BACKEND) against the baseline

PYTHON ?= python
export PYTHONPATH := src:.:$(PYTHONPATH)

.PHONY: test test-sqlite bench bench-stream bench-kernel bench-query \
	bench-merge bench-storage bench-e2e lint lint-analysis quickstart

test:
	$(PYTHON) -m pytest -x -q

test-sqlite:
	REPRO_STORAGE=sqlite $(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-only

bench-stream:
	$(PYTHON) -m pytest benchmarks/bench_stream_ingest.py -q

bench-kernel:
	$(PYTHON) -m pytest benchmarks/bench_kernel_combination.py -q

bench-query:
	$(PYTHON) -m pytest benchmarks/bench_scaling_selection.py \
		benchmarks/bench_table2_selection.py \
		benchmarks/bench_session_cache.py \
		benchmarks/bench_query_planner.py \
		benchmarks/bench_query_layers.py -q

bench-merge:
	$(PYTHON) -m pytest benchmarks/bench_table4_union.py \
		benchmarks/bench_scaling_union.py \
		benchmarks/bench_federation_ablation.py -q

bench-storage:
	$(PYTHON) -m pytest benchmarks/bench_storage_backends.py -q -s

# A short run is no measurement, but it runs every output check
# (digests, masses summing to one, stream replay == batch integrate):
# a change that breaks one fails here.
bench-e2e:
	$(PYTHON) -m pytest e2ebench -q
	$(PYTHON) e2ebench/run.py --workload all --seconds 5

# Real ruff findings always fail; only a *missing* ruff is forgiven,
# and only outside CI (GitHub Actions exports CI=true).
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	elif [ -n "$$CI" ]; then \
		echo "ruff not installed but CI is set; failing" >&2; exit 1; \
	else \
		echo "ruff not installed; skipping lint"; \
	fi

lint-analysis:
	$(PYTHON) -m repro.analysis --baseline analysis-baseline.json src

quickstart:
	$(PYTHON) examples/quickstart.py
