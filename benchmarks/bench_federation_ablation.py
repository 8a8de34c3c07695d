"""Ablations: conflict policies, intersection vs union, n-way federation.

Design choices DESIGN.md calls out, measured:

* **conflict policy** -- raise/vacuous/drop cost the same on clean data;
  on conflicting data, the report-and-continue policies trade a little
  bookkeeping for robustness;
* **intersection vs union** -- the consensus operation does strictly
  less work (no pass-through tuples);
* **federation width** -- folding 2/4/8 sources left to right costs one
  pairwise merge per added source, each against the result so far.
  Each source is generated from its own seed, so every merge combines
  differing evidence about the same 60 entities.
"""

from dataclasses import replace

import pytest

from repro.algebra import intersection, union
from repro.integration import Federation, TupleMerger
from repro.datasets.generators import SyntheticConfig, synthetic_relation
from benchmarks.conftest import synthetic_workload


@pytest.fixture(scope="module")
def workload():
    return synthetic_workload(200)


@pytest.mark.parametrize("policy", ["vacuous", "drop"])
def test_conflict_policy_ablation(benchmark, workload, policy):
    left, right = workload
    result = benchmark(union, left, right, None, policy)
    assert len(result) > 0


def test_intersection_vs_union(benchmark, workload):
    left, right = workload
    consensus = benchmark(intersection, left, right, None, "vacuous")
    integrated = union(left, right, on_conflict="vacuous")
    # The consensus is exactly the matched subset of the union.
    assert set(consensus.keys()) <= set(integrated.keys())
    assert len(consensus) < len(integrated)


def test_entity_point_query_vs_materialization(benchmark):
    """On-demand single-entity merging beats materializing everything
    when only one entity is asked for -- the seed of the paper's
    query-processing-with-conflict-resolution direction."""
    config = SyntheticConfig(n_tuples=400, ignorance=1.0, seed=13)
    sources = [synthetic_relation(config, name) for name in ("A", "B", "C")]
    federation = Federation(TupleMerger(on_conflict="vacuous"))
    for index, relation in enumerate(sources):
        federation.add_source(f"s{index}", relation)

    on_demand = benchmark(federation.integrate_entity, (7,))
    materialized, _ = federation.integrate(name="F")
    row = materialized.get((7,))
    assert on_demand.membership == row.membership
    assert on_demand.evidence("category") == row.evidence("category")


@pytest.mark.parametrize("n_sources", [2, 4, 8])
def test_federation_width(benchmark, n_sources):
    config = SyntheticConfig(n_tuples=60, ignorance=1.0, seed=11)
    sources = [
        synthetic_relation(replace(config, seed=11 + i), f"S{i}")
        for i in range(n_sources)
    ]

    def integrate():
        federation = Federation(TupleMerger(on_conflict="vacuous"))
        for index, relation in enumerate(sources):
            federation.add_source(f"s{index}", relation)
        return federation.integrate(name="F")

    integrated, report = benchmark(integrate)
    assert len(integrated) == 60  # all sources share the key space
    assert len(report.steps) == n_sources - 1
    # Full ignorance mass on every evidence set -> no total conflicts.
    assert report.total_conflicts == 0
