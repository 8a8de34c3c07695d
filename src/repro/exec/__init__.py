"""The physical execution layer: logical plans, rewritten and lowered.

The paper's operators work per entity (definite keys identify
real-world entities; Dempster merges, union, intersection and selection
never mix entities), so one serial pass over the relations is already
exact.  The layer has two halves:

* :mod:`repro.exec.rewrite` -- the logical rewrite-pass pipeline
  (selection fusion/pushdown, projection pruning) run before lowering,
  so physical operators see normalized plans;
* :mod:`repro.exec.physical` -- per-node lowering of the logical plan
  IR onto physical operators, each evaluated in this process inside a
  ``physical.<op>`` tracing span.

>>> from repro.datasets.restaurants import table_ra, table_rb
>>> from repro.query.plans import LiteralPlan, UnionPlan
>>> print(describe_physical(UnionPlan(LiteralPlan(table_ra()), LiteralPlan(table_rb()))))
Union by (rname)  <per-entity merge (in algebra.union)>
  Literal RA (6 tuples)  <in-memory relation>
  Literal RB (5 tuples)  <in-memory relation>
"""

from repro.exec.physical import (
    PhysicalOperator,
    apply_node,
    describe_physical,
    lower,
    run_plan,
)
from repro.exec.rewrite import PassPipeline, RewritePass, default_pipeline

__all__ = [
    "PassPipeline",
    "PhysicalOperator",
    "RewritePass",
    "apply_node",
    "default_pipeline",
    "describe_physical",
    "lower",
    "run_plan",
]
