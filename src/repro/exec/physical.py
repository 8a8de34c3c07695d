"""Physical execution: logical plans lowered onto physical operators.

The logical plan IR (:mod:`repro.query.plans`) describes *what* to
compute; this module decides *how*.  Every logical node lowers 1:1 onto
a physical operator that evaluates the node and wraps it in a
``physical.<op>`` tracing span.  Per-operator strategy:

* ``Scan`` / ``Literal`` -- catalog lookup / in-memory relation.
* ``Select`` / ``Project`` / ``Rename`` / ``Product`` -- evaluated in
  one pass.
* ``Union`` / ``Intersect`` -- delegated to the algebra's per-entity
  merge (:func:`repro.algebra.union.union_with_report` /
  :func:`repro.algebra.intersection.intersection_with_report`).

Entry points: :func:`run_plan` executes a whole plan tree (what
:meth:`repro.query.plans.Plan.execute` delegates to), and
:func:`apply_node` evaluates a single node given its children's results
(what :meth:`repro.session.Session._run` calls between its per-subtree
result-cache lookups -- fingerprints and cache keys are untouched by
physical lowering).
"""

from __future__ import annotations

from repro.model.relation import ExtendedRelation
from repro.obs import tracing
from repro.query.plans import (
    IntersectPlan,
    LiteralPlan,
    Plan,
    ProductPlan,
    ProjectPlan,
    RenamePlan,
    ScanPlan,
    SelectPlan,
    UnionPlan,
)


#: Logical node type -> (span op name, strategy shown by ``describe``).
_OPERATORS: dict[type, tuple[str, str]] = {
    ScanPlan: ("scan", "catalog lookup"),
    LiteralPlan: ("literal", "in-memory relation"),
    SelectPlan: ("select", "tuple-wise, one pass"),
    ProjectPlan: ("project", "tuple-wise, one pass"),
    RenamePlan: ("rename", "tuple-wise, one pass"),
    UnionPlan: ("union", "per-entity merge (in algebra.union)"),
    IntersectPlan: ("intersect", "per-entity merge (in algebra.union)"),
    ProductPlan: ("product", "left-major nested loop"),
}


class PhysicalOperator:
    """A physical counterpart of one logical node (plus lowered children)."""

    def __init__(self, plan: Plan, children: tuple["PhysicalOperator", ...]):
        self.plan = plan
        self.children = children
        #: Short operator name used in span names (``physical.<op>``)
        #: and the human-readable evaluation strategy.
        self.op, self.strategy = _OPERATORS.get(
            type(plan), ("node", "passthrough")
        )

    def schema(self):
        """The operator's output schema (the logical node's)."""
        return self.plan.schema()

    def execute(self, database) -> ExtendedRelation:
        """Evaluate the whole physical subtree."""
        inputs = tuple(child.execute(database) for child in self.children)
        return self.traced_apply(inputs, database)

    def traced_apply(self, inputs, database) -> ExtendedRelation:
        """Evaluate this operator alone, in a ``physical.<op>`` span.

        The one extra cost with tracing disabled is the flag check; with
        it enabled the span records the node label and the exact
        input/output row counts.
        """
        if not tracing.enabled():
            return self.plan.apply(inputs, database)
        with tracing.span(
            "physical." + self.op, label=self.plan.label()
        ) as current:
            result = self.plan.apply(inputs, database)
            current.note(
                rows_in=[len(relation) for relation in inputs],
                rows_out=len(result),
            )
            return result

    def describe(self, indent: int = 0) -> str:
        """The physical tree as indented text (strategy per node)."""
        lines = ["  " * indent + f"{self.plan.label()}  <{self.strategy}>"]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.plan.label()!r})"


def lower(plan: Plan) -> PhysicalOperator:
    """Lower a logical plan tree to its physical operator tree."""
    return PhysicalOperator(
        plan, tuple(lower(child) for child in plan.children())
    )


def lower_node(plan: Plan) -> PhysicalOperator:
    """Lower a single node (children not lowered; for per-node engines)."""
    return PhysicalOperator(plan, ())


def apply_node(plan: Plan, inputs, database) -> ExtendedRelation:
    """Evaluate one logical node physically, given its children's results."""
    return lower_node(plan).traced_apply(tuple(inputs), database)


def run_plan(plan: Plan, database) -> ExtendedRelation:
    """Execute a whole logical plan through the physical layer."""
    return lower(plan).execute(database)


def describe_physical(plan: Plan) -> str:
    """The physical plan of *plan*, as indented text (for tooling)."""
    return lower(plan).describe()
