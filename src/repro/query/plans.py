"""Logical query plans over the extended algebra.

Plans are bound trees: every node knows its output schema at build time
(binding happens in :mod:`repro.query.planner`), so attribute resolution
errors surface before execution.  Each node evaluates by calling its
algebra operation directly:

* :class:`ScanPlan` -> catalog lookup
* :class:`LiteralPlan` -> an in-memory relation (no catalog involved)
* :class:`SelectPlan` -> :func:`repro.algebra.select` (a ``None``
  predicate means a pure membership-threshold filter)
* :class:`ProjectPlan` -> :func:`repro.algebra.project`
* :class:`RenamePlan` -> :func:`repro.algebra.rename`
* :class:`UnionPlan` -> :func:`repro.algebra.union_with_report`
* :class:`IntersectPlan` ->
  :func:`repro.algebra.intersection.intersection_with_report`
* :class:`ProductPlan` -> :func:`repro.algebra.product`

(the extended join is represented as Select over Product, mirroring its
definition in Section 3.5).

Every node separates *recursion* from *evaluation*: :meth:`Plan.execute`
walks the tree, while :meth:`Plan.apply` evaluates one node given its
children's results.  :func:`run_node` is the one place a node is
evaluated: it wraps :meth:`Plan.apply` in the node's
``physical.<op>`` tracing span.  Engines that want to share work
between plans (see :class:`repro.session.Session`) recurse themselves,
memoize subtree results by fingerprint, and call :func:`run_node` per
node.
"""

from __future__ import annotations

import itertools

from abc import ABC, abstractmethod

from repro.errors import PlanError
from repro.model.relation import ExtendedRelation
from repro.model.schema import RelationSchema
from repro.integration.merging import require_policy
from repro.algebra.predicates import Predicate
from repro.algebra.select import select
from repro.algebra.project import project
from repro.algebra.product import product
from repro.algebra.union import union_with_report
from repro.algebra.intersection import intersection_with_report
from repro.algebra.rename import rename
from repro.algebra.thresholds import SN_POSITIVE, MembershipThreshold
from repro.obs import tracing


def run_node(plan: "Plan", inputs, database) -> ExtendedRelation:
    """Evaluate one node given its children's results.

    With tracing enabled the evaluation runs in a ``physical.<op>``
    span that records the node label and the exact input/output row
    counts; otherwise the one extra cost is the flag check.
    """
    if not tracing.enabled():
        return plan.apply(inputs, database)
    with tracing.span("physical." + plan.op, label=plan.label()) as current:
        result = plan.apply(inputs, database)
        current.note(
            rows_in=[len(relation) for relation in inputs],
            rows_out=len(result),
        )
        return result


class Plan(ABC):
    """A bound logical plan node."""

    #: Operation name used in the node's ``physical.<op>`` span.
    op: str

    @abstractmethod
    def schema(self) -> RelationSchema:
        """The node's output schema."""

    @abstractmethod
    def apply(
        self, inputs: tuple[ExtendedRelation, ...], database
    ) -> ExtendedRelation:
        """Evaluate this node alone, given its children's results."""

    @abstractmethod
    def children(self) -> tuple["Plan", ...]:
        """Child plan nodes."""

    @abstractmethod
    def label(self) -> str:
        """One-line description of this node."""

    def execute(self, database) -> ExtendedRelation:
        """Evaluate the whole subtree against a database catalog."""
        inputs = tuple(child.execute(database) for child in self.children())
        return run_node(self, inputs, database)

    def describe(self, indent: int = 0) -> str:
        """The plan subtree as indented text (for ``EXPLAIN``)."""
        lines = ["  " * indent + self.label()]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)


def scan_names(plan: "Plan") -> frozenset:
    """The catalog relation names a plan subtree reads (its Scan leaves).

    Literal leaves carry their own relation and depend on nothing in the
    catalog.  Sessions use this set for targeted cache invalidation.
    """
    names = set()
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, ScanPlan):
            names.add(node.name)
        stack.extend(node.children())
    return frozenset(names)


class ScanPlan(Plan):
    """Read a named relation from the catalog."""

    op = "scan"

    def __init__(self, name: str, schema: RelationSchema):
        self._name = name
        self._schema = schema

    @property
    def name(self) -> str:
        """The catalog name being scanned."""
        return self._name

    def schema(self) -> RelationSchema:
        return self._schema

    def apply(self, inputs, database) -> ExtendedRelation:
        return database.get(self._name)

    def children(self) -> tuple[Plan, ...]:
        return ()

    def label(self) -> str:
        return f"Scan {self._name}"


class LiteralPlan(Plan):
    """An in-memory relation used directly as a plan leaf.

    This is how expressions mix catalog relations with ad-hoc ones.
    Each instance carries a process-unique token so two literals never
    alias in a plan/result cache.
    """

    op = "literal"
    _counter = itertools.count(1)

    def __init__(self, relation: ExtendedRelation):
        self._relation = relation
        self._token = next(LiteralPlan._counter)

    @property
    def relation(self) -> ExtendedRelation:
        """The wrapped relation."""
        return self._relation

    @property
    def token(self) -> int:
        """Process-unique identity token (cache-key salt)."""
        return self._token

    def schema(self) -> RelationSchema:
        return self._relation.schema

    def apply(self, inputs, database) -> ExtendedRelation:
        return self._relation

    def children(self) -> tuple[Plan, ...]:
        return ()

    def label(self) -> str:
        return f"Literal {self._relation.name} ({len(self._relation)} tuples)"


class SelectPlan(Plan):
    """Extended selection; ``predicate=None`` filters on membership only."""

    op = "select"

    def __init__(
        self,
        child: Plan,
        predicate: Predicate | None,
        threshold: MembershipThreshold = SN_POSITIVE,
    ):
        self._child = child
        self._predicate = predicate
        self._threshold = threshold

    @property
    def predicate(self) -> Predicate | None:
        """The selection condition (``None`` for threshold-only)."""
        return self._predicate

    @property
    def threshold(self) -> MembershipThreshold:
        """The membership threshold condition Q."""
        return self._threshold

    @property
    def child(self) -> Plan:
        """The input plan."""
        return self._child

    def schema(self) -> RelationSchema:
        return self._child.schema()

    def apply(self, inputs, database) -> ExtendedRelation:
        (relation,) = inputs
        if self._predicate is not None:
            return select(relation, self._predicate, self._threshold)
        kept = [
            etuple
            for etuple in relation
            if etuple.membership.is_supported and self._threshold(etuple.membership)
        ]
        return ExtendedRelation(relation.schema, kept, on_unsupported="drop")

    def children(self) -> tuple[Plan, ...]:
        return (self._child,)

    def label(self) -> str:
        predicate = repr(self._predicate) if self._predicate is not None else "-"
        return f"Select P={predicate} Q=[{self._threshold.description}]"


class ProjectPlan(Plan):
    """Extended projection."""

    op = "project"

    def __init__(self, child: Plan, names: tuple[str, ...]):
        self._child = child
        self._names = tuple(names)
        self._schema = child.schema().project(self._names)

    @property
    def names(self) -> tuple[str, ...]:
        """The projected attribute names."""
        return self._names

    @property
    def child(self) -> Plan:
        """The input plan."""
        return self._child

    def schema(self) -> RelationSchema:
        return self._schema

    def apply(self, inputs, database) -> ExtendedRelation:
        return project(inputs[0], self._names)

    def children(self) -> tuple[Plan, ...]:
        return (self._child,)

    def label(self) -> str:
        return f"Project [{', '.join(self._names)}]"


class RenamePlan(Plan):
    """Attribute renaming (plumbing; touches no values or memberships)."""

    op = "rename"

    def __init__(self, child: Plan, mapping: dict[str, str]):
        self._child = child
        self._mapping = dict(mapping)
        self._schema = child.schema().rename_attributes(self._mapping)

    @property
    def mapping(self) -> dict[str, str]:
        """The ``{old: new}`` attribute renaming."""
        return dict(self._mapping)

    @property
    def child(self) -> Plan:
        """The input plan."""
        return self._child

    def schema(self) -> RelationSchema:
        return self._schema

    def apply(self, inputs, database) -> ExtendedRelation:
        return rename(inputs[0], self._mapping)

    def children(self) -> tuple[Plan, ...]:
        return (self._child,)

    def label(self) -> str:
        pairs = ", ".join(
            f"{old}->{new}" for old, new in sorted(self._mapping.items())
        )
        return f"Rename [{pairs}]"


class UnionPlan(Plan):
    """Extended union (attribute-value conflict resolution)."""

    op = "union"

    def __init__(self, left: Plan, right: Plan, on_conflict: str = "raise"):
        left.schema().require_union_compatible(right.schema())
        self._left = left
        self._right = right
        self._on_conflict = require_policy(on_conflict, PlanError)

    @property
    def left(self) -> Plan:
        """Left input."""
        return self._left

    @property
    def right(self) -> Plan:
        """Right input."""
        return self._right

    @property
    def on_conflict(self) -> str:
        """Total-conflict policy (``raise`` / ``vacuous`` / ``drop``)."""
        return self._on_conflict

    def schema(self) -> RelationSchema:
        return self._left.schema()

    def apply(self, inputs, database) -> ExtendedRelation:
        merged, _ = union_with_report(
            inputs[0], inputs[1], on_conflict=self._on_conflict
        )
        return merged

    def children(self) -> tuple[Plan, ...]:
        return (self._left, self._right)

    def label(self) -> str:
        keys = ", ".join(self._left.schema().key_names)
        return f"Union by ({keys})"


class IntersectPlan(Plan):
    """Extended intersection (consensus extension): Dempster-merge of
    the key-matched tuples only."""

    op = "intersect"

    def __init__(self, left: Plan, right: Plan, on_conflict: str = "raise"):
        left.schema().require_union_compatible(right.schema())
        self._left = left
        self._right = right
        self._on_conflict = require_policy(on_conflict, PlanError)

    @property
    def left(self) -> Plan:
        """Left input."""
        return self._left

    @property
    def right(self) -> Plan:
        """Right input."""
        return self._right

    @property
    def on_conflict(self) -> str:
        """Total-conflict policy (``raise`` / ``vacuous`` / ``drop``)."""
        return self._on_conflict

    def schema(self) -> RelationSchema:
        return self._left.schema()

    def apply(self, inputs, database) -> ExtendedRelation:
        merged, _ = intersection_with_report(
            inputs[0], inputs[1], on_conflict=self._on_conflict
        )
        return merged

    def children(self) -> tuple[Plan, ...]:
        return (self._left, self._right)

    def label(self) -> str:
        keys = ", ".join(self._left.schema().key_names)
        return f"Intersect by ({keys})"


class ProductPlan(Plan):
    """Extended cartesian product."""

    op = "product"

    def __init__(self, left: Plan, right: Plan):
        self._left = left
        self._right = right
        self._schema = left.schema().concat(right.schema())

    @property
    def left(self) -> Plan:
        """Left input."""
        return self._left

    @property
    def right(self) -> Plan:
        """Right input."""
        return self._right

    def schema(self) -> RelationSchema:
        return self._schema

    def apply(self, inputs, database) -> ExtendedRelation:
        return product(inputs[0], inputs[1])

    def children(self) -> tuple[Plan, ...]:
        return (self._left, self._right)

    def label(self) -> str:
        return "Product"
