"""Binding and optimizing query plans.

:func:`build_plan` binds an AST against a database catalog: relation
names resolve to schemas, attribute references (including dotted ones
like ``RA.rname``, which map to the product schema's prefixed
``RA_rname``) resolve to schema attributes, and syntactic conditions
become algebra predicates.

:func:`optimize` normalizes the bound plan with two node-local rewrite
rules:

* **selections** -- adjacent selection fusion (the multiplicative
  membership revision is associative) and pushdown of single-side
  conjuncts below a product (also through an intervening projection);
* **projections** -- adjacent projection fusion and pushdown of a
  projection below a selection that only reads projected attributes.

Deliberately **no pushdown through the extended union or
intersection**: both Dempster-combine matched tuples, and combining
*then* selecting is not the same as selecting *then* combining
(filtering a source first would both change which tuples match and let
an unmatched low-support tuple pass through unrevised).  The test-suite
pins this down with a counterexample.  No rewrites across a rename
either: it is pure plumbing and rare enough that translating predicates
through it is not worth it.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import PlanError
from repro.model.evidence import EvidenceSet
from repro.model.schema import RelationSchema
from repro.algebra.predicates import (
    And,
    AttributeOperand,
    IsPredicate,
    LiteralOperand,
    Not,
    Or,
    Predicate,
    ThetaPredicate,
)
from repro.algebra.product import _rename_map
from repro.algebra.thresholds import SN_POSITIVE, MembershipThreshold
from repro.query import ast
from repro.query.parser import parse
from repro.query.plans import (
    IntersectPlan,
    Plan,
    ProductPlan,
    ProjectPlan,
    RenamePlan,
    ScanPlan,
    SelectPlan,
    UnionPlan,
)


# ---------------------------------------------------------------------------
# Binding
# ---------------------------------------------------------------------------


def _resolve_name(ref: ast.NameRef, schema: RelationSchema) -> str:
    """Resolve a (possibly dotted) attribute reference against a schema."""
    if ref.qualifier is not None:
        prefixed = f"{ref.qualifier}_{ref.name}"
        if prefixed in schema:
            return prefixed
        if ref.name in schema:
            return ref.name
        raise PlanError(
            f"cannot resolve {ref.render()!r} against relation "
            f"{schema.name!r} (attributes: {', '.join(schema.names)})"
        )
    if ref.name in schema:
        return ref.name
    raise PlanError(
        f"unknown attribute {ref.name!r} of relation {schema.name!r} "
        f"(attributes: {', '.join(schema.names)})"
    )


def _bind_operand(node, schema: RelationSchema):
    if isinstance(node, ast.NameRef):
        return AttributeOperand(_resolve_name(node, schema))
    if isinstance(node, ast.ValueLiteral):
        value = node.value
        if isinstance(value, float):
            value = Fraction(str(value))
        return LiteralOperand(value)
    if isinstance(node, ast.EvidenceLiteral):
        return LiteralOperand(EvidenceSet.parse(node.text))
    raise PlanError(f"cannot bind operand {node!r}")


def _bind_condition(node, schema: RelationSchema) -> Predicate:
    if isinstance(node, ast.IsCondition):
        return IsPredicate(_resolve_name(node.attribute, schema), node.values)
    if isinstance(node, ast.CompareCondition):
        return ThetaPredicate(
            _bind_operand(node.left, schema),
            node.op,
            _bind_operand(node.right, schema),
        )
    if isinstance(node, ast.AndCondition):
        return And(*[_bind_condition(part, schema) for part in node.parts])
    if isinstance(node, ast.OrCondition):
        return Or(*[_bind_condition(part, schema) for part in node.parts])
    if isinstance(node, ast.NotCondition):
        return Not(_bind_condition(node.part, schema))
    raise PlanError(f"cannot bind condition {node!r}")


_THRESHOLD_CHECKS = {
    ("sn", ">"): lambda bound: lambda tm: tm.sn > bound,
    ("sn", ">="): lambda bound: lambda tm: tm.sn >= bound,
    ("sn", "="): lambda bound: lambda tm: tm.sn == bound,
    ("sn", "<"): lambda bound: lambda tm: tm.sn < bound,
    ("sn", "<="): lambda bound: lambda tm: tm.sn <= bound,
    ("sp", ">"): lambda bound: lambda tm: tm.sp > bound,
    ("sp", ">="): lambda bound: lambda tm: tm.sp >= bound,
    ("sp", "="): lambda bound: lambda tm: tm.sp == bound,
    ("sp", "<"): lambda bound: lambda tm: tm.sp < bound,
    ("sp", "<="): lambda bound: lambda tm: tm.sp <= bound,
}


def _bind_thresholds(terms: tuple[ast.ThresholdTerm, ...]) -> MembershipThreshold:
    threshold = SN_POSITIVE
    for term in terms:
        try:
            make_check = _THRESHOLD_CHECKS[(term.field, term.op)]
        except KeyError:
            raise PlanError(
                f"unsupported threshold {term.field} {term.op}"
            ) from None
        threshold = threshold & MembershipThreshold(
            make_check(term.bound), f"{term.field} {term.op} {term.bound}"
        )
    return threshold


def _bind_source(node, database) -> Plan:
    if isinstance(node, ast.RelationSource):
        relation = database.get(node.name)
        return ScanPlan(node.name, relation.schema)
    if isinstance(node, ast.JoinSource):
        left = _bind_source(node.left, database)
        right = _bind_source(node.right, database)
        paired = ProductPlan(left, right)
        predicate = _bind_condition(node.condition, paired.schema())
        return SelectPlan(paired, predicate, SN_POSITIVE)
    if isinstance(node, ast.SubquerySource):
        return build_plan(node.query, database)
    raise PlanError(f"cannot bind source {node!r}")


def build_plan(statement, database) -> Plan:
    """Bind a parsed statement into a logical plan.

    >>> from repro.storage import Database
    >>> from repro.datasets.restaurants import table_ra
    >>> db = Database(); db.add(table_ra())
    >>> plan = build_plan(parse("SELECT rname FROM RA"), db)
    >>> print(plan.describe())
    Project [rname]
      Scan RA
    """
    if isinstance(statement, ast.SelectStatement):
        plan = _bind_source(statement.source, database)
        if statement.condition is not None or statement.thresholds:
            predicate = (
                _bind_condition(statement.condition, plan.schema())
                if statement.condition is not None
                else None
            )
            threshold = _bind_thresholds(statement.thresholds)
            plan = SelectPlan(plan, predicate, threshold)
        if statement.projection is not None:
            try:
                plan = ProjectPlan(plan, statement.projection)
            except Exception as exc:
                raise PlanError(str(exc)) from exc
        return plan
    if isinstance(statement, ast.UnionStatement):
        left = _bind_source(statement.left, database)
        right = _bind_source(statement.right, database)
        if statement.operator == "intersect":
            plan: Plan = IntersectPlan(left, right)
        else:
            plan = UnionPlan(left, right)
        if statement.keys is not None:
            actual = set(plan.schema().key_names)
            if set(statement.keys) != actual:
                raise PlanError(
                    f"UNION BY ({', '.join(statement.keys)}) does not match "
                    f"the key attributes ({', '.join(sorted(actual))})"
                )
        return plan
    raise PlanError(f"cannot plan statement {statement!r}")


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------


def optimize(plan: Plan) -> Plan:
    """Normalize *plan* (semantics-preserving by construction).

    The selection rule runs bottom-up until it stops changing the plan,
    then the projection rule does the same; rounds repeat until one
    changes nothing.
    """
    changed = True
    while changed:
        plan, select_changed = _to_fixpoint(plan, _rewrite_select)
        plan, project_changed = _to_fixpoint(plan, _rewrite_project)
        changed = select_changed or project_changed
    return plan


def _to_fixpoint(plan: Plan, rule) -> tuple[Plan, bool]:
    """Apply *rule* everywhere until it stops changing *plan*."""
    any_changed = False
    changed = True
    while changed:
        plan, changed = _bottom_up(plan, rule)
        any_changed = any_changed or changed
    return plan, any_changed


def _bottom_up(plan: Plan, rule) -> tuple[Plan, bool]:
    """Rebuild children first, then apply the node-local *rule* once."""
    changed = False
    if isinstance(plan, SelectPlan):
        child, child_changed = _bottom_up(plan.child, rule)
        if child_changed:
            plan = SelectPlan(child, plan.predicate, plan.threshold)
            changed = True
    elif isinstance(plan, ProjectPlan):
        child, child_changed = _bottom_up(plan.child, rule)
        if child_changed:
            plan = ProjectPlan(child, plan.names)
            changed = True
    elif isinstance(plan, RenamePlan):
        child, child_changed = _bottom_up(plan.child, rule)
        if child_changed:
            plan = RenamePlan(child, plan.mapping)
            changed = True
    elif isinstance(plan, UnionPlan):
        left, left_changed = _bottom_up(plan.left, rule)
        right, right_changed = _bottom_up(plan.right, rule)
        if left_changed or right_changed:
            plan = UnionPlan(left, right, plan.on_conflict)
            changed = True
    elif isinstance(plan, IntersectPlan):
        left, left_changed = _bottom_up(plan.left, rule)
        right, right_changed = _bottom_up(plan.right, rule)
        if left_changed or right_changed:
            plan = IntersectPlan(left, right, plan.on_conflict)
            changed = True
    elif isinstance(plan, ProductPlan):
        left, left_changed = _bottom_up(plan.left, rule)
        right, right_changed = _bottom_up(plan.right, rule)
        if left_changed or right_changed:
            plan = ProductPlan(left, right)
            changed = True
    rewritten, local = rule(plan)
    return rewritten, changed or local


def _is_trivial_threshold(threshold: MembershipThreshold) -> bool:
    return threshold is SN_POSITIVE or threshold.description == "sn > 0"


def _conjuncts(predicate: Predicate | None) -> list[Predicate]:
    if predicate is None:
        return []
    if isinstance(predicate, And):
        return list(predicate.parts)
    return [predicate]


def _conjoin(parts: list[Predicate]) -> Predicate | None:
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return And(*parts)


def _rewrite_select(plan: Plan) -> tuple[Plan, bool]:
    """Selection fusion + pushdown below a product (node-local)."""
    if not isinstance(plan, SelectPlan):
        return plan, False
    child = plan.child
    # Fuse adjacent selections when the inner threshold is trivial.
    if isinstance(child, SelectPlan) and _is_trivial_threshold(child.threshold):
        merged = _conjoin(_conjuncts(child.predicate) + _conjuncts(plan.predicate))
        return SelectPlan(child.child, merged, plan.threshold), True
    # Push single-side conjuncts below a product -- also through an
    # intervening projection (projection neither renames attributes nor
    # touches memberships, so the multiplicative revision commutes).
    through_project: ProjectPlan | None = None
    product_child: ProductPlan | None = None
    if isinstance(child, ProductPlan):
        product_child = child
    elif isinstance(child, ProjectPlan) and isinstance(child.child, ProductPlan):
        through_project = child
        product_child = child.child
    if product_child is not None and plan.predicate is not None:
        left_schema = product_child.left.schema()
        right_schema = product_child.right.schema()
        # original -> product-visible name on each side...
        left_renames = _rename_map(left_schema, right_schema)
        right_renames = _rename_map(right_schema, left_schema)
        # ...and back, to translate pushed predicates into scan names.
        left_restore = {new: old for old, new in left_renames.items()}
        right_restore = {new: old for old, new in right_renames.items()}
        push_left: list[Predicate] = []
        push_right: list[Predicate] = []
        keep: list[Predicate] = []
        for conjunct in _conjuncts(plan.predicate):
            attrs = conjunct.attributes()
            if attrs and attrs <= set(left_restore):
                push_left.append(conjunct.rename_attributes(left_restore))
            elif attrs and attrs <= set(right_restore):
                push_right.append(conjunct.rename_attributes(right_restore))
            else:
                keep.append(conjunct)
        if push_left or push_right:
            left = product_child.left
            right = product_child.right
            if push_left:
                left = SelectPlan(left, _conjoin(push_left), SN_POSITIVE)
            if push_right:
                right = SelectPlan(right, _conjoin(push_right), SN_POSITIVE)
            inner: Plan = ProductPlan(left, right)
            if through_project is not None:
                inner = ProjectPlan(inner, through_project.names)
            remaining = _conjoin(keep)
            if remaining is None and _is_trivial_threshold(plan.threshold):
                return inner, True
            return SelectPlan(inner, remaining, plan.threshold), True
    return plan, False


def _rewrite_project(plan: Plan) -> tuple[Plan, bool]:
    """Projection fusion + pushdown below a selection (node-local)."""
    if not isinstance(plan, ProjectPlan):
        return plan, False
    child = plan.child
    # Fuse adjacent projections.
    if isinstance(child, ProjectPlan):
        return ProjectPlan(child.child, plan.names), True
    # Push a projection below a selection that only reads projected attrs.
    if isinstance(child, SelectPlan):
        predicate_attrs = (
            child.predicate.attributes() if child.predicate is not None else frozenset()
        )
        if predicate_attrs <= set(plan.names) and not isinstance(
            child.child, ProjectPlan
        ):
            pushed = ProjectPlan(child.child, plan.names)
            return SelectPlan(pushed, child.predicate, child.threshold), True
    return plan, False
