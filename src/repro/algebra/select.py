"""Extended selection (Section 3.1).

For every tuple ``r`` of the input relation, the selection:

1. evaluates the selection condition ``P`` to a support pair via
   ``F_SS(r, P)`` (see :mod:`repro.algebra.support`),
2. revises the tuple membership with the multiplicative rule
   ``F_TM(r.(sn,sp), F_SS(r, P))`` -- predicate satisfaction and original
   membership are treated as independent events (Figure 3),
3. keeps the tuple when the revised membership passes the membership
   threshold condition ``Q`` *and* the implicit ``sn > 0`` required for
   the result to be a valid extended relation.

The original attribute values are retained in the result (the paper's
footnote 4 contrasts this with DeMichiel's approach, which rewrites
attribute values during selection).

The predicate yields the supports of the scan
(:meth:`~repro.algebra.predicates.Predicate.supported`).  A tuple whose
support has ``sn = 0`` is skipped before step 2: ``F_TM`` would revise
its ``sn`` to 0, which step 3 drops.  An ``is``-predicate over exact
evidence computes ``Bel``/``Pls`` as int sums and skips such a tuple
before building any pair; the pairs it does build are in range by
construction and are not re-checked (see
:class:`~repro.algebra.predicates.IsPredicate`).  On exact data, a
certain tuple's revised membership is its support pair itself (see
:meth:`~repro.model.membership.TupleMembership.combine_product`).
"""

from __future__ import annotations

from repro.model.etuple import ExtendedTuple
from repro.model.relation import ExtendedRelation
from repro.algebra.predicates import Predicate
from repro.algebra.thresholds import SN_POSITIVE, MembershipThreshold


def select(
    relation: ExtendedRelation,
    predicate: Predicate,
    threshold: MembershipThreshold = SN_POSITIVE,
    name: str | None = None,
) -> ExtendedRelation:
    """``select(R, P, Q)``: the paper's extended selection.

    Composite queries should use the lazy expression API
    (:meth:`repro.storage.Database.rel`) so the planner can optimize
    across operations.

    Parameters
    ----------
    relation:
        The input extended relation.
    predicate:
        The selection condition ``P`` (is-/theta-predicates, possibly
        conjoined).
    threshold:
        The membership threshold condition ``Q``; conjoined with
        ``sn > 0`` automatically.
    name:
        Optional result relation name (defaults to the input's name).

    >>> from repro.datasets.restaurants import table_ra
    >>> from repro.algebra import IsPredicate, select
    >>> result = select(table_ra(), IsPredicate("speciality", {"si"}))
    >>> sorted(t.key()[0] for t in result)
    ['garden', 'wok']
    """
    predicate.validate_against(relation.schema)
    schema = relation.schema if name is None else relation.schema.with_name(name)
    selected: list[ExtendedTuple] = []
    for etuple, support in predicate.supported(relation):
        revised = etuple.membership.combine_product(support)
        if not revised.is_supported:
            continue
        if not threshold(revised):
            continue
        if schema is relation.schema:
            selected.append(etuple.with_membership(revised))
        else:
            selected.append(
                ExtendedTuple(schema, dict(etuple.items()), revised)
            )
    return ExtendedRelation(schema, selected, on_unsupported="drop")
