"""Extended union (Section 3.2): attribute-value conflict resolution.

The extended union of two union-compatible relations ``R`` and ``S``
matched on their common key:

* keeps tuples whose key appears in only one relation unchanged (the
  other relation is totally ignorant about that entity, and combining
  with vacuous evidence is the identity);
* for tuples matched on the key, combines **every common non-key
  attribute** with Dempster's rule of combination, and combines the two
  **tuple membership** pairs with Dempster's rule on the boolean frame
  (the paper's function ``F``).

This operation *is* the paper's attribute-value conflict resolution: the
two source relations are treated as independent bodies of evidence about
the same real-world entities, and Dempster's rule pools them, shrinking
uncertainty where they agree and renormalizing where they conflict.

Each matched pair goes through the one tuple merge of the integration
framework, :class:`repro.integration.merging.TupleMerger`, with every
attribute on the evidential method.  The total-conflict policies
(``"raise"``, ``"vacuous"``, ``"drop"``), the
:class:`~repro.integration.merging.MergeReport` that
:func:`union_with_report` returns and its conflict records are the
merger's.  The result lists the left relation's tuples in order, matched
ones merged in place, then the right-only tuples in right order.
"""

from __future__ import annotations

from repro.errors import OperationError
from repro.model.etuple import ExtendedTuple
from repro.model.relation import ExtendedRelation
from repro.integration.merging import (
    MergeReport,
    TupleMerger,
    _copy_under,
    _SameLayout,
    require_policy,
)


def _merge_by_key(
    left: ExtendedRelation,
    right: ExtendedRelation,
    name: str,
    on_conflict: str,
    keep_unmatched: bool,
) -> tuple[ExtendedRelation, MergeReport]:
    """Merge the key-matched tuples of *left* and *right*.

    The loop shared by the extended union (*keep_unmatched*: copy the
    left-only and right-only tuples into the result) and intersection
    (leave them out).  ``report.matched`` holds ``(key, key)`` pairs,
    as for any :class:`MergeReport`.
    """
    merger = TupleMerger(on_conflict=require_policy(on_conflict, OperationError))
    left.schema.require_union_compatible(right.schema)
    schema = left.schema.with_name(name)
    report = MergeReport()
    same_layout = _SameLayout(schema)
    merge_pair = merger._merge_pair
    merged: list[ExtendedTuple] = []
    for l_tuple in left:
        key = l_tuple.key()
        r_tuple = right.get(key)
        if r_tuple is None:
            report.left_only.append(key)
            if keep_unmatched:
                merged.append(_copy_under(schema, l_tuple, same_layout))
            continue
        report.matched.append((key, key))
        result = merge_pair(l_tuple, r_tuple, schema, report, same_layout)
        if result is not None:
            merged.append(result)
    for r_tuple in right:
        key = r_tuple.key()
        if key not in left:
            report.right_only.append(key)
            if keep_unmatched:
                merged.append(_copy_under(schema, r_tuple, same_layout))
    return ExtendedRelation(schema, merged, on_unsupported="drop"), report


def union_with_report(
    left: ExtendedRelation,
    right: ExtendedRelation,
    name: str | None = None,
    on_conflict: str = "raise",
) -> tuple[ExtendedRelation, MergeReport]:
    """Extended union returning the merged relation and a conflict report.

    >>> from repro.datasets.restaurants import table_ra, table_rb
    >>> merged, report = union_with_report(table_ra(), table_rb())
    >>> len(merged), len(report.matched), len(report.left_only)
    (6, 5, 1)
    """
    return _merge_by_key(
        left,
        right,
        name if name is not None else f"{left.name}_union_{right.name}",
        on_conflict,
        keep_unmatched=True,
    )


def union(
    left: ExtendedRelation,
    right: ExtendedRelation,
    name: str | None = None,
    on_conflict: str = "raise",
) -> ExtendedRelation:
    """``R union S`` matched on the common key (see module docstring).

    Use :func:`union_with_report` when the conflict report matters.

    >>> from repro.datasets.restaurants import table_ra, table_rb
    >>> merged = union(table_ra(), table_rb())
    >>> merged.get(("mehl",)).membership.format()
    '(5/6,5/6)'
    """
    merged, _ = union_with_report(left, right, name, on_conflict)
    return merged
