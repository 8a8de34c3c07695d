"""Extended intersection (extension beyond the paper).

Where the extended union keeps *every* entity either source knows about,
the extended intersection keeps only entities **both** sources support
(matched keys), combining their evidence with Dempster's rule exactly as
the union does.  It answers "what do the sources agree exists?" -- the
consensus subset of the integration -- and is the natural counterpart
the paper leaves implicit (its union already performs the combination;
intersection merely restricts to the matched keys).

Like every operation, the result satisfies closure and boundedness:
unmatched tuples are absent, matched tuples have sn > 0 because both
inputs did (the same argument as for the union), and complement tuples
cannot match anything.
"""

from __future__ import annotations

from repro.model.etuple import ExtendedTuple
from repro.model.relation import ExtendedRelation
from repro.errors import OperationError
from repro.algebra.union import CONFLICT_POLICIES, UnionReport, _merge_pair


def intersection(
    left: ExtendedRelation,
    right: ExtendedRelation,
    name: str | None = None,
    on_conflict: str = "raise",
) -> ExtendedRelation:
    """``R intersect S``: Dempster-merge of the key-matched tuples only.

    Use :func:`intersection_with_report` when the conflict report
    matters.

    >>> from repro.datasets.restaurants import table_ra, table_rb
    >>> consensus = intersection(table_ra(), table_rb())
    >>> sorted(t.key()[0] for t in consensus)
    ['country', 'garden', 'mehl', 'olive', 'wok']
    """
    merged, _ = intersection_with_report(left, right, name, on_conflict)
    return merged


def intersection_with_report(
    left: ExtendedRelation,
    right: ExtendedRelation,
    name: str | None = None,
    on_conflict: str = "raise",
) -> tuple[ExtendedRelation, UnionReport]:
    """Extended intersection plus the conflict report."""
    if on_conflict not in CONFLICT_POLICIES:
        raise OperationError(
            f"on_conflict must be one of {CONFLICT_POLICIES}, got {on_conflict!r}"
        )
    left.schema.require_union_compatible(right.schema)
    schema = left.schema.with_name(
        name if name is not None else f"{left.name}_intersect_{right.name}"
    )
    report = UnionReport()
    merged_tuples: list[ExtendedTuple] = []
    for l_tuple in left:
        key = l_tuple.key()
        r_tuple = right.get(key)
        if r_tuple is None:
            report.left_only.append(key)
            continue
        report.matched.append(key)
        merged = _merge_pair(l_tuple, r_tuple, schema, key, report, on_conflict)
        if merged is not None:
            merged_tuples.append(merged)
    for r_tuple in right:
        if r_tuple.key() not in left:
            report.right_only.append(r_tuple.key())
    return (
        ExtendedRelation(schema, merged_tuples, on_unsupported="drop"),
        report,
    )
