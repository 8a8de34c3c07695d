"""Extended intersection (extension beyond the paper).

Where the extended union keeps *every* entity either source knows about,
the extended intersection keeps only entities **both** sources support
(matched keys), combining their evidence with Dempster's rule exactly as
the union does -- both run the same key-matched loop over
:class:`repro.integration.merging.TupleMerger`'s pair merge, so the
policies, the :class:`~repro.integration.merging.MergeReport` and the
merged tuples are the union's.  It answers "what do the sources agree
exists?" -- the consensus subset of the integration -- and is the
natural counterpart the paper leaves implicit (its union already
performs the combination; intersection merely restricts to the matched
keys).

Like every operation, the result satisfies closure and boundedness:
unmatched tuples are absent, matched tuples have sn > 0 because both
inputs did (the same argument as for the union), and complement tuples
cannot match anything.
"""

from __future__ import annotations

from repro.model.relation import ExtendedRelation
from repro.integration.merging import MergeReport
from repro.algebra.union import _merge_by_key


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
) -> tuple[ExtendedRelation, MergeReport]:
    """Extended intersection plus the conflict report."""
    return _merge_by_key(
        left,
        right,
        name if name is not None else f"{left.name}_intersect_{right.name}",
        on_conflict,
        keep_unmatched=False,
    )
