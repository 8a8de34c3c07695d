"""Extended projection (Section 3.3).

The extended projection restricts every tuple to a subset of attributes
that must include the key attributes; the tuple membership attribute is
carried along implicitly (the paper lists it explicitly in the projected
attribute set).  Because keys are retained, no two projected tuples can
collide, and memberships never need merging.

A tuple whose schema has the input relation's attributes (the layout
test of :mod:`repro.integration.merging`) holds values already checked
against them, and the projected schema keeps those attribute objects:
its projection shares the values and the membership, with the key taken
in the projected key order, and skips the constructor.  Any other tuple
is projected through the constructor.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.integration.merging import _SameLayout
from repro.model.relation import ExtendedRelation


def project(
    relation: ExtendedRelation,
    names: Iterable[str],
    name: str | None = None,
) -> ExtendedRelation:
    """``project(R, names)``: restriction to *names* (keys required).

    >>> from repro.datasets.restaurants import table_ra
    >>> result = project(table_ra(), ["rname", "phone", "speciality", "rating"])
    >>> result.schema.names
    ('rname', 'phone', 'speciality', 'rating')
    """
    schema = relation.schema.project(list(names), name)
    same_layout = _SameLayout(relation.schema)
    projected = [
        etuple._project(schema)
        if same_layout(etuple.schema)
        else etuple.project(schema)
        for etuple in relation
    ]
    return ExtendedRelation(schema, projected, on_unsupported="drop")
