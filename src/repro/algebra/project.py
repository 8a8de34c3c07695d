"""Extended projection (Section 3.3).

The extended projection restricts every tuple to a subset of attributes
that must include the key attributes; the tuple membership attribute is
carried along implicitly (the paper lists it explicitly in the projected
attribute set).  Because keys are retained, no two projected tuples can
collide, and memberships never need merging.
"""

from __future__ import annotations

from collections.abc import Iterable

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
    projected = [etuple.project(schema) for etuple in relation]
    return ExtendedRelation(schema, projected, on_unsupported="drop")
