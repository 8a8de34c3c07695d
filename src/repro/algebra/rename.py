"""Attribute renaming.

Not one of the paper's five operations, but required plumbing for
composing them: cartesian products prefix clashing attribute names, and
query plans need to undo or customize that.  Renaming touches neither
attribute values nor memberships.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.model.relation import ExtendedRelation


def rename(
    relation: ExtendedRelation,
    mapping: Mapping[str, str],
    name: str | None = None,
) -> ExtendedRelation:
    """A copy of *relation* with attributes renamed via ``{old: new}``.

    >>> from repro.datasets.restaurants import table_ra
    >>> renamed = rename(table_ra(), {"rname": "restaurant"})
    >>> "restaurant" in renamed.schema
    True
    """
    schema = relation.schema.rename_attributes(mapping, name)
    renamed_tuples = [etuple.renamed(schema, dict(mapping)) for etuple in relation]
    return ExtendedRelation(schema, renamed_tuples, on_unsupported="drop")
