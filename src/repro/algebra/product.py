"""Extended cartesian product (Section 3.4).

The product concatenates every pair of tuples from the two inputs and
combines their membership pairs with the multiplicative rule ``F_TM``
(the two tuples' memberships are independent events).  Clashing
attribute names are disambiguated with relation-name prefixes by
:meth:`RelationSchema.concat`; the product key is the union of both
keys.

Tuples whose combined membership has ``sn = 0`` cannot exist in a valid
extended relation and are not materialized -- consistent with CWA_ER and
required for the closure property.  (With CWA_ER-conformant inputs this
never triggers, since ``sn1 > 0`` and ``sn2 > 0`` imply
``sn1 * sn2 > 0``.)
"""

from __future__ import annotations

from repro.model.etuple import ExtendedTuple
from repro.model.relation import ExtendedRelation


def _rename_map(schema, other_schema) -> dict[str, str]:
    """Attribute renaming applied by ``schema.concat`` to *schema*'s side."""
    clashes = set(schema.names) & set(other_schema.names)
    return {
        name: (f"{schema.name}_{name}" if name in clashes else name)
        for name in schema.names
    }


def product(
    left: ExtendedRelation,
    right: ExtendedRelation,
    name: str | None = None,
) -> ExtendedRelation:
    """``R x S``: the extended cartesian product.

    >>> from repro.datasets.restaurants import table_ra, table_rm_a
    >>> pairs = product(table_ra(), table_rm_a())
    >>> len(pairs) == len(table_ra()) * len(table_rm_a())
    True
    """
    schema = left.schema.concat(right.schema, name)
    left_map = _rename_map(left.schema, right.schema)
    right_map = _rename_map(right.schema, left.schema)
    combined: list[ExtendedTuple] = []
    for l_tuple in left:
        l_values = {left_map[k]: v for k, v in l_tuple.items()}
        for r_tuple in right:
            values = dict(l_values)
            for k, v in r_tuple.items():
                values[right_map[k]] = v
            membership = l_tuple.membership.combine_product(r_tuple.membership)
            if not membership.is_supported:
                continue
            combined.append(ExtendedTuple(schema, values, membership))
    return ExtendedRelation(schema, combined, on_unsupported="drop")
