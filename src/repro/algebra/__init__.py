"""The extended relational algebra (Section 3 of the paper).

Five operations are defined over extended relations, each marked with a
tilde in the paper:

* **selection** -- evaluates a predicate to a support pair per tuple via
  the selection support function ``F_SS``, revises the membership with
  the multiplicative rule ``F_TM``, and keeps tuples passing a
  membership threshold condition ``Q`` (always conjoined with
  ``sn > 0``);
* **union** -- merges tuples matched on the common key, pooling both the
  attribute evidence and the membership evidence with Dempster's rule
  of combination (this is the attribute-value conflict resolution
  operation);
* **projection** -- restricts to a subset of attributes that must retain
  the key and implicitly keeps the membership attribute;
* **cartesian product** -- concatenates tuple pairs, combining
  memberships with ``F_TM``;
* **join** -- a cartesian product followed by a selection.

All operations satisfy the closure and boundedness properties of
Section 3.6 (Theorem 1); :mod:`repro.algebra.properties` verifies them
mechanically.
"""

from repro.algebra.predicates import (
    And,
    AttributeOperand,
    IsPredicate,
    LiteralOperand,
    Not,
    Or,
    Predicate,
    ThetaPredicate,
    attr,
    lit,
)
from repro.algebra.support import is_support, selection_support, theta_support
from repro.algebra.thresholds import (
    ALWAYS,
    SN_CERTAIN,
    SN_POSITIVE,
    MembershipThreshold,
    sn_at_least,
    sn_greater,
    sp_at_least,
    sp_greater,
)
from repro.algebra.select import select
from repro.algebra.union import union, union_with_report
from repro.algebra.intersection import intersection, intersection_with_report
from repro.algebra.project import project
from repro.algebra.product import product
from repro.algebra.join import equijoin, join
from repro.algebra.rename import rename
from repro.algebra.properties import (
    augment_with_complement,
    complement_relation,
    verify_boundedness,
    verify_closure,
)

__all__ = [
    "Predicate",
    "IsPredicate",
    "ThetaPredicate",
    "And",
    "Or",
    "Not",
    "AttributeOperand",
    "LiteralOperand",
    "attr",
    "lit",
    "is_support",
    "theta_support",
    "selection_support",
    "MembershipThreshold",
    "SN_POSITIVE",
    "SN_CERTAIN",
    "ALWAYS",
    "sn_greater",
    "sn_at_least",
    "sp_greater",
    "sp_at_least",
    "select",
    "union",
    "union_with_report",
    "intersection",
    "intersection_with_report",
    "project",
    "product",
    "join",
    "equijoin",
    "rename",
    "complement_relation",
    "augment_with_complement",
    "verify_closure",
    "verify_boundedness",
]
