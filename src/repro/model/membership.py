"""Tuple membership: the ``(sn, sp)`` support pair.

Section 2.3 of the paper models the membership of a tuple in a relation
as evidence over the boolean frame Psi = {true, false}:

* ``sn = m({true})`` -- the *necessary* support,
* ``sp = m({true}) + m(Psi) = 1 - m({false})`` -- the *possible* support,

with ``0 <= sn <= sp <= 1``.  ``(1, 1)`` is certain existence, ``(0, 0)``
certain non-existence, ``(0, 1)`` complete ignorance.

Two combination rules act on membership pairs:

* :meth:`TupleMembership.combine_dempster` -- the paper's function ``F``:
  Dempster's rule on the boolean frame.  Used by the extended **union**
  to pool the membership evidence two databases provide about the same
  entity (verified against Table 4's *mehl* row:
  ``(0.5, 0.5) (+) (0.8, 1) = (5/6, 5/6)``).
* :meth:`TupleMembership.combine_product` -- the paper's ``F_TM``:
  component-wise multiplication, treating the inputs as independent
  events.  Used by **selection** (original membership x predicate
  support, Figure 3) and by the **cartesian product**.

The same structure doubles as the *support pair* that the selection
support function ``F_SS`` assigns to predicates, so the algebra reuses
this class for predicate supports.

Validation policy
-----------------
Every pair that comes from outside the algebra -- user-supplied,
parsed, loaded from storage, or a predicate support computed by
``F_SS`` -- goes through the constructor and is range-checked (float
pairs are clamped within :attr:`TupleMembership.FLOAT_TOLERANCE`
first).  The outputs of ``F_TM`` (:meth:`TupleMembership.combine_product`)
are trusted instead: the product of two valid pairs is valid by
construction, in exact arithmetic and in float arithmetic alike, because
float(Fraction) conversion and IEEE-754 rounding are monotone (the
argument is spelled out where it is used).  Selection therefore pays for
one range check per tuple -- the predicate support -- not two, and
runs no ``F_TM`` at all for a tuple whose support has ``sn = 0``.  The
one product that is still checked is a mixed one, an exact ``sn``
beside a rounded ``sp`` (or the reverse), where rounding can break the
order.  Beside another exact pair, the exact certain pair ``(1, 1)``
returns that pair unchanged.

``F`` on two exact pairs is trusted too: it runs on int numerators
(each pair over its own common denominator), where the masses on
{true}, {false} and the whole frame are non-negative ints summing to
``1 - kappa`` times the common denominator, so ``0 <= sn <= sp <= 1``
holds by construction and each output is one Fraction.  Float and
mixed operands keep the constructor's check, which clamps round-off.
"""

from __future__ import annotations

import math
from fractions import Fraction

from repro.errors import MembershipError, TotalConflictError
from repro.ds.frame import MEMBERSHIP_FRAME, OMEGA
from repro.ds.mass import (
    FLOAT_SUM_TOLERANCE,
    MassFunction,
    Numeric,
    coerce_mass_value,
)


#: The conflict of a conflict-free exact ``F`` (shared, never re-allocated).
_ZERO = Fraction(0)


def _scaled_pair(sn: Fraction, sp: Fraction) -> tuple[int, int, int]:
    """An exact pair as ``(sn numerator, sp numerator, denominator)``
    over the least common denominator of the two."""
    sn_denominator, sp_denominator = sn.denominator, sp.denominator
    if sn_denominator == sp_denominator:
        return sn.numerator, sp.numerator, sn_denominator
    common = math.lcm(sn_denominator, sp_denominator)
    return (
        sn.numerator * (common // sn_denominator),
        sp.numerator * (common // sp_denominator),
        common,
    )


def _float_terms(sn: Fraction, sp: Fraction) -> tuple[float, ...]:
    """``sn``, ``sp``, ``1 - sp``, ``sp - sn`` and ``1 - sn`` of an exact
    pair as floats, each the correctly rounded int division of its
    numerator by the pair's common denominator: the value ``float()``
    gives the exact sub-expression, which is what Python's ``Fraction
    op float`` arithmetic computes with."""
    true, possible, denominator = _scaled_pair(sn, sp)
    return (
        true / denominator,
        possible / denominator,
        (denominator - possible) / denominator,
        (possible - true) / denominator,
        (denominator - true) / denominator,
    )


def _dempster_scaled(
    sn1: Fraction, sp1: Fraction, sn2: Fraction, sp2: Fraction
) -> tuple["TupleMembership | None", Fraction]:
    """The closed form of ``F`` on two exact pairs, in int numerators.

    Each pair is scaled to its own common denominator, so the masses
    and kappa of the closed form are ints over the product ``D`` of
    the two; each output is then one Fraction, ``sn = T / (D - K)`` and
    ``sp = (D - K - F) / (D - K)``, equal to the Fraction arithmetic's
    (Fractions are canonical).  Kappa is a Fraction, as the products
    of Fractions make it.
    """
    true1, possible1, denominator1 = _scaled_pair(sn1, sp1)
    true2, possible2, denominator2 = _scaled_pair(sn2, sp2)
    false1 = denominator1 - possible1
    false2 = denominator2 - possible2
    denominator = denominator1 * denominator2
    kappa = true1 * false2 + false1 * true2
    if kappa == denominator:
        return None, Fraction(kappa, denominator)
    remaining = denominator - kappa
    mass_true = true1 * possible2 + possible1 * true2 - true1 * true2
    mass_false = (
        false1 * (denominator2 - true2) + (possible1 - true1) * false2
    )
    # Trusted construction (see the module docstring): all three
    # masses are non-negative ints summing to ``remaining``.
    combined = object.__new__(TupleMembership)
    combined._sn = Fraction(mass_true, remaining)
    combined._sp = Fraction(remaining - mass_false, remaining)
    return combined, (Fraction(kappa, denominator) if kappa else _ZERO)


class TupleMembership:
    """An ``(sn, sp)`` pair with ``0 <= sn <= sp <= 1``.

    >>> TupleMembership("1/2", "1/2").combine_dempster(TupleMembership("4/5", 1))
    TupleMembership(sn=5/6, sp=5/6)
    """

    __slots__ = ("_sn", "_sp")

    #: Absolute tolerance for float round-off at the interval borders.
    FLOAT_TOLERANCE = 1e-9

    def __init__(self, sn: object, sp: object):
        necessary = coerce_mass_value(sn)
        possible = coerce_mass_value(sp)
        if isinstance(necessary, float) or isinstance(possible, float):
            # Clamp float round-off (e.g. the closed-form Dempster rule
            # can produce sn exceeding sp by ~1e-16); genuine violations
            # beyond the tolerance still raise below.
            tolerance = self.FLOAT_TOLERANCE
            if -tolerance <= necessary < 0:
                necessary = 0.0
            if 1 < possible <= 1 + tolerance:
                possible = 1.0
            if possible < necessary <= possible + tolerance:
                necessary = possible
        if type(necessary) is Fraction and type(possible) is Fraction:
            # ``0 <= sn <= sp <= 1`` by integer cross-multiplication
            # (denominators are always positive), without three
            # ABC-dispatched Fraction comparisons.
            n1, d1 = necessary.numerator, necessary.denominator
            n2, d2 = possible.numerator, possible.denominator
            valid = 0 <= n1 and n1 * d2 <= n2 * d1 and n2 <= d2
        else:
            valid = 0 <= necessary <= possible <= 1
        if not valid:
            raise MembershipError(
                f"membership must satisfy 0 <= sn <= sp <= 1, got "
                f"(sn={necessary!r}, sp={possible!r})"
            )
        self._sn = necessary
        self._sp = possible

    # -- constructors --------------------------------------------------------

    @classmethod
    def certain(cls) -> "TupleMembership":
        """``(1, 1)``: the tuple exists with full certainty."""
        return cls(Fraction(1), Fraction(1))

    @classmethod
    def unknown(cls) -> "TupleMembership":
        """``(0, 1)``: complete ignorance about membership."""
        return cls(Fraction(0), Fraction(1))

    @classmethod
    def impossible(cls) -> "TupleMembership":
        """``(0, 0)``: the tuple certainly does not exist."""
        return cls(Fraction(0), Fraction(0))

    @classmethod
    def from_mass(cls, mass: MassFunction) -> "TupleMembership":
        """Build from a mass function over the frame {True, False}."""
        return cls(mass.mass({True}), 1 - mass.mass({False}))

    def to_mass(self) -> MassFunction:
        """The equivalent mass function over {True, False}."""
        return MassFunction(
            {
                frozenset({True}): self._sn,
                frozenset({False}): 1 - self._sp,
                OMEGA: self._sp - self._sn,
            },
            MEMBERSHIP_FRAME,
        )

    # -- accessors -------------------------------------------------------------

    @property
    def sn(self) -> Numeric:
        """Necessary support ``m({true})``."""
        return self._sn

    @property
    def sp(self) -> Numeric:
        """Possible support ``1 - m({false})``."""
        return self._sp

    @property
    def m_true(self) -> Numeric:
        """Mass on {true} (alias of :attr:`sn`)."""
        return self._sn

    @property
    def m_false(self) -> Numeric:
        """Mass on {false}."""
        return 1 - self._sp

    @property
    def m_unknown(self) -> Numeric:
        """Mass on the whole boolean frame (ignorance)."""
        return self._sp - self._sn

    @property
    def is_supported(self) -> bool:
        """``sn > 0``: the CWA_ER storage criterion."""
        sn = self._sn
        # A Fraction has the sign of its numerator (its denominator is
        # positive); this skips an ABC-dispatched comparison per tuple.
        return sn.numerator > 0 if type(sn) is Fraction else sn > 0

    @property
    def is_certain(self) -> bool:
        """``(sn, sp) == (1, 1)``."""
        return self._sn == 1 and self._sp == 1

    @property
    def is_impossible(self) -> bool:
        """``(sn, sp) == (0, 0)``."""
        return self._sp == 0

    # -- combination rules --------------------------------------------------

    def combine_dempster(self, other: "TupleMembership") -> "TupleMembership":
        """The paper's ``F``: Dempster's rule on the boolean frame.

        Uses the closed form (cross-checked against the generic rule by
        the test-suite).  Raises :class:`TotalConflictError` when one
        source is certain the tuple exists and the other is certain it
        does not.
        """
        combined, _ = self.combine_dempster_with_conflict(other)
        if combined is None:
            raise TotalConflictError(
                "tuple membership evidence is totally conflicting "
                f"({self} vs {other})"
            )
        return combined

    def combine_dempster_with_conflict(
        self, other: "TupleMembership"
    ) -> tuple["TupleMembership | None", Numeric]:
        """``F`` returning ``(result, kappa)``; ``None`` on total conflict
        instead of raising.

        The merge step (extended union, tuple merging) records kappa
        for its conflict report, so it folds through this entry point
        and computes the conflict once.  Exact operands run on int
        numerators (see the module docstring); kappa is then always a
        Fraction.  Float operands stay on float arithmetic.  An exact
        pair meeting a float pair runs on floats too, with the results
        of Python's mixed arithmetic, which evaluates ``Fraction op
        float`` as ``float(Fraction) op float``: each exact
        sub-expression the closed form feeds to a float operation --
        ``sn``, ``sp``, ``1 - sp`` and ``sp - sn``, and ``1 - sn`` of
        an exact right operand -- is converted once, by correctly
        rounded int division, as ``float()`` converts it, and no
        Fraction is built.  Converting only ``sn`` and ``sp`` would not
        do (``float(1 - Fraction(1, 3)) != 1 - float(Fraction(1,
        3))``).  Any other mix of types keeps Python's mixed arithmetic.

        Near total conflict in floats, normalizing by a tiny ``1 -
        kappa`` magnifies round-off: ``(1-e, 1)`` against ``(0, e)`` at
        ``e = 1e-9`` puts ``sn`` above ``sp``.  The evidence rule's
        policy applies (see :data:`repro.ds.mass.FLOAT_SUM_TOLERANCE`):
        when the three normalized masses on {true}, {false} and the
        whole frame miss a total of one by more than that tolerance,
        the pair counts as total conflict, ``(None, kappa)``, and the
        merge's ``on_conflict`` policy decides.  A float ``sn`` above
        ``sp`` always fails this check, since ``sn - sp`` is at most the
        total's excess over one.  Exact operands normalize to exactly
        one and skip it.
        """
        sn1, sp1 = self._sn, self._sp
        sn2, sp2 = other._sn, other._sp
        exact1 = type(sn1) is Fraction and type(sp1) is Fraction
        if exact1 and type(sn2) is Fraction and type(sp2) is Fraction:
            return _dempster_scaled(sn1, sp1, sn2, sp2)
        if exact1 and type(sn2) is float and type(sp2) is float:
            sn1, sp1, false1, free1, _ = _float_terms(sn1, sp1)
            false2, free2, not_true2 = 1 - sp2, sp2 - sn2, 1 - sn2
        elif (
            type(sn2) is Fraction
            and type(sp2) is Fraction
            and type(sn1) is float
            and type(sp1) is float
        ):
            sn2, sp2, false2, free2, not_true2 = _float_terms(sn2, sp2)
            false1, free1 = 1 - sp1, sp1 - sn1
        else:
            false1, free1 = 1 - sp1, sp1 - sn1
            false2, free2, not_true2 = 1 - sp2, sp2 - sn2, 1 - sn2
        kappa = sn1 * false2 + false1 * sn2
        if kappa == 1:
            return None, kappa
        remaining = 1 - kappa
        mass_true = sn1 * sp2 + sp1 * sn2 - sn1 * sn2
        mass_false = false1 * not_true2 + free1 * false2
        # Any float operand makes kappa a float.  Round-off in the
        # masses is a few ulps, so dividing by 1 - kappa >= 1/2 keeps
        # their total far inside the tolerance: only a conflict that
        # outweighs the rest (remaining < kappa) needs the check.
        if (
            type(kappa) is float
            and remaining < kappa
            and abs((mass_true + mass_false + free1 * free2) / remaining - 1)
            > FLOAT_SUM_TOLERANCE
        ):
            return None, kappa
        return (
            TupleMembership(mass_true / remaining, 1 - mass_false / remaining),
            kappa,
        )

    def combine_product(self, other: "TupleMembership") -> "TupleMembership":
        """The paper's ``F_TM``: independent-events conjunction.

        ``(sn1*sn2, sp1*sp2)`` -- the rule used by selection (Figure 3)
        and the cartesian product, and also the multiplicative rule for
        conjoining the supports of independent predicates (Section 3.1.1,
        after Baldwin and Hau-Kashyap).

        The exact certain pair ``(1, 1)`` is the rule's identity: beside
        another exact pair the product is that pair, returned as it is
        (``Fraction(1) * x == x`` in value and type).  A float ``(1.0,
        1.0)`` keeps the arithmetic, whose types it can change.
        """
        sn1, sp1 = self._sn, self._sp
        sn2, sp2 = other._sn, other._sp
        if (
            type(sn1) is Fraction
            and type(sp1) is Fraction
            and type(sn2) is Fraction
            and type(sp2) is Fraction
        ):
            # sn == 1 forces sp == 1 (0 <= sn <= sp <= 1).
            if sn1 == 1:
                return other
            if sn2 == 1:
                return self
        sn = sn1 * sn2
        sp = sp1 * sp2
        if type(sn) is not type(sp):
            # An exact product beside a rounded one: rounding may put
            # sp below sn, so check (and clamp) as the constructor does.
            return TupleMembership(sn, sp)
        # Trusted construction, no range check: for valid pairs
        # ``0 <= sn1*sn2 <= sp1*sp2 <= 1`` (multiplying non-negative
        # numbers preserves order, and each product is at most its
        # factor).  Two float products keep the property: float(Fraction)
        # conversion and IEEE-754 rounding are both monotone, so the
        # rounded products stay ordered and within [0, 1] and no clamp
        # can ever be needed.
        product = object.__new__(TupleMembership)
        product._sn = sn
        product._sp = sp
        return product

    def combine_disjunction(self, other: "TupleMembership") -> "TupleMembership":
        """Independent-events disjunction: support for ``S or T``.

        ``sn = sn1 + sn2 - sn1*sn2`` (and likewise for ``sp``).  The paper
        only needs conjunction; disjunctive predicates are an extension
        and use this rule.
        """
        return TupleMembership(
            self._sn + other._sn - self._sn * other._sn,
            self._sp + other._sp - self._sp * other._sp,
        )

    def negate(self) -> "TupleMembership":
        """Support for the complement event: ``(1 - sp, 1 - sn)``."""
        return TupleMembership(1 - self._sp, 1 - self._sn)

    # -- conversions ------------------------------------------------------------

    def to_float(self) -> "TupleMembership":
        """A copy with float components."""
        return TupleMembership(float(self._sn), float(self._sp))

    def to_exact(self) -> "TupleMembership":
        """A copy with exact components (floats via shortest repr)."""
        sn = Fraction(str(self._sn)) if isinstance(self._sn, float) else self._sn
        sp = Fraction(str(self._sp)) if isinstance(self._sp, float) else self._sp
        return TupleMembership(sn, sp)

    # -- plumbing ---------------------------------------------------------------

    def as_tuple(self) -> tuple[Numeric, Numeric]:
        """The raw ``(sn, sp)`` pair."""
        return (self._sn, self._sp)

    def __iter__(self):
        return iter((self._sn, self._sp))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TupleMembership):
            return NotImplemented
        return self._sn == other._sn and self._sp == other._sp

    def __hash__(self) -> int:
        return hash((self._sn, self._sp))

    def __repr__(self) -> str:
        return f"TupleMembership(sn={self._sn}, sp={self._sp})"

    def format(self, style: str = "auto", digits: int = 2) -> str:
        """Render as the paper's ``(sn,sp)`` column, e.g. ``(0.5,0.75)``."""
        from repro.ds.notation import format_mass_value

        return (
            f"({format_mass_value(self._sn, style, digits)},"
            f"{format_mass_value(self._sp, style, digits)})"
        )


#: The tuple certainly belongs to the relation.
CERTAIN = TupleMembership.certain()

#: Complete ignorance about the tuple's membership.
UNKNOWN = TupleMembership.unknown()

#: The tuple certainly does not belong to the relation.
IMPOSSIBLE = TupleMembership.impossible()

#: Alias: predicate supports share the (sn, sp) structure (Section 3.1).
SupportPair = TupleMembership
