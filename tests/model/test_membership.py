"""Tests for tuple membership (sn, sp) pairs and their combination rules."""

from fractions import Fraction

import pytest
from hypothesis import example, given

from repro.errors import MembershipError, TotalConflictError
from repro.ds.combination import combine, combine_with_conflict
from repro.model.membership import (
    CERTAIN,
    IMPOSSIBLE,
    UNKNOWN,
    TupleMembership,
)
from tests.conftest import memberships, supported_memberships


class TestConstruction:
    def test_valid_pair(self):
        tm = TupleMembership("1/4", "3/4")
        assert tm.sn == Fraction(1, 4)
        assert tm.sp == Fraction(3, 4)

    def test_invalid_order_rejected(self):
        with pytest.raises(MembershipError):
            TupleMembership("3/4", "1/4")

    def test_out_of_range_rejected(self):
        with pytest.raises(MembershipError):
            TupleMembership(-0.1, 0.5)
        with pytest.raises(MembershipError):
            TupleMembership(0.5, 1.5)

    def test_constants(self):
        assert CERTAIN.as_tuple() == (1, 1)
        assert UNKNOWN.as_tuple() == (0, 1)
        assert IMPOSSIBLE.as_tuple() == (0, 0)

    def test_flags(self):
        assert CERTAIN.is_certain
        assert not CERTAIN.is_impossible
        assert IMPOSSIBLE.is_impossible
        assert not UNKNOWN.is_supported
        assert TupleMembership("1/2", 1).is_supported


class TestMassViews:
    def test_mass_decomposition(self):
        tm = TupleMembership("1/4", "3/4")
        assert tm.m_true == Fraction(1, 4)
        assert tm.m_false == Fraction(1, 4)
        assert tm.m_unknown == Fraction(1, 2)

    def test_to_mass_round_trip(self):
        tm = TupleMembership("1/3", "2/3")
        assert TupleMembership.from_mass(tm.to_mass()) == tm

    def test_mass_over_boolean_frame(self):
        m = TupleMembership("1/3", "2/3").to_mass()
        assert m.mass({True}) == Fraction(1, 3)
        assert m.mass({False}) == Fraction(1, 3)


class TestDempsterCombination:
    def test_paper_table4_mehl(self):
        """(0.5, 0.5) (+) (0.8, 1) = (5/6, 5/6), printed (0.83, 0.83)."""
        combined = TupleMembership("1/2", "1/2").combine_dempster(
            TupleMembership("4/5", 1)
        )
        assert combined == TupleMembership(Fraction(5, 6), Fraction(5, 6))

    def test_certain_is_absorbing_with_consistency(self):
        assert CERTAIN.combine_dempster(TupleMembership("1/2", 1)) == CERTAIN

    def test_unknown_is_identity(self):
        tm = TupleMembership("1/3", "3/4")
        assert tm.combine_dempster(UNKNOWN) == tm
        assert UNKNOWN.combine_dempster(tm) == tm

    def test_total_conflict(self):
        with pytest.raises(TotalConflictError):
            CERTAIN.combine_dempster(IMPOSSIBLE)

    def test_agreeing_impossibles(self):
        assert IMPOSSIBLE.combine_dempster(IMPOSSIBLE) == IMPOSSIBLE

    def test_closed_form_matches_generic_dempster(self):
        """The closed-form F must agree with the generic rule on the
        boolean frame."""
        pairs = [
            (TupleMembership("1/2", "1/2"), TupleMembership("4/5", 1)),
            (TupleMembership("1/4", "3/4"), TupleMembership("1/3", "2/3")),
            (TupleMembership(0, "1/2"), TupleMembership("1/2", 1)),
            (TupleMembership("1/10", "9/10"), TupleMembership("2/5", "3/5")),
        ]
        for a, b in pairs:
            expected = TupleMembership.from_mass(combine(a.to_mass(), b.to_mass()))
            assert a.combine_dempster(b) == expected


class TestProductCombination:
    def test_paper_table2_garden(self):
        """(1,1) x (1/2, 3/4) = (0.5, 0.75)."""
        revised = CERTAIN.combine_product(TupleMembership("1/2", "3/4"))
        assert revised == TupleMembership(Fraction(1, 2), Fraction(3, 4))

    def test_paper_table3_mehl(self):
        """(1/2,1/2) x (16/25, 16/25) = (8/25, 8/25) = (0.32, 0.32)."""
        support = TupleMembership("4/5", "4/5").combine_product(
            TupleMembership("4/5", "4/5")
        )
        revised = TupleMembership("1/2", "1/2").combine_product(support)
        assert revised == TupleMembership(Fraction(8, 25), Fraction(8, 25))

    def test_certain_is_identity(self):
        tm = TupleMembership("1/3", "2/3")
        assert tm.combine_product(CERTAIN) == tm

    def test_impossible_is_absorbing(self):
        tm = TupleMembership("1/3", "2/3")
        assert tm.combine_product(IMPOSSIBLE) == IMPOSSIBLE


class TestDisjunctionAndNegation:
    def test_disjunction(self):
        a = TupleMembership("1/2", "1/2")
        b = TupleMembership("1/2", "1/2")
        assert a.combine_disjunction(b) == TupleMembership("3/4", "3/4")

    def test_negate(self):
        tm = TupleMembership("1/4", "3/4")
        assert tm.negate() == TupleMembership("1/4", "3/4")
        assert CERTAIN.negate() == IMPOSSIBLE

    def test_double_negation(self):
        tm = TupleMembership("1/5", "4/5")
        assert tm.negate().negate() == tm


class TestConversions:
    def test_float_round_trip(self):
        tm = TupleMembership("1/4", "3/4")
        assert tm.to_float().to_exact() == tm

    def test_format(self):
        assert TupleMembership("1/2", "3/4").format(style="decimal") == "(0.5,0.75)"
        assert CERTAIN.format(style="decimal") == "(1.0,1.0)"

    def test_iteration(self):
        sn, sp = TupleMembership("1/4", "1/2")
        assert (sn, sp) == (Fraction(1, 4), Fraction(1, 2))


# ---------------------------------------------------------------------------
# Property-based checks
# ---------------------------------------------------------------------------


@given(a=memberships(), b=memberships())
def test_product_stays_in_bounds(a, b):
    combined = a.combine_product(b)
    assert 0 <= combined.sn <= combined.sp <= 1


@given(a=memberships(), b=memberships())
def test_dempster_stays_in_bounds(a, b):
    try:
        combined = a.combine_dempster(b)
    except TotalConflictError:
        return
    assert 0 <= combined.sn <= combined.sp <= 1


@given(a=memberships(), b=memberships())
def test_dempster_commutative(a, b):
    try:
        left = a.combine_dempster(b)
    except TotalConflictError:
        left = None
    try:
        right = b.combine_dempster(a)
    except TotalConflictError:
        right = None
    assert left == right


@given(a=memberships(), b=memberships(), c=memberships())
def test_dempster_associative(a, b, c):
    def fold(x, y, z):
        try:
            return x.combine_dempster(y).combine_dempster(z)
        except TotalConflictError:
            return None

    left = fold(a, b, c)
    try:
        right = a.combine_dempster(b.combine_dempster(c))
    except TotalConflictError:
        right = None
    if left is not None and right is not None:
        assert left == right


@given(a=memberships(), b=memberships())
def test_dempster_matches_generic_rule(a, b):
    """Closed form == generic Dempster on the boolean frame, always."""
    try:
        closed = a.combine_dempster(b)
    except TotalConflictError:
        closed = None
    try:
        generic = TupleMembership.from_mass(combine(a.to_mass(), b.to_mass()))
    except TotalConflictError:
        generic = None
    assert closed == generic


@given(a=supported_memberships(), b=supported_memberships())
def test_dempster_preserves_positive_support(a, b):
    """sn1 > 0 and sn2 > 0 imply combined sn > 0 (closure ingredient)."""
    combined = a.combine_dempster(b)  # kappa < 1 since both sp > 0
    assert combined.sn > 0


@given(a=memberships(), b=memberships())
def test_product_commutative_associative_sample(a, b):
    assert a.combine_product(b) == b.combine_product(a)


@given(a=memberships(), b=memberships())
@example(a=CERTAIN, b=IMPOSSIBLE)
@example(a=IMPOSSIBLE, b=TupleMembership("1/3", 1))
@example(a=TupleMembership("1/2", "3/4"), b=TupleMembership("2/3", "5/6"))
def test_exact_dempster_equals_the_generic_rule_with_its_kappa(a, b):
    """The integer closed form of ``F`` on exact pairs equals Dempster's
    rule over the boolean frame (``to_mass`` -> ``combine`` ->
    ``from_mass``): the same pair, exact, and the same kappa, up to
    kappa = 1.  ``F``'s kappa is always a Fraction; the kernel leaves a
    conflict-free kappa as its int seed ``0``."""
    closed, kappa = a.combine_dempster_with_conflict(b)
    generic, generic_kappa = combine_with_conflict(a.to_mass(), b.to_mass())
    assert kappa == generic_kappa
    assert type(kappa) is Fraction
    assert type(generic_kappa) is (Fraction if generic_kappa else int)
    if generic is None:
        assert closed is None and kappa == 1
        return
    expected = TupleMembership.from_mass(generic)
    assert closed == expected
    assert type(closed.sn) is Fraction and type(closed.sp) is Fraction
