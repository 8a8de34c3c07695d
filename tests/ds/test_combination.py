"""Tests for Dempster's rule of combination."""

import math
from fractions import Fraction

import pytest
from hypothesis import given

from repro.errors import MassFunctionError, TotalConflictError
from repro.ds.frame import OMEGA, FrameOfDiscernment
from repro.ds.mass import MassFunction
from repro.ds.combination import (
    combine,
    combine_all,
    conflict,
    conjunctive,
    disjunctive,
    weight_of_conflict,
)
from tests.conftest import mass_functions
from tests.ds.oracle import intersect_focal, union_focal


@pytest.fixture
def m1():
    return MassFunction({"ca": "1/2", ("hu", "si"): "1/3", OMEGA: "1/6"})


@pytest.fixture
def m2():
    return MassFunction({("ca", "hu"): "1/2", "hu": "1/4", OMEGA: "1/4"})


class TestFocalSetOps:
    def test_intersections(self):
        assert intersect_focal(frozenset({"a", "b"}), frozenset({"b", "c"})) == (
            frozenset({"b"})
        )
        assert intersect_focal(frozenset({"a"}), frozenset({"b"})) is None

    def test_omega_is_identity_for_intersection(self):
        assert intersect_focal(OMEGA, frozenset({"a"})) == frozenset({"a"})
        assert intersect_focal(frozenset({"a"}), OMEGA) == frozenset({"a"})
        assert intersect_focal(OMEGA, OMEGA) is OMEGA

    def test_unions(self):
        assert union_focal(frozenset({"a"}), frozenset({"b"})) == frozenset({"a", "b"})
        assert union_focal(OMEGA, frozenset({"a"})) is OMEGA


class TestPaperSection22:
    """The worked example of Section 2.2 -- exact fractions."""

    def test_conflict_is_one_eighth(self, m1, m2):
        assert conflict(m1, m2) == Fraction(1, 8)

    def test_combined_masses(self, m1, m2):
        m12 = combine(m1, m2)
        assert m12[{"ca"}] == Fraction(3, 7)
        assert m12[{"hu"}] == Fraction(1, 3)
        assert m12[{"ca", "hu"}] == Fraction(2, 21)
        assert m12[{"hu", "si"}] == Fraction(2, 21)
        assert m12[OMEGA] == Fraction(1, 21)

    def test_combined_masses_sum_to_one(self, m1, m2):
        m12 = combine(m1, m2)
        assert sum(value for _, value in m12.items()) == 1

    def test_conjunctive_returns_unnormalized(self, m1, m2):
        pooled, kappa = conjunctive(m1, m2)
        assert kappa == Fraction(1, 8)
        assert pooled[frozenset({"ca"})] == Fraction(3, 8)
        assert sum(pooled.values()) == Fraction(7, 8)

    def test_hunan_gained_cantonese_lost(self, m1, m2):
        """The paper notes {hunan} gains mass (merging larger focal
        elements) while {cantonese} loses (conflict with {hunan})."""
        m12 = combine(m1, m2)
        assert m12[{"hu"}] > m2[{"hu"}]
        assert m12[{"ca"}] < m1[{"ca"}]


class TestCombineProperties:
    def test_commutative(self, m1, m2):
        assert combine(m1, m2) == combine(m2, m1)

    def test_vacuous_is_identity(self, m1):
        assert combine(m1, MassFunction.vacuous()) == m1

    def test_definite_agreement(self):
        a = MassFunction.definite("x")
        b = MassFunction.definite("x")
        assert combine(a, b) == a

    def test_total_conflict_raises(self):
        a = MassFunction.definite("x")
        b = MassFunction.definite("y")
        with pytest.raises(TotalConflictError):
            combine(a, b)

    def test_frames_must_agree(self):
        fa = FrameOfDiscernment("a", ["x", "y"])
        fb = FrameOfDiscernment("b", ["x", "y"])
        with pytest.raises(MassFunctionError, match="different frames"):
            combine(MassFunction({"x": 1}, fa), MassFunction({"x": 1}, fb))

    def test_frame_propagates(self):
        frame = FrameOfDiscernment("f", ["x", "y"])
        framed = MassFunction({"x": 1}, frame)
        unframed = MassFunction({"x": "1/2", "y": "1/2"})
        assert combine(framed, unframed).frame == frame

    def test_combine_all_requires_input(self):
        with pytest.raises(MassFunctionError):
            combine_all([])

    def test_combine_all_single(self, m1):
        assert combine_all([m1]) == m1

    def test_combine_all_folds(self, m1, m2):
        assert combine_all([m1, m2]) == combine(m1, m2)


class TestWeightOfConflict:
    def test_zero_without_conflict(self):
        a = MassFunction.definite("x")
        assert weight_of_conflict(a, a) == 0.0

    def test_infinite_on_total_conflict(self):
        a = MassFunction.definite("x")
        b = MassFunction.definite("y")
        assert weight_of_conflict(a, b) == math.inf

    def test_matches_log_formula(self, m1, m2):
        expected = -math.log(1 - 1 / 8)
        assert weight_of_conflict(m1, m2) == pytest.approx(expected)


class TestDisjunctive:
    def test_union_of_definite_values(self):
        a = MassFunction.definite("x")
        b = MassFunction.definite("y")
        d = disjunctive(a, b)
        assert d[{"x", "y"}] == 1

    def test_never_conflicts(self, m1):
        b = MassFunction.definite("am")
        d = disjunctive(m1, b)
        assert sum(value for _, value in d.items()) == 1

    def test_commutative(self, m1, m2):
        assert disjunctive(m1, m2) == disjunctive(m2, m1)


# ---------------------------------------------------------------------------
# Property-based checks
# ---------------------------------------------------------------------------


def _combinable(a, b):
    try:
        return combine(a, b)
    except TotalConflictError:
        return None


@given(a=mass_functions(), b=mass_functions())
def test_combination_commutative(a, b):
    left = _combinable(a, b)
    right = _combinable(b, a)
    assert left == right


@given(a=mass_functions(), b=mass_functions(), c=mass_functions())
def test_combination_associative(a, b, c):
    """(a + b) + c == a + (b + c), exactly, whenever defined."""
    try:
        left = combine(combine(a, b), c)
    except TotalConflictError:
        left = None
    try:
        right = combine(a, combine(b, c))
    except TotalConflictError:
        right = None
    # Total conflict can surface at different fold points, but when both
    # parses succeed the results must agree exactly.
    if left is not None and right is not None:
        assert left == right


@given(m=mass_functions())
def test_vacuous_identity_property(m):
    assert combine(m, MassFunction.vacuous()) == m


@given(a=mass_functions(), b=mass_functions())
def test_combination_never_increases_ignorance(a, b):
    """m12(OMEGA) <= min(m1(OMEGA), m2(OMEGA)): pooling evidence cannot
    create ignorance."""
    combined = _combinable(a, b)
    if combined is None:
        return
    assert combined.ignorance() <= a.ignorance()
    assert combined.ignorance() <= b.ignorance()


@given(a=mass_functions(), b=mass_functions())
def test_combined_masses_normalized(a, b):
    combined = _combinable(a, b)
    if combined is None:
        return
    assert sum(value for _, value in combined.items()) == 1
