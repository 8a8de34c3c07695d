"""Property tests for the constructions selection trusts.

Selection builds one membership per tuple without re-checking it: the
``F_TM`` product of two valid pairs, and the tuple copy that carries it
(:meth:`ExtendedTuple.with_membership`).  The exact range check itself
runs on integer numerators and denominators.  Each must agree with the
checked construction it replaces, in value and in type, over exact,
float, mixed, zero, one and subnormal components.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.datasets.generators import SyntheticConfig, synthetic_relation
from repro.errors import MembershipError
from repro.model.etuple import ExtendedTuple
from repro.model.membership import TupleMembership

SUBNORMALS = [5e-324, 1e-310, 2.2250738585072009e-308]

#: Exact components, including out-of-range ones.
exact_values = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=50),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 10**30), Fraction(10**30 + 1, 10**30)]),
)

#: Components in [0, 1]: exact, float (subnormals, 0 and 1 included).
unit_values = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([Fraction(0), Fraction(1), 0.0, 1.0, *SUBNORMALS]),
)


@st.composite
def valid_pairs(draw):
    """A valid membership whose components may differ in type."""
    low, high = sorted((draw(unit_values), draw(unit_values)))
    return TupleMembership(low, high)


def same_number(left, right) -> bool:
    """Equal in value and type (floats: to the bit)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        return left.hex() == right.hex() and math.copysign(1, left) == math.copysign(
            1, right
        )
    return left == right


class TestExactRangeCheck:
    @given(exact_values, exact_values)
    def test_accepts_exactly_the_valid_pairs(self, sn, sp):
        valid = 0 <= sn <= sp <= 1
        if valid:
            membership = TupleMembership(sn, sp)
            assert same_number(membership.sn, sn)
            assert same_number(membership.sp, sp)
        else:
            with pytest.raises(MembershipError):
                TupleMembership(sn, sp)

    @pytest.mark.parametrize(
        "sn,sp",
        [
            ("-1/3", "1/2"),
            ("1/2", "4/3"),
            ("2/3", "1/3"),
            ("3/2", "3/2"),
            ("-1", "-1/2"),
        ],
    )
    def test_rejects_each_violation(self, sn, sp):
        with pytest.raises(MembershipError, match="0 <= sn <= sp <= 1"):
            TupleMembership(sn, sp)

    @pytest.mark.parametrize("sn,sp", [(0, 0), (0, 1), (1, 1), ("1/3", "1/3")])
    def test_accepts_the_borders(self, sn, sp):
        TupleMembership(sn, sp)

    @given(valid_pairs())
    def test_is_supported_matches_the_comparison(self, membership):
        assert membership.is_supported is (membership.sn > 0)


class TestTrustedProduct:
    @given(valid_pairs(), valid_pairs())
    def test_equals_the_checked_construction(self, left, right):
        product = left.combine_product(right)
        checked = TupleMembership(left.sn * right.sn, left.sp * right.sp)
        assert same_number(product.sn, checked.sn)
        assert same_number(product.sp, checked.sp)
        assert 0 <= product.sn <= product.sp <= 1

    def test_exact_beside_rounded_is_still_clamped(self):
        """An exact sn beside a rounded sp: rounding puts sp a hair
        below sn, and the product is clamped as the constructor does."""
        left = TupleMembership(Fraction(932, 1001), 0.9310689310689311)
        right = TupleMembership(Fraction(3, 7), Fraction(3, 7))
        assert left.sn * right.sn > left.sp * right.sp
        product = left.combine_product(right)
        assert product.sn == product.sp
        assert product == TupleMembership(left.sn * right.sn, left.sp * right.sp)


@pytest.fixture(scope="module")
def tuples():
    return list(
        synthetic_relation(SyntheticConfig(n_tuples=30, exact=True, seed=7), "S")
    )


class TestWithMembership:
    @given(index=st.integers(min_value=0, max_value=29), membership=valid_pairs())
    def test_equals_a_checked_copy(self, tuples, index, membership):
        etuple = tuples[index]
        copy = etuple.with_membership(membership)
        checked = ExtendedTuple(etuple.schema, dict(etuple.items()), membership)
        assert copy == checked
        assert copy.key() == checked.key()
        assert copy.membership is membership
        assert copy.schema is etuple.schema

    def test_pairs_are_still_checked(self, tuples):
        assert tuples[0].with_membership(("1/2", 1)).membership == TupleMembership(
            Fraction(1, 2), 1
        )
        with pytest.raises(MembershipError):
            tuples[0].with_membership(("1/2", "1/3"))

    def test_source_tuple_is_unchanged(self, tuples):
        before = dict(tuples[3].items()), tuples[3].membership
        tuples[3].with_membership(TupleMembership("1/4", "1/2"))
        assert (dict(tuples[3].items()), tuples[3].membership) == before
