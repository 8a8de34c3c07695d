"""Property tests for the constructions the algebra trusts.

Selection builds one membership per tuple without re-checking it: the
``F_TM`` product of two valid pairs, and the tuple copy that carries it
(:meth:`ExtendedTuple.with_membership`).  The exact range check itself
runs on integer numerators and denominators.  Discounting
(:func:`discount_tuple`) and tuple merging (:class:`TupleMerger`) build
their result tuples from the source tuples' already-coerced values.
Each must agree with the checked construction it replaces, in value and
in type, over exact, float, mixed, zero, one and subnormal components.
The membership rule ``F`` on an exact pair meeting a float pair runs on
floats; it must agree with Python's mixed Fraction/float arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.generators import (
    SyntheticConfig,
    synthetic_pair,
    synthetic_relation,
)
from repro.ds.discounting import discount
from repro.ds.mass import FLOAT_SUM_TOLERANCE, coerce_mass_value
from repro.errors import MembershipError, RelationError
from repro.integration import TupleMerger
from repro.integration.methods import IntegrationMethod
from repro.integration.pipeline import _discount_relation, discount_tuple
from repro.model.etuple import ExtendedTuple
from repro.model.evidence import EvidenceSet
from repro.model.membership import TupleMembership
from repro.model.relation import ExtendedRelation
from repro.model.schema import RelationSchema
from tests.integration.test_serial_counts import FractionCounter

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


# -- discounting and merging --------------------------------------------------

#: Reliabilities: exact, float, and the borders in both types.
reliabilities = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=20),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([Fraction(0), Fraction(1), 0.0, 1.0, Fraction(9, 10), 0.9]),
)


@st.composite
def relations(draw):
    """An exact, float or mixed synthetic relation.  A mixed one
    alternates exact tuples with their float copies, so ``Fraction(1)``
    memberships sit beside ``1.0`` ones."""
    config = SyntheticConfig(
        n_tuples=draw(st.integers(min_value=1, max_value=12)),
        uncertain_membership=draw(st.sampled_from([0.0, 0.5, 1.0])),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    relation = synthetic_relation(config, "S")
    kind = draw(st.sampled_from(["exact", "float", "mixed"]))
    if kind == "float":
        return relation.to_float()
    if kind == "mixed":
        floated = relation.to_float()
        return ExtendedRelation(
            relation.schema,
            [
                floated.get(etuple.key()) if index % 2 else etuple
                for index, etuple in enumerate(relation)
            ],
        )
    return relation


def checked_discount(etuple, schema, reliability):
    """The discount rebuilt through the full constructor."""
    reliability = coerce_mass_value(reliability)
    values = dict(etuple.items())
    for name in schema.uncertain_names:
        value = values[name]
        values[name] = EvidenceSet(
            discount(value.mass_function, reliability), value.domain
        )
    tm = etuple.membership
    membership = TupleMembership(
        reliability * tm.sn, 1 - reliability * (1 - tm.sp)
    )
    return ExtendedTuple(etuple.schema, values, membership)


def spelled(etuple) -> tuple:
    """Everything a tuple holds, each number with its type."""

    def number(value):
        return (type(value).__name__, value.hex() if isinstance(value, float) else value)

    values = []
    for name, value in etuple.items():
        if isinstance(value, EvidenceSet):
            masses = sorted(
                (repr(element), number(mass)) for element, mass in value.items()
            )
            values.append((name, value.domain, tuple(masses)))
        else:
            values.append((name, type(value).__name__, value))
    membership = etuple.membership
    return (
        etuple.schema.names,
        tuple((type(part).__name__, part) for part in etuple.key()),
        tuple(values),
        number(membership.sn),
        number(membership.sp),
    )


def assert_same_relation(actual, expected):
    assert actual.schema == expected.schema
    assert list(actual.keys()) == list(expected.keys())
    assert [spelled(t) for t in actual] == [spelled(t) for t in expected]


class TestTrustedDiscount:
    @settings(max_examples=60, deadline=None)
    @given(relation=relations(), reliability=reliabilities)
    def test_tuple_equals_the_checked_construction(self, relation, reliability):
        for etuple in relation:
            trusted = discount_tuple(etuple, relation.schema, reliability)
            checked = checked_discount(etuple, relation.schema, reliability)
            assert spelled(trusted) == spelled(checked)
            assert trusted.key() == checked.key()
            assert trusted.schema is etuple.schema

    @settings(max_examples=60, deadline=None)
    @given(relation=relations(), reliability=reliabilities)
    def test_relation_memo_keeps_membership_types(self, relation, reliability):
        expected = ExtendedRelation(
            relation.schema,
            [checked_discount(t, relation.schema, reliability) for t in relation],
            on_unsupported="drop",
        )
        assert_same_relation(_discount_relation(relation, reliability), expected)

    def test_fraction_one_and_float_one_discount_apart(self):
        relation = synthetic_relation(
            SyntheticConfig(n_tuples=2, uncertain_membership=0.0, seed=3), "S"
        )
        first, second = relation
        relation = ExtendedRelation(
            relation.schema,
            [first, second.with_membership(TupleMembership(1.0, 1.0))],
        )
        discounted = _discount_relation(relation, Fraction(1, 2))
        exact, rounded = (t.membership for t in discounted)
        assert exact.as_tuple() == (Fraction(1, 2), Fraction(1))
        assert type(exact.sn) is Fraction and type(rounded.sn) is float

    def test_schema_disagreeing_on_uncertainty_is_still_checked(self):
        relation = synthetic_relation(SyntheticConfig(n_tuples=1, seed=5), "S")
        etuple = next(iter(relation))
        # "label" is certain in the tuple's own schema.
        wider = RelationSchema(
            "S",
            [
                attribute
                if attribute.name != "label"
                else type(attribute)(
                    "label", attribute.domain, uncertain=True
                )
                for attribute in relation.schema.attributes
            ],
        )
        with pytest.raises(RelationError, match="is certain"):
            discount_tuple(etuple, wider, Fraction(1, 2))


class DempsterOutsideTheFastPath(IntegrationMethod):
    """Dempster's rule, but not an :class:`EvidentialMethod`."""

    name = "dempster-checked"

    def combine(self, left, right, attribute):
        return left.combine(right)


def reordered(relation):
    """*relation* under a schema listing its attributes in reverse."""
    schema = RelationSchema(
        relation.schema.name, tuple(reversed(relation.schema.attributes))
    )
    return ExtendedRelation(
        schema,
        [ExtendedTuple(schema, dict(t.items()), t.membership) for t in relation],
    )


@st.composite
def merge_inputs(draw):
    config = SyntheticConfig(
        n_tuples=draw(st.integers(min_value=1, max_value=10)),
        overlap=draw(st.sampled_from([0.0, 0.5, 1.0])),
        conflict=draw(st.sampled_from([0.0, 0.3, 1.0])),
        uncertain_membership=draw(st.sampled_from([0.0, 0.5])),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    left, right = synthetic_pair(config, "L", "R")
    kind = draw(st.sampled_from(["exact", "float", "mixed"]))
    if kind == "float":
        left, right = left.to_float(), right.to_float()
    elif kind == "mixed":
        right = right.to_float()
    return left, right, draw(st.sampled_from(["vacuous", "drop"]))


class TestTrustedMerge:
    @settings(max_examples=60, deadline=None)
    @given(inputs=merge_inputs())
    def test_reordered_right_schema_gives_the_same_relation(self, inputs):
        left, right, policy = inputs
        merger = TupleMerger(on_conflict=policy)
        trusted, _ = merger.merge(left, right)
        checked, _ = merger.merge(left, reordered(right))
        assert_same_relation(trusted, checked)

    @settings(max_examples=60, deadline=None)
    @given(
        inputs=merge_inputs(),
        attribute=st.sampled_from(["category", "score", "label"]),
    )
    def test_non_evidential_method_gives_the_same_relation(
        self, inputs, attribute
    ):
        left, right, policy = inputs
        trusted, _ = TupleMerger(on_conflict=policy).merge(left, right)
        checked, _ = TupleMerger(
            methods={attribute: DempsterOutsideTheFastPath()},
            on_conflict=policy,
        ).merge(left, right)
        assert_same_relation(trusted, checked)

    def test_non_evidential_result_is_still_checked(self):
        """A mixture of two different labels is not definite, and the
        certain ``label`` attribute still rejects it."""
        left, right = synthetic_pair(
            SyntheticConfig(n_tuples=3, overlap=1.0, seed=9), "L", "R"
        )
        relabelled = ExtendedRelation(
            right.schema,
            [
                t.with_values({"label": f"other-{index}"})
                for index, t in enumerate(right)
            ],
        )
        merger = TupleMerger(methods={"label": "mixture"}, on_conflict="vacuous")
        with pytest.raises(RelationError, match="is certain"):
            merger.merge(left, relabelled)

    def test_copies_share_values_only_under_the_same_layout(self):
        left, right = synthetic_pair(
            SyntheticConfig(n_tuples=6, overlap=0.5, seed=9), "L", "R"
        )
        merged, report = TupleMerger(on_conflict="vacuous").merge(left, right)
        for key in report.left_only:
            assert merged.get(key)._values is left.get(key)._values
        for key in report.right_only:
            assert merged.get(key)._values is right.get(key)._values
        merged, report = TupleMerger(on_conflict="vacuous").merge(
            left, reordered(right)
        )
        for key in report.right_only:
            copy = merged.get(key)
            assert copy.schema.names == left.schema.names
            assert copy == ExtendedTuple(
                merged.schema, dict(right.get(key).items()), copy.membership
            )


# -- F on an exact pair meeting a float pair ------------------------------------


def reference_dempster(left, right):
    """``F`` as Python's mixed arithmetic evaluates the closed form:
    every pair that is not all-Fraction ran this code before exact x
    float pairs moved onto floats."""
    sn1, sp1 = left.sn, left.sp
    sn2, sp2 = right.sn, right.sp
    false1 = 1 - sp1
    false2 = 1 - sp2
    kappa = sn1 * false2 + false1 * sn2
    if kappa == 1:
        return None, kappa
    remaining = 1 - kappa
    mass_true = sn1 * sp2 + sp1 * sn2 - sn1 * sn2
    mass_false = false1 * (1 - sn2) + (sp1 - sn1) * false2
    if (
        type(kappa) is float
        and remaining < kappa
        and abs(
            (mass_true + mass_false + (sp1 - sn1) * (sp2 - sn2)) / remaining - 1
        )
        > FLOAT_SUM_TOLERANCE
    ):
        return None, kappa
    return (
        TupleMembership(mass_true / remaining, 1 - mass_false / remaining),
        kappa,
    )


def spelled_outcome(rule, left, right) -> tuple:
    """``rule(left, right)`` spelled: ``(result, kappa)`` by ``repr`` and
    type, sign included, or the error raised (the closed form can round
    ``sp`` a few ulps below 0, which the range check rejects)."""
    try:
        result, kappa = rule(left, right)
    except MembershipError as exc:
        return "error", str(exc)

    def spell(value):
        return (type(value), repr(value), math.copysign(1, value))

    if result is None:
        return None, spell(kappa)
    return (spell(result.sn), spell(result.sp)), spell(kappa)


@st.composite
def exact_pairs(draw):
    low, high = sorted(
        draw(
            st.one_of(
                st.fractions(min_value=0, max_value=1, max_denominator=10**6),
                st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 3)]),
            )
        )
        for _ in range(2)
    )
    return TupleMembership(low, high)


@st.composite
def float_pairs(draw):
    low, high = sorted(
        draw(
            st.one_of(
                st.floats(min_value=0.0, max_value=1.0),
                st.sampled_from([0.0, 1.0, 1 / 3, 0.1, *SUBNORMALS]),
            )
        )
        for _ in range(2)
    )
    return TupleMembership(low, high)


NEAR_TOTAL = [10.0**-k for k in range(7, 13)]


class TestMixedMembershipRule:
    """``F`` on an all-Fraction pair meeting an all-float pair runs on
    floats: ``sn``, ``sp`` and kappa equal Python's mixed arithmetic in
    ``repr`` and type, in both operand orders, and no Fraction is
    built."""

    @staticmethod
    def assert_matches_the_reference(left, right):
        assert spelled_outcome(
            TupleMembership.combine_dempster_with_conflict, left, right
        ) == spelled_outcome(reference_dempster, left, right)

    @settings(max_examples=300, deadline=None)
    @given(exact=exact_pairs(), rounded=float_pairs())
    def test_equals_mixed_arithmetic_in_both_orders(self, exact, rounded):
        self.assert_matches_the_reference(exact, rounded)
        self.assert_matches_the_reference(rounded, exact)

    @settings(max_examples=100, deadline=None)
    @given(exact=exact_pairs())
    def test_equal_pairs(self, exact):
        rounded = TupleMembership(float(exact.sn), float(exact.sp))
        self.assert_matches_the_reference(exact, rounded)
        self.assert_matches_the_reference(rounded, exact)

    @pytest.mark.parametrize(
        "exact, rounded",
        [
            ((1, 1), (0.9, 1.0)),
            ((1, 1), (1.0, 1.0)),
            ((1, 1), (0.0, 0.0)),
            ((0, 1), (0.25, 0.5)),
            (("1/3", "2/3"), (1 / 3, 2 / 3)),
            # sp rounds to -2.2e-16 with (0, 0) on the right: both paths raise.
            (("3/253", "1/65"), (0.0, 0.0)),
        ],
    )
    def test_certain_and_borders(self, exact, rounded):
        exact = TupleMembership(Fraction(exact[0]), Fraction(exact[1]))
        rounded = TupleMembership(*rounded)
        self.assert_matches_the_reference(exact, rounded)
        self.assert_matches_the_reference(rounded, exact)

    @pytest.mark.parametrize("eps", NEAR_TOTAL)
    def test_near_total_conflict_with_one_exact_side(self, eps):
        exact_eps = Fraction(eps)
        cases = [
            # The exact side holds the near-certain existence ...
            (TupleMembership(1 - exact_eps, Fraction(1)), TupleMembership(0.0, eps)),
            (TupleMembership(1 - exact_eps, Fraction(1)), TupleMembership(eps, eps)),
            # ... or the near-certain absence.
            (TupleMembership(1 - eps, 1.0), TupleMembership(Fraction(0), exact_eps)),
            (TupleMembership(1 - eps, 1.0), TupleMembership(exact_eps, exact_eps)),
        ]
        for exact_or_float, other in cases:
            self.assert_matches_the_reference(exact_or_float, other)
            self.assert_matches_the_reference(other, exact_or_float)

    @pytest.mark.parametrize("exact_first", [True, False])
    def test_allocates_no_fraction(self, exact_first):
        exact = TupleMembership(Fraction(1, 3), Fraction(5, 7))
        rounded = TupleMembership(0.2, 0.9)
        left, right = (exact, rounded) if exact_first else (rounded, exact)
        counter = FractionCounter()
        result, kappa = counter.call(left.combine_dempster_with_conflict, right)
        assert counter.allocations == 0
        assert type(result.sn) is float and type(result.sp) is float
        assert type(kappa) is float
