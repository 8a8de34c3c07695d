"""Tests for mass functions (basic probability assignments)."""

from fractions import Fraction

import pytest

from repro.errors import MassFunctionError
from repro.ds.frame import OMEGA, FrameOfDiscernment
from repro.ds.mass import (
    MassFunction,
    coerce_focal_element,
    coerce_mass_value,
)


class TestCoercion:
    def test_int_becomes_fraction(self):
        assert coerce_mass_value(1) == Fraction(1)
        assert isinstance(coerce_mass_value(1), Fraction)

    def test_float_stays_float(self):
        assert isinstance(coerce_mass_value(0.5), float)

    def test_decimal_string_is_exact(self):
        assert coerce_mass_value("0.25") == Fraction(1, 4)

    def test_rational_string(self):
        assert coerce_mass_value("1/3") == Fraction(1, 3)

    def test_bool_rejected(self):
        with pytest.raises(MassFunctionError):
            coerce_mass_value(True)

    def test_garbage_string_rejected(self):
        with pytest.raises(MassFunctionError):
            coerce_mass_value("one half")

    def test_scalar_becomes_singleton(self):
        assert coerce_focal_element("ca") == frozenset({"ca"})
        assert coerce_focal_element(5) == frozenset({5})

    def test_string_is_not_iterated(self):
        assert coerce_focal_element("hu") == frozenset({"hu"})

    def test_iterable_becomes_frozenset(self):
        assert coerce_focal_element(["a", "b"]) == frozenset({"a", "b"})
        assert coerce_focal_element(("a",)) == frozenset({"a"})

    def test_omega_passthrough(self):
        assert coerce_focal_element(OMEGA) is OMEGA

    def test_empty_set_rejected(self):
        with pytest.raises(MassFunctionError, match="empty set"):
            coerce_focal_element(set())


class TestConstruction:
    def test_paper_section21_example(self):
        m = MassFunction({"ca": "1/2", ("hu", "si"): "1/3", OMEGA: "1/6"})
        assert m[{"ca"}] == Fraction(1, 2)
        assert m[{"hu", "si"}] == Fraction(1, 3)
        assert m[OMEGA] == Fraction(1, 6)

    def test_nonfocal_mass_is_zero(self):
        m = MassFunction({"ca": 1})
        assert m[{"hu"}] == 0
        assert m[{"ca", "hu"}] == 0  # mass is per-subset, not monotone

    def test_masses_must_sum_to_one(self):
        with pytest.raises(MassFunctionError, match="sum to 1"):
            MassFunction({"a": "1/2", "b": "1/4"})

    def test_negative_mass_rejected(self):
        with pytest.raises(MassFunctionError, match="negative"):
            MassFunction({"a": "3/2", "b": "-1/2"})

    def test_zero_masses_dropped(self):
        m = MassFunction({"a": 1, "b": 0})
        assert len(m) == 1
        assert {"b"} not in m

    def test_empty_mapping_rejected(self):
        with pytest.raises(MassFunctionError):
            MassFunction({})

    def test_duplicate_elements_accumulate(self):
        m = MassFunction({("a",): "1/2", frozenset({"a"}): "1/4", "b": "1/4"})
        assert m[{"a"}] == Fraction(3, 4)

    def test_float_masses_with_tolerance(self):
        m = MassFunction({"a": 0.1, "b": 0.2, "c": 0.7})
        assert m[{"a"}] == pytest.approx(0.1)

    def test_float_sum_violation_rejected(self):
        with pytest.raises(MassFunctionError):
            MassFunction({"a": 0.5, "b": 0.4})

    def test_frame_canonicalizes_full_set(self):
        frame = FrameOfDiscernment("f", ["x", "y"])
        m = MassFunction({frozenset({"x", "y"}): 1}, frame)
        assert m[OMEGA] == 1
        assert m.is_vacuous()

    def test_frame_rejects_foreign_values(self):
        frame = FrameOfDiscernment("f", ["x", "y"])
        with pytest.raises(Exception):
            MassFunction({"z": 1}, frame)

    def test_exact_constructor_converts_floats(self):
        m = MassFunction.exact({"a": 0.25, "b": 0.75})
        assert m[{"a"}] == Fraction(1, 4)
        assert m.is_exact()


class TestFromCounts:
    def test_vote_shares_paper_example(self):
        # Section 1.2: best-dish votes 3/2/1 -> masses 0.5 / 0.33 / 0.17.
        m = MassFunction.from_counts({"d1": 3, "d2": 2, "d3": 1})
        assert m[{"d1"}] == Fraction(1, 2)
        assert m[{"d2"}] == Fraction(1, 3)
        assert m[{"d3"}] == Fraction(1, 6)

    def test_abstentions_become_omega(self):
        m = MassFunction.from_counts({"ex": 2, "gd": 3, OMEGA: 1})
        assert m[OMEGA] == Fraction(1, 6)

    def test_zero_total_rejected(self):
        with pytest.raises(MassFunctionError):
            MassFunction.from_counts({"a": 0})

    def test_negative_count_rejected(self):
        with pytest.raises(MassFunctionError):
            MassFunction.from_counts({"a": -1, "b": 2})


class TestClassification:
    def test_definite(self):
        m = MassFunction.definite("ex")
        assert m.is_definite()
        assert m.definite_value() == "ex"
        assert not m.is_vacuous()

    def test_vacuous(self):
        m = MassFunction.vacuous()
        assert m.is_vacuous()
        assert not m.is_definite()
        assert m.ignorance() == 1

    def test_categorical_set_not_definite(self):
        m = MassFunction.categorical({"a", "b"})
        assert not m.is_definite()
        with pytest.raises(MassFunctionError):
            m.definite_value()

    def test_bayesian(self):
        assert MassFunction({"a": "1/2", "b": "1/2"}).is_bayesian()
        assert not MassFunction({("a", "b"): 1}).is_bayesian()
        assert not MassFunction({OMEGA: 1}).is_bayesian()

    def test_consonant(self):
        nested = MassFunction({"a": "1/2", ("a", "b"): "1/4", OMEGA: "1/4"})
        assert nested.is_consonant()
        crossed = MassFunction({("a", "b"): "1/2", ("b", "c"): "1/2"})
        assert not crossed.is_consonant()

    def test_core(self):
        m = MassFunction({"a": "1/2", ("b", "c"): "1/2"})
        assert m.core() == frozenset({"a", "b", "c"})

    def test_core_with_omega_unframed(self):
        m = MassFunction({"a": "1/2", OMEGA: "1/2"})
        assert m.core() is OMEGA

    def test_core_with_omega_framed(self):
        frame = FrameOfDiscernment("f", ["a", "b"])
        m = MassFunction({"a": "1/2", OMEGA: "1/2"}, frame)
        assert m.core() == frozenset({"a", "b"})


class TestConversions:
    def test_to_float_and_back(self):
        m = MassFunction({"a": "1/4", "b": "3/4"})
        floated = m.to_float()
        assert not floated.is_exact()
        assert floated.to_exact() == m

    def test_with_frame(self):
        frame = FrameOfDiscernment("f", ["a", "b"])
        m = MassFunction({"a": "1/2", "b": "1/2"}).with_frame(frame)
        assert m.frame == frame

    def test_map_elements_one_to_one(self):
        m = MassFunction({"x": "1/2", "y": "1/2"})
        mapped = m.map_elements(lambda v: v.upper())
        assert mapped[{"X"}] == Fraction(1, 2)

    def test_map_elements_merging_collisions(self):
        m = MassFunction({"x": "1/2", "y": "1/2"})
        mapped = m.map_elements(lambda v: "z")
        assert mapped[{"z"}] == 1

    def test_map_elements_one_to_many_grows_focal(self):
        m = MassFunction({"chinese": 1})
        mapped = m.map_elements(lambda v: {"hu", "si", "ca"})
        assert mapped[{"hu", "si", "ca"}] == 1

    def test_map_elements_keeps_omega(self):
        m = MassFunction({"x": "1/2", OMEGA: "1/2"})
        mapped = m.map_elements(lambda v: v)
        assert mapped[OMEGA] == Fraction(1, 2)


class TestEqualityAndOrdering:
    def test_equality_across_representations(self):
        m1 = MassFunction({"a": "1/2", "b": "1/2"})
        m2 = MassFunction({frozenset({"b"}): Fraction(1, 2), ("a",): "0.5"})
        assert m1 == m2
        assert hash(m1) == hash(m2)

    def test_omega_resolution_in_equality(self):
        frame = FrameOfDiscernment("f", ["a", "b"])
        framed = MassFunction({OMEGA: 1}, frame)
        concrete = MassFunction({frozenset({"a", "b"}): 1})
        assert framed == concrete

    def test_unframed_omega_resolves_in_the_other_frame(self):
        """Evidence decoded without its schema equals the framed original."""
        frame = FrameOfDiscernment("f", ["a", "b", "c"])
        framed = MassFunction({"a": "1/2", OMEGA: "1/2"}, frame)
        unframed = MassFunction({"a": "1/2", OMEGA: "1/2"})
        assert framed == unframed and unframed == framed
        assert hash(framed) == hash(unframed)
        # With no frame on either side OMEGA is no concrete set.
        assert unframed != MassFunction({"a": "1/2", ("a", "b", "c"): "1/2"})

    def test_focal_elements_deterministic_order(self):
        m = MassFunction({"b": "1/4", ("a", "c"): "1/4", "a": "1/4", OMEGA: "1/4"})
        elements = m.focal_elements()
        # singletons first (by size), OMEGA last
        assert elements[-1] is OMEGA
        assert elements[0] == frozenset({"a"})

    def test_repr_is_bracket_notation(self):
        m = MassFunction({"a": 1})
        assert "[a^1]" in repr(m)
