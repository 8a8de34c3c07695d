"""Tests for frames of discernment and the OMEGA singleton."""

import pickle

import pytest

from repro.errors import DomainError
from repro.ds.frame import (
    MEMBERSHIP_FRAME,
    OMEGA,
    FrameOfDiscernment,
    Omega,
    is_omega,
)


class TestOmega:
    def test_singleton_identity(self):
        assert Omega() is OMEGA

    def test_repr(self):
        assert repr(OMEGA) == "Ω"

    def test_is_omega(self):
        assert is_omega(OMEGA)
        assert is_omega(Omega())
        assert not is_omega(frozenset({"a"}))
        assert not is_omega("omega")

    def test_pickle_preserves_singleton(self):
        assert pickle.loads(pickle.dumps(OMEGA)) is OMEGA

    def test_usable_as_dict_key(self):
        d = {OMEGA: 1, frozenset({"a"}): 2}
        assert d[OMEGA] == 1


class TestFrameOfDiscernment:
    def test_basic_membership(self):
        frame = FrameOfDiscernment("rating", ["ex", "gd", "avg"])
        assert frame.contains("ex")
        assert not frame.contains("bad")
        assert "gd" in frame
        assert len(frame) == 3

    def test_empty_frame_rejected(self):
        with pytest.raises(DomainError):
            FrameOfDiscernment("empty", [])

    def test_resolve_omega(self):
        frame = FrameOfDiscernment("f", ["x", "y"])
        assert frame.resolve(OMEGA) == frozenset({"x", "y"})

    def test_resolve_concrete(self):
        frame = FrameOfDiscernment("f", ["x", "y"])
        assert frame.resolve({"x"}) == frozenset({"x"})

    def test_resolve_rejects_foreign_values(self):
        frame = FrameOfDiscernment("f", ["x", "y"])
        with pytest.raises(DomainError, match="outside frame"):
            frame.resolve({"z"})

    def test_canonicalize_full_set_to_omega(self):
        frame = FrameOfDiscernment("f", ["x", "y"])
        assert frame.canonicalize({"x", "y"}) is OMEGA

    def test_canonicalize_keeps_proper_subset(self):
        frame = FrameOfDiscernment("f", ["x", "y"])
        assert frame.canonicalize({"x"}) == frozenset({"x"})

    def test_is_subset(self):
        frame = FrameOfDiscernment("f", ["x", "y", "z"])
        assert frame.is_subset({"x", "z"})
        assert not frame.is_subset({"x", "w"})

    def test_iteration_is_deterministic(self):
        frame = FrameOfDiscernment("f", ["b", "a", "c"])
        assert list(frame) == list(frame)

    def test_subsets_nonempty(self):
        frame = FrameOfDiscernment("f", ["x", "y"])
        subsets = list(frame.subsets())
        assert frozenset({"x"}) in subsets
        assert frozenset({"x", "y"}) in subsets
        assert frozenset() not in subsets
        assert len(subsets) == 3

    def test_subsets_proper_excludes_frame(self):
        frame = FrameOfDiscernment("f", ["x", "y"])
        subsets = list(frame.subsets(proper=True))
        assert frozenset({"x", "y"}) not in subsets
        assert len(subsets) == 2

    def test_subsets_with_empty(self):
        frame = FrameOfDiscernment("f", ["x"])
        assert frozenset() in frame.subsets(nonempty=False)

    def test_equality_and_hash(self):
        f1 = FrameOfDiscernment("f", ["x", "y"])
        f2 = FrameOfDiscernment("f", ["y", "x"])
        f3 = FrameOfDiscernment("g", ["x", "y"])
        assert f1 == f2
        assert hash(f1) == hash(f2)
        assert f1 != f3

    def test_typed_key_tells_value_types_apart(self):
        ints = FrameOfDiscernment("f", [1, 2])
        floats = FrameOfDiscernment("f", [1.0, 2])
        assert ints == floats
        assert ints.typed_key != floats.typed_key
        assert ints.typed_key is ints.typed_key  # computed once
        strings = FrameOfDiscernment("f", ["x", "y"])
        assert strings.typed_key == ("f", strings.values)

    def test_membership_frame(self):
        assert MEMBERSHIP_FRAME.contains(True)
        assert MEMBERSHIP_FRAME.contains(False)
        assert len(MEMBERSHIP_FRAME) == 2
