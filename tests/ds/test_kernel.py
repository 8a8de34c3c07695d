"""The compact evidence kernel: equivalence with the frozenset oracle.

The kernel (:mod:`repro.ds.kernel`) is the library's one evidence
engine -- interned frames and atom tables, bitmask focal elements -- so
every operation must return *identical* results to the textbook
frozenset loops of :mod:`tests.ds.oracle`: exact Fractions exactly
equal, floats bit-for-bit equal (both visit pairs in the canonical
focal order, so even round-off matches).  The Hypothesis properties
here drive random enumerated frames and open domains (string, integer
and mixed atoms), random mass functions (OMEGA focal elements,
total-conflict pairs, mixed Fraction/float masses) and queries naming
values the evidence never mentions through Dempster, conjunctive,
disjunctive, discount, Bel/Pls/Q and chained folds, and assert
equality.  The mixed pool holds equal atoms of different types (``1``,
``1.0``, ``True``): one bit stands for all of them, so there results
are compared as dicts (see :func:`aliased`).
"""

import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.ds import (
    MassFunction,
    OMEGA,
    combine,
    combine_with_conflict,
    compile_mass_function,
    conjunctive,
    disjunctive,
    discount,
    intern_frame,
    kernel,
    kernel_stats,
)
from repro.ds.belief import belief, commonality, plausibility, uncertainty_interval
from repro.ds.frame import FrameOfDiscernment
from repro.ds.kernel import CompiledMass, InternedFrame, align, intern_atoms
from repro.ds.mass import _focal_sort_key
from repro.ds.notation import format_atom
from repro.errors import DomainError, MassFunctionError, ReproError
from tests.ds import oracle


# -- strategies ---------------------------------------------------------------

VALUE_POOL = [f"v{i:02d}" for i in range(16)]

#: Atom pools of the open domains and frames the properties draw from.
ATOM_POOLS = {
    "str": [f"v{i:02d}" for i in range(8)],
    "int": list(range(8)),
    # Equal atoms of different types (1, 1.0, True; 2.5, Fraction(5, 2))
    # share a bit within a table but must not share a table.
    "mixed": ["a", "b", 1, 2, 2.5, "2.5", -3, "Ω", 1.0, True, Fraction(5, 2)],
}

#: Values no drawn mass function ever mentions (query-only values).
UNMENTIONED = ["zz", 99, 7.25]


ALL_KINDS = ("exact", "float", "mixed")


@st.composite
def weights(draw, count, kinds=ALL_KINDS):
    """Normalized exact, float or mixed Fraction/float weights."""
    raw = [draw(st.integers(min_value=1, max_value=9)) for _ in range(count)]
    total = sum(raw)
    kind = draw(st.sampled_from(kinds))
    if kind == "exact":
        return [Fraction(w, total) for w in raw]
    if kind == "float":
        return [w / total for w in raw]
    return [
        Fraction(w, total) if draw(st.booleans()) else w / total for w in raw
    ]


@st.composite
def masses_over(draw, values, frame=None, kinds=ALL_KINDS):
    """A random mass function whose focal elements draw from *values*."""
    n_focal = draw(st.integers(min_value=1, max_value=4))
    elements = []
    if draw(st.booleans()):
        elements.append(OMEGA)
    while len(elements) < n_focal:
        members = draw(
            st.frozensets(st.sampled_from(values), min_size=1, max_size=3)
        )
        if members not in elements:
            elements.append(members)
    masses = draw(weights(len(elements), kinds))
    return MassFunction(dict(zip(elements, masses)), frame)


@st.composite
def domains(draw):
    """``(frame or None, values)``: an enumerated frame or an open domain."""
    pool = ATOM_POOLS[draw(st.sampled_from(sorted(ATOM_POOLS)))]
    values = pool[: draw(st.integers(min_value=1, max_value=len(pool)))]
    if draw(st.booleans()):
        return FrameOfDiscernment("hyp", values), values
    return None, values


@st.composite
def evidence_pairs(draw, kinds=ALL_KINDS):
    """Two operands: both framed, both open, or one of each (mixed)."""
    frame, values = draw(domains())
    first = draw(masses_over(values, frame, kinds))
    second_frame = frame if draw(st.booleans()) else None
    second = draw(masses_over(values, second_frame, kinds))
    return (first, second) if draw(st.booleans()) else (second, first)


@st.composite
def conflicting_pairs(draw, kinds=ALL_KINDS):
    """Two operands skewed toward high and total conflict: each puts its
    focal elements on its own half of the values, so every product
    conflicts unless an operand holds a *bridge* -- OMEGA or an element
    of the other half -- which keeps kappa below one."""
    frame, values = draw(domains().filter(lambda domain: len(domain[1]) >= 2))
    half = len(values) // 2
    operands = []
    for own, other in ((values[:half], values[half:]), (values[half:], values[:half])):
        elements = draw(
            st.lists(
                st.frozensets(st.sampled_from(own), min_size=1, max_size=3),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        bridge = draw(st.sampled_from(["none", "none", "omega", "other"]))
        if bridge == "omega":
            elements.append(OMEGA)
        elif bridge == "other":
            crossing = draw(
                st.frozensets(st.sampled_from(other), min_size=1, max_size=2)
            )
            # Equal atoms of other types (1 and 1.0) can sit on both halves.
            if crossing not in elements:
                elements.append(crossing)
        masses = draw(weights(len(elements), kinds))
        operand_frame = frame if not operands or draw(st.booleans()) else None
        operands.append(MassFunction(dict(zip(elements, masses)), operand_frame))
    return tuple(operands) if draw(st.booleans()) else tuple(reversed(operands))


@st.composite
def queries(draw, values):
    """A query: OMEGA, or values from the domain and maybe unmentioned ones."""
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        return OMEGA
    members = draw(
        st.frozensets(st.sampled_from(values), max_size=len(values))
    ) | draw(st.frozensets(st.sampled_from(UNMENTIONED), max_size=2))
    return members or frozenset(values[:1])


# -- comparison helpers -------------------------------------------------------


def same_number(a, b) -> bool:
    """Equal in value, type and (for floats) bits."""
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if isinstance(a, float) else a == b


def same_items(a, b) -> bool:
    """Equal ``(element, mass)`` sequences, masses by :func:`same_number`."""
    a, b = list(a), list(b)
    return len(a) == len(b) and all(
        x == y and same_number(u, v) for (x, u), (y, v) in zip(a, b)
    )


def close_number(a, b) -> bool:
    """Equal in type and value; floats within a few units of round-off."""
    if isinstance(a, float) and type(a) is type(b):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
    return same_number(a, b)


def aliased(*sources: MassFunction) -> bool:
    """Whether *sources* mention equal atoms of different types.

    ``1``, ``1.0`` and ``True`` (or ``2.5`` and ``Fraction(5, 2)``) are
    one value, so the kernel gives them one bit and a result names the
    left operand's atom, or the frame's value when an operand has a
    frame (an open operand is re-mapped onto it, so its frame's values
    count even when its only focal element is OMEGA).  Results are then
    equal to the frozenset loops' as dicts, but their canonical order --
    by ``repr`` -- can differ, and a later fold can add float products
    in a different order.
    """
    seen: dict = {}
    for m in sources:
        atoms = [
            atom
            for element in m.focal_elements()
            if element is not OMEGA
            for atom in element
        ]
        if m.frame is not None:
            atoms.extend(m.frame.values)
        for atom in atoms:
            first = seen.setdefault(atom, atom)
            if type(first) is not type(atom) or repr(first) != repr(atom):
                return True
    return False


def outcome(operation, *args):
    """``("ok", value)`` or ``("error", exception class)``."""
    try:
        return "ok", operation(*args)
    except ReproError as exc:
        return "error", type(exc)


def assert_same_mass(
    a: MassFunction, b: MassFunction, *, unordered=False, same=same_number
):
    """Equal items in canonical order (in any order when *unordered*,
    masses compared by *same*) and the same frame."""
    if unordered:
        got, want = dict(a.items()), dict(b.items())
        assert got.keys() == want.keys()
        assert all(same(got[element], want[element]) for element in want)
    else:
        assert same_items(a.items(), b.items())
    assert a.frame == b.frame


# -- equivalence with the oracle ----------------------------------------------


def assert_dempster_matches(pair):
    kind, got = outcome(combine_with_conflict, *pair)
    want_kind, want = outcome(oracle.combine_with_conflict, *pair)
    assert kind == want_kind
    if kind == "error":
        assert got is want
        return
    (result, kappa), (expected, expected_kappa) = got, want
    assert same_number(kappa, expected_kappa)
    if expected is None:
        assert result is None
    else:
        assert result.is_compiled
        assert result.frame == (pair[0].frame or pair[1].frame)
        assert_same_mass(result, expected, unordered=aliased(*pair))


class TestPathEquivalence:
    """The kernel path against the oracle path."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            evidence_pairs(kinds=("exact",)), conflicting_pairs(kinds=("exact",))
        )
    )
    def test_combine_exact(self, pair):
        """Exact operands pool int numerators; half the pairs are skewed
        toward high and total conflict.  A conflict-free kappa stays the
        int ``0``."""
        assert_dempster_matches(pair)
        kind, got = outcome(combine_with_conflict, *pair)
        if kind == "ok" and not got[1]:
            assert type(got[1]) is int

    @settings(max_examples=100, deadline=None)
    @given(evidence_pairs(kinds=("float", "mixed")))
    def test_combine_float_bit_exact(self, pair):
        """Floats too: both add products in the same order."""
        assert_dempster_matches(pair)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(evidence_pairs(), conflicting_pairs()))
    def test_conjunctive(self, pair):
        kind, got = outcome(conjunctive, *pair)
        want_kind, want = outcome(oracle.conjunctive, *pair)
        assert kind == want_kind
        if kind == "ok":
            if aliased(*pair):
                assert got[0].keys() == want[0].keys()
                assert all(same_number(got[0][e], want[0][e]) for e in want[0])
            else:
                assert same_items(got[0].items(), want[0].items())
            assert same_number(got[1], want[1])

    @settings(max_examples=100, deadline=None)
    @given(evidence_pairs())
    def test_disjunctive(self, pair):
        kind, got = outcome(disjunctive, *pair)
        want_kind, want = outcome(oracle.disjunctive, *pair)
        assert kind == want_kind
        if kind == "ok":
            assert_same_mass(got, want, unordered=aliased(*pair))

    @settings(max_examples=100, deadline=None)
    @given(
        domains().flatmap(lambda d: masses_over(d[1], d[0])),
        st.integers(min_value=0, max_value=10),
        st.booleans(),
    )
    def test_discount(self, m, tenths, as_float):
        reliability = tenths / 10 if as_float else Fraction(tenths, 10)
        assert_same_mass(
            discount(m, reliability),
            oracle.discount(m, reliability),
            unordered=aliased(m),
        )

    @settings(max_examples=150, deadline=None)
    @given(
        domains().flatmap(
            lambda d: st.tuples(masses_over(d[1], d[0]), queries(d[1]))
        )
    )
    def test_bel_pls_commonality(self, case):
        m, query = case
        for measure, reference in (
            (belief, oracle.belief),
            (plausibility, oracle.plausibility),
            (commonality, oracle.commonality),
        ):
            kind, got = outcome(measure, m, query)
            want_kind, want = outcome(reference, m, query)
            assert kind == want_kind
            assert same_number(got, want) if kind == "ok" else got is want
        kind, got = outcome(uncertainty_interval, m, query)
        if kind == "ok":
            assert same_number(got[0], oracle.belief(m, query))
            assert same_number(got[1], oracle.plausibility(m, query))

    @settings(max_examples=80, deadline=None)
    @given(
        domains().flatmap(
            lambda d: st.lists(masses_over(d[1], d[0]), min_size=2, max_size=5)
        )
    )
    def test_chained_combination_stays_compiled(self, sources):
        """A fold over compiled states equals the frozenset fold (bit for
        bit unless equal atoms of different types reorder the results)."""
        unordered = aliased(*sources)
        same = close_number if unordered else same_number
        result, expected = sources[0], sources[0]
        for m in sources[1:]:
            result, _ = combine_with_conflict(result, m)
            expected, _ = oracle.combine_with_conflict(expected, m)
            assert (result is None) == (expected is None)
            if expected is None:
                return
            assert_same_mass(result, expected, unordered=unordered, same=same)
        assert result.is_compiled

    def test_total_conflict_both_paths(self):
        for frame in (FrameOfDiscernment("f", ["a", "b"]), None):
            m1 = MassFunction({"a": 1}, frame)
            m2 = MassFunction({"b": 1}, frame)
            assert combine_with_conflict(m1, m2) == (None, 1)
            assert oracle.combine_with_conflict(m1, m2) == (None, 1)

    def test_omega_only_is_identity(self):
        for frame in (FrameOfDiscernment("f", ["a", "b", "c"]), None):
            vacuous = MassFunction({OMEGA: 1}, frame)
            m = MassFunction({"a": "1/2", OMEGA: "1/2"}, frame)
            assert_same_mass(combine(m, vacuous), m)
            assert_same_mass(combine(vacuous, m), m)


# -- compilation mechanics ----------------------------------------------------


class TestCompilation:
    def test_lazy_compile_on_demand(self):
        frame = FrameOfDiscernment("f", ["a", "b", "c"])
        m = MassFunction({"a": "1/2", OMEGA: "1/2"}, frame)
        assert not m.is_compiled
        compiled = m.compiled()
        assert m.is_compiled and isinstance(compiled, CompiledMass)
        assert m.compiled() is compiled  # cached

    def test_mixed_fraction_float_masses_compile_and_combine(self):
        """Mixed Fraction/float inputs equal the oracle (tolerance from
        FLOAT_SUM_TOLERANCE), over a frame and over an open domain."""
        for frame in (FrameOfDiscernment("f", ["a", "b", "c"]), None):
            mixed = MassFunction(
                {"a": Fraction(1, 2), ("b", "c"): 0.25, OMEGA: 0.25}, frame
            )
            other = MassFunction({"a": 0.5, OMEGA: Fraction(1, 2)}, frame)
            assert_same_mass(
                combine(mixed, other),
                oracle.combine_with_conflict(mixed, other)[0],
            )

    def test_open_domain_compiles_over_its_atoms(self):
        m = MassFunction({"a": "1/2", ("a", "b"): "1/4", OMEGA: "1/4"})
        compiled = m.compiled()
        assert m.compiled() is compiled  # cached
        table = compiled.interned
        assert table.frame is None and table.atoms == {"a", "b"}
        # Two atom bits, then the query and residual bits only OMEGA has.
        assert compiled.masks == (0b0001, 0b0011, 0b1111)
        assert table.element_of(table.omega_mask) is OMEGA
        assert table.element_of(0b0011) == frozenset({"a", "b"})

    def test_open_results_keep_no_frame(self):
        m1 = MassFunction({"a": "1/2", OMEGA: "1/2"})
        m2 = MassFunction({("a", "b"): "1/3", OMEGA: "2/3"})
        for result in (combine(m1, m2), disjunctive(m1, m2), discount(m1, "1/2")):
            assert result.is_compiled and result.frame is None
            assert result.compiled().interned.frame is None

    def test_equal_atom_sets_share_one_table(self):
        assert intern_atoms(frozenset({"x", "y"})) is intern_atoms(
            frozenset({"y", "x"})
        )
        a = MassFunction.definite("item-7").compiled()
        b = MassFunction({"item-7": 0.5, OMEGA: 0.5}).compiled()
        assert a.interned is b.interned
        aligned = align(a, b)
        assert aligned[0] is a and aligned[1] is b  # no re-mapping

    def test_equal_atoms_of_other_types_keep_their_own_tables(self):
        """Decoding never depends on what the process compiled before."""
        exact = MassFunction({Fraction(5, 2): "1/2", 3: "1/2"}).compiled()
        floats = MassFunction({2.5: 0.5, 3: 0.5}).compiled()
        assert exact.interned is not floats.interned
        MassFunction({1: 0.5, OMEGA: 0.5}).compiled()
        discounted = discount(MassFunction({1.0: 1.0}), 0.5)
        assert [type(value) for value in discounted.focal_elements()[0]] == [float]
        assert discounted.compiled().interned.rendered_members(
            discounted.compiled().masks[0]
        ) == ("1.0",)

    def test_equal_frames_of_other_types_keep_their_own_tables(self):
        """Framed evidence decodes to its own frame's values, whatever
        the process compiled first: ``{1, 2}`` and ``{1.0, 2}`` are
        equal frames but intern apart."""
        MassFunction(
            {1: 0.5, OMEGA: 0.5}, FrameOfDiscernment("f", [1, 2])
        ).compiled()
        discounted = discount(
            MassFunction({1.0: 1.0}, FrameOfDiscernment("f", [1.0, 2])), 0.5
        )
        assert [type(value) for value in discounted.focal_elements()[0]] == [float]

    @pytest.mark.parametrize("clear", [False, True])
    def test_equal_atoms_at_other_bits_are_re_mapped(self, clear):
        """{1.0, 5} and {True, 5} are equal sets whose ``repr`` orders put
        the two values at opposite bits: combined unaligned, {5} would
        pool with {True}.  Clearing the interning cache between the two
        compilations (as a full cache or unpickled states do) changes
        nothing."""
        left = MassFunction({5: "3/4", 1.0: "1/4"})
        right = MassFunction({True: "1/3", 5: "2/3"})
        left.compiled()
        if clear:
            kernel._INTERNED.clear()
        right.compiled()
        result, kappa = combine_with_conflict(left, right)
        assert kappa == Fraction(5, 12)
        assert result[{5}] == Fraction(6, 7) and result[{1}] == Fraction(1, 7)
        expected, expected_kappa = oracle.combine_with_conflict(left, right)
        assert kappa == expected_kappa
        assert_same_mass(result, expected, unordered=True)

    def test_equal_frames_interned_apart_are_re_mapped(self):
        """The same hazard on frames: equal frames whose values differ in
        type, interned apart, lay their values out differently."""
        left = MassFunction(
            {5: "3/4", 1.0: "1/4"}, FrameOfDiscernment("f", [1.0, 5])
        )
        left.compiled()
        kernel._INTERNED.clear()
        right = MassFunction(
            {True: "1/3", 5: "2/3"}, FrameOfDiscernment("f", [True, 5])
        )
        right.compiled()
        result, kappa = combine_with_conflict(left, right)
        assert kappa == Fraction(5, 12)
        assert result[{5}] == Fraction(6, 7) and result[{1}] == Fraction(1, 7)

    def test_tables_interned_twice_meet_without_re_mapping(self):
        first = MassFunction({2.5: 0.5, 3: 0.5}).compiled()
        kernel._INTERNED.clear()
        second = MassFunction({3: 0.25, 2.5: 0.75}).compiled()
        assert first.interned is not second.interned
        aligned = align(first, second)
        assert aligned[0] is first and aligned[1] is second

    def test_different_atom_sets_meet_on_their_union(self):
        a = MassFunction({"a": "1/2", OMEGA: "1/2"}).compiled()
        b = MassFunction({"b": "1/2", OMEGA: "1/2"}).compiled()
        left, right = align(a, b)
        assert left.interned is right.interned
        assert left.interned.atoms == {"a", "b"}
        assert left.interned.element_of(left.masks[0]) == frozenset({"a"})
        assert right.interned.element_of(right.masks[0]) == frozenset({"b"})

    def test_open_omega_is_never_inside_a_finite_query(self):
        m = MassFunction({"a": "1/2", OMEGA: "1/2"})
        # {a, zz} names every atom plus a value the evidence never does:
        # still a finite set, so OMEGA is not a subset of it.
        assert belief(m, {"a", "zz"}) == Fraction(1, 2)
        assert plausibility(m, {"zz"}) == Fraction(1, 2)
        assert commonality(m, {"a", "zz"}) == Fraction(1, 2)
        assert belief(m, OMEGA) == plausibility(m, OMEGA) == 1

    def test_mixed_pair_compiles_against_the_frame(self):
        frame = FrameOfDiscernment("f", ["a", "b", "c"])
        framed = MassFunction({"a": "1/2", OMEGA: "1/2"}, frame)
        whole = MassFunction({("a", "b", "c"): "1/2", "b": "1/2"})
        combined = combine(framed, whole)
        assert combined.frame == frame
        # The frameless set naming the whole frame is the frame's OMEGA.
        assert combined[OMEGA] == Fraction(1, 3)
        assert_same_mass(combined, oracle.combine_with_conflict(framed, whole)[0])
        outside = MassFunction({"zzz": "1/2", "a": "1/2"})
        with pytest.raises(DomainError):
            combine(framed, outside)
        with pytest.raises(DomainError):
            combine(outside, framed)

    def test_interning_shares_bit_assignment(self):
        f1 = FrameOfDiscernment("f", ["a", "b", "c"])
        f2 = FrameOfDiscernment("f", ["c", "b", "a"])
        assert intern_frame(f1) is intern_frame(f2)

    def test_masks_round_trip(self):
        frame = FrameOfDiscernment("f", ["a", "b", "c", "d"])
        interned = intern_frame(frame)
        assert isinstance(interned, InternedFrame)
        for element in (frozenset({"a"}), frozenset({"b", "d"}), OMEGA):
            mask = interned.mask_of(element)
            assert interned.element_of(mask) == element
        # The full concrete set canonicalizes to OMEGA, as frames do.
        assert interned.mask_of(frame.values) == interned.omega_mask
        assert interned.element_of(interned.omega_mask) is OMEGA

    def test_mask_of_rejects_out_of_frame_values(self):
        interned = intern_frame(FrameOfDiscernment("f", ["a", "b"]))
        with pytest.raises(DomainError):
            interned.mask_of(frozenset({"zzz"}))
        with pytest.raises(DomainError):
            interned.query_mask(frozenset({"zzz"}))

    def test_compiled_result_is_lazy_but_faithful(self):
        frame = FrameOfDiscernment("f", ["a", "b", "c"])
        m1 = MassFunction({"a": "1/2", ("a", "b"): "1/4", OMEGA: "1/4"}, frame)
        m2 = MassFunction({("a", "c"): "2/3", OMEGA: "1/3"}, frame)
        combined = combine(m1, m2)
        assert combined.is_compiled
        assert combined.frame == frame
        assert combined[{"a"}] == Fraction(2, 3)
        assert sum(value for _, value in combined.items()) == 1

    def test_compilation_reuses_mass_function_coercion(self):
        """No re-implemented coercion: strings, ints and Fractions flow
        through coerce_mass_value before compilation."""
        frame = FrameOfDiscernment("f", ["a", "b"])
        m = MassFunction({"a": "1/3", "b": Fraction(1, 3), ("a", "b"): "1/3"}, frame)
        compiled = compile_mass_function(m)
        assert all(isinstance(v, Fraction) for v in compiled.values)
        assert compiled.is_exact()

    def test_float_sum_tolerance_shared_with_kernel(self):
        """A drifted-but-in-tolerance float total compiles; a genuinely
        broken one fails at construction."""
        frame = FrameOfDiscernment("f", ["a", "b"])
        within = MassFunction({"a": 0.5 + 4e-10, OMEGA: 0.5}, frame)
        assert within.compiled() is not None
        with pytest.raises(MassFunctionError):
            MassFunction({"a": 0.5, OMEGA: 0.4}, frame)

    def test_pickle_drops_compiled_cache(self):
        import pickle

        frame = FrameOfDiscernment("f", ["a", "b"])
        m = MassFunction({"a": "1/2", OMEGA: "1/2"}, frame)
        m.compiled()
        clone = pickle.loads(pickle.dumps(m))
        assert clone == m
        assert not clone.is_compiled
        assert clone.compiled() is not None

    def test_stats_count_paths(self):
        """Framed and open-domain evidence both combine on the kernel."""
        stats = kernel_stats()
        frame = FrameOfDiscernment("f", ["a", "b"])
        framed = MassFunction({"a": "1/2", OMEGA: "1/2"}, frame)
        bare = MassFunction({"a": "1/2", OMEGA: "1/2"})
        before = stats.snapshot()
        combine(framed, framed)
        combine(bare, bare)
        delta = stats.since(before)
        assert delta.kernel_combinations == 2
        assert "kernel" in stats.summary()


class TestStatsConcurrency:
    """The counters must stay exact under concurrent bumps.

    The executor layer runs combination/compilation inside pool
    threads, so ``STATS`` is bumped concurrently; a plain ``+= 1``
    would lose updates under contention.  Eight threads hammer
    :func:`compile_mass_function` through a start barrier and the
    aggregate must come out exact, not merely close.
    """

    THREADS = 8
    ROUNDS = 250

    def test_concurrent_compilations_counted_exactly(self):
        import threading

        stats = kernel_stats()
        frame = FrameOfDiscernment("conc", ["a", "b", "c"])
        before = stats.snapshot()
        barrier = threading.Barrier(self.THREADS)
        failures = []

        def hammer():
            try:
                barrier.wait()
                for _ in range(self.ROUNDS):
                    m = MassFunction({"a": "1/2", OMEGA: "1/2"}, frame)
                    compile_mass_function(m)
            except Exception as exc:  # pragma: no cover - diagnostic aid
                failures.append(exc)

        workers = [
            threading.Thread(target=hammer) for _ in range(self.THREADS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        assert not failures
        delta = stats.since(before)
        assert delta.compilations == self.THREADS * self.ROUNDS


class TestMaskCaches:
    """Per-mask sort keys and renderings, cached on the interned frame."""

    FRAME = FrameOfDiscernment("cache", ["a", "b", 'c"q', 1, 2.5, "1/3"])

    def test_sort_keys_order_like_focal_elements(self):
        interned = InternedFrame(self.FRAME)
        masks = range(1, interned.omega_mask + 1)
        by_mask = sorted(masks, key=interned.sort_key)
        by_element = sorted(
            masks, key=lambda mask: _focal_sort_key(interned.element_of(mask))
        )
        assert by_mask == by_element
        # Cached keys are the same objects on the second lookup.
        assert all(interned.sort_key(m) is interned.sort_key(m) for m in masks)

    def test_rendered_members_are_sorted_format_atoms(self):
        interned = InternedFrame(self.FRAME)
        assert interned.rendered_members(interned.omega_mask) is None
        for mask in range(1, interned.omega_mask):
            element = interned.element_of(mask)
            assert interned.rendered_members(mask) == tuple(
                sorted(format_atom(value) for value in element)
            )

    def test_bounded_and_correct_under_threads(self, monkeypatch):
        reference = InternedFrame(self.FRAME)
        masks = list(range(1, reference.omega_mask + 1))
        expected = {
            mask: (reference.sort_key(mask), reference.rendered_members(mask))
            for mask in masks
        }
        monkeypatch.setattr(kernel, "_INTERN_LIMIT", 8)
        shared = InternedFrame(self.FRAME)
        wrong = []
        barrier = threading.Barrier(8)

        def hammer(offset):
            barrier.wait()
            for round_ in range(20):
                for mask in masks[offset:] + masks[:offset]:
                    got = (shared.sort_key(mask), shared.rendered_members(mask))
                    if got != expected[mask]:
                        wrong.append((mask, got))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=hammer, args=(7 * index,))
                for index in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(worker.is_alive() for worker in workers)
        assert not wrong
        assert len(shared._sort_keys) <= 8
        assert len(shared._renderings) <= 8


class TestUnseededSums:
    """``bel``/``pls``/``bel_pls``/``commonality`` start their sums from
    the first matching mass; they must equal the ``Fraction(0)``-seeded
    sums in value and in type, for exact, float and mixed masses."""

    SUBNORMALS = [5e-324, 1e-310, 2.2250738585072009e-308]

    masses = st.one_of(
        st.fractions(min_value=0, max_value=1, max_denominator=1000),
        st.floats(min_value=0.0, max_value=1.0),  # never -0.0
        st.sampled_from([Fraction(0), Fraction(1), 0.0, 1.0, *SUBNORMALS]),
    )

    @staticmethod
    def seeded(compiled, matches):
        total = Fraction(0)
        for mask, value in zip(compiled.masks, compiled.values):
            if matches(mask):
                total = total + value
        return total

    @staticmethod
    def same(left, right) -> bool:
        if type(left) is not type(right):
            return False
        return left.hex() == right.hex() if isinstance(left, float) else left == right

    @given(data=st.data())
    def test_equal_to_the_seeded_sums(self, data):
        frame = FrameOfDiscernment("sums", VALUE_POOL[:6])
        interned = intern_frame(frame)
        masks = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=interned.omega_mask),
                max_size=6,
                unique=True,
            )
        )
        values = [data.draw(self.masses) for _ in masks]
        compiled = CompiledMass(interned, tuple(masks), tuple(values))
        query = data.draw(st.integers(min_value=0, max_value=interned.omega_mask))
        bel = self.seeded(compiled, lambda mask: mask & query == mask)
        pls = self.seeded(compiled, lambda mask: mask & query)
        common = self.seeded(compiled, lambda mask: mask & query == query)
        assert self.same(compiled.bel(query), bel)
        assert self.same(compiled.pls(query), pls)
        sn, sp = compiled.bel_pls(query)
        assert self.same(sn, bel) and self.same(sp, pls)
        assert self.same(compiled.commonality(query), common)

    def test_empty_sums_are_the_shared_zero(self):
        interned = intern_frame(FrameOfDiscernment("sums", VALUE_POOL[:3]))
        compiled = CompiledMass(interned, (0b001,), (0.5,))
        assert compiled.bel(0b110) is kernel._ZERO
        assert compiled.pls(0b110) is kernel._ZERO
        assert compiled.bel_pls(0b110) == (kernel._ZERO, kernel._ZERO)
        assert compiled.commonality(0b010) is kernel._ZERO


# -- compilation order --------------------------------------------------------

#: Atom pools of the compilation property.  ``mixed`` holds equal atoms
#: of other types (``1``, ``1.0``, ``True``; ``2.5``, ``Fraction(5, 2)``)
#: and spellings (``0.0``, ``-0.0``), whose ``repr`` order can differ
#: from the order of the bit their equal atom holds.
COMPILE_POOLS = {
    "str": ["a", "b", "c", "Ω", "10", "9", "a b", "'"],
    "int": [0, 1, 2, 9, 10, -3, 100, 2**70],
    "bool": [True, False],
    "float": [0.5, 2.5, 1.0, 0.0, 1e-9, 10.0, -7.25],
    "Fraction": [Fraction(1, 3), Fraction(5, 2), Fraction(1), Fraction(-3, 7)],
    "mixed": [
        "a", "1", 1, 10, True, False, 0, 1.0, 0.0, -0.0, 2.5,
        Fraction(5, 2), Fraction(1, 3), "2.5",
    ],
}


_COMPILE_VALUES = st.lists(
    st.integers(min_value=0, max_value=13), min_size=1, max_size=6
)
_COMPILE_MEMBERS = st.frozensets(
    st.integers(min_value=0, max_value=5), min_size=1, max_size=3
)


@st.composite
def compile_cases(draw):
    """A mass function over a frame or an open domain of drawn atoms:
    OMEGA, a single focal element, and the full frame (which the
    constructor canonicalizes to OMEGA) all come up."""
    # Indices into fixed-size pools keep every strategy cached.
    pool = COMPILE_POOLS[draw(st.sampled_from(sorted(COMPILE_POOLS)))]
    values = [pool[i % len(pool)] for i in draw(_COMPILE_VALUES)]
    frame = FrameOfDiscernment("compile", values) if draw(st.booleans()) else None
    n_focal = draw(st.integers(min_value=1, max_value=5))
    elements: list = []
    if draw(st.booleans()):
        elements.append(OMEGA)
    if frame is not None and draw(st.booleans()):
        elements.append(frozenset(values))  # the whole frame: OMEGA
    for _ in range(n_focal):  # a repeated draw adds nothing
        members = frozenset(
            values[i % len(values)] for i in draw(_COMPILE_MEMBERS)
        )
        if members not in elements:
            elements.append(members)
    masses = draw(weights(len(elements)))
    return MassFunction(dict(zip(elements, masses)), frame)


class TestCompileOrder:
    """:func:`compile_mass_function` orders masks by the table's cached
    sort keys; the repr-sorted compilation of :mod:`tests.ds.oracle` is
    the reference for its table, masks, values and value types."""

    @staticmethod
    def compile_counting_sort_keys(m):
        """Compile *m*; return the form and the ``_focal_sort_key`` calls."""
        calls = []
        original = kernel._focal_sort_key

        def counting(element):
            calls.append(element)
            return original(element)

        kernel._focal_sort_key = counting
        try:
            return kernel.compile_mass_function(m), len(calls)
        finally:
            kernel._focal_sort_key = original

    def assert_same_form(self, got: CompiledMass, want: CompiledMass):
        assert got.interned is want.interned
        assert got.masks == want.masks
        assert len(got.values) == len(want.values)
        assert all(map(same_number, got.values, want.values))

    @settings(max_examples=300, deadline=None)
    @given(m=compile_cases())
    def test_equals_the_repr_sorted_compilation(self, m):
        got, sort_key_calls = self.compile_counting_sort_keys(m)
        self.assert_same_form(got, oracle.compile_by_repr(m))
        if not aliased(m):
            # Every atom is its bit's own: the masks' sort keys order them.
            assert sort_key_calls == 0

    def test_single_and_full_frame_elements(self):
        frame = FrameOfDiscernment("f", ["x", "y"])
        for m in (
            MassFunction({("x", "y"): 1}, frame),  # canonicalized to OMEGA
            MassFunction({"x": 0.5, ("x", "y"): 0.5}, frame),
            MassFunction({("x", "y"): 1}),
            MassFunction({OMEGA: 1}),
            MassFunction.definite(2**70),
        ):
            got, sort_key_calls = self.compile_counting_sort_keys(m)
            self.assert_same_form(got, oracle.compile_by_repr(m))
            assert sort_key_calls == 0

    @pytest.mark.parametrize(
        "m",
        [
            # True sits at the bit of 1, which sorts before "10"; its own
            # repr sorts after it.
            MassFunction(
                {True: 0.25, 10: 0.75}, FrameOfDiscernment("f", [1, 2, 10])
            ),
            # -0.0 sits at the bit of 0.0, after -1.0; its own repr sorts
            # before it.
            MassFunction(
                {-0.0: 0.5, -1.0: 0.5}, FrameOfDiscernment("f", [0.0, -1.0])
            ),
            # Open domain: the table keeps the atom of the first element
            # in repr order, 1.0 (not the 1 that the dict lists first).
            MassFunction({(1, 5): 0.5, 1.0: 0.25, OMEGA: 0.25}),
        ],
        ids=["bool-at-int", "negative-zero", "open-int-and-float"],
    )
    def test_equal_atoms_spelled_otherwise_keep_the_repr_order(self, m):
        got, sort_key_calls = self.compile_counting_sort_keys(m)
        self.assert_same_form(got, oracle.compile_by_repr(m))
        assert sort_key_calls == len(m)


# -- equal definite operands ----------------------------------------------------


PAIR_FRAME = FrameOfDiscernment("pair", ["x", "y"])


class TestEqualDefiniteIdentity:
    """A conflict-free result equal to the left operand's single focal
    element and mass, in value and type, is the left operand itself
    (when both operands share a table, so the left one is not
    re-mapped)."""

    @pytest.mark.parametrize(
        "left, right",
        [
            (MassFunction.definite("x"), MassFunction.definite("x")),
            (MassFunction({"x": 1.0}), MassFunction({"x": 1.0})),
            (
                MassFunction.definite("x", PAIR_FRAME),
                MassFunction.definite("x", PAIR_FRAME),
            ),
            (MassFunction({"x": 1.0}), MassFunction({"x": 0.5, OMEGA: 0.5})),
        ],
    )
    def test_returns_the_left_operand(self, left, right):
        result, kappa = combine_with_conflict(left, right)
        assert result is left
        assert kappa == 0 and type(kappa) is int
        expected, expected_kappa = oracle.combine_with_conflict(left, right)
        assert same_number(kappa, expected_kappa)
        assert_same_mass(result, expected)

    @pytest.mark.parametrize(
        "left, right",
        [
            (MassFunction.definite("x"), MassFunction({"x": 1.0})),
            (MassFunction({"x": "1/2", "y": "1/2"}), MassFunction.definite("x")),
            (MassFunction.definite("x"), MassFunction({"x": "1/2", "y": "1/2"})),
            (MassFunction.definite("x"), MassFunction({"x": "1/2", ("x", "y"): "1/2"})),
        ],
        ids=["fraction-one-vs-float-one", "several-focal", "conflict", "re-mapped"],
    )
    def test_other_results_are_new(self, left, right):
        result, kappa = combine_with_conflict(left, right)
        assert result is not left and result is not right
        expected, expected_kappa = oracle.combine_with_conflict(left, right)
        assert same_number(kappa, expected_kappa)
        assert_same_mass(result, expected)

    def test_different_definite_values_conflict(self):
        result, kappa = combine_with_conflict(
            MassFunction.definite("x"), MassFunction.definite("y")
        )
        assert result is None and kappa == 1

    def test_kernel_validates_the_reused_form_once(self, monkeypatch):
        left = MassFunction.definite("x").compiled()
        right = MassFunction.definite("x").compiled()
        calls = []
        original = kernel.validate_mass_total
        monkeypatch.setattr(
            kernel,
            "validate_mass_total",
            lambda values: calls.append(values) or original(values),
        )
        result, kappa = kernel.combine_compiled(left, right)
        assert result is left and kappa == 0
        assert calls == [left.values]
