"""The compact evidence kernel: equivalence with the frozenset path.

The kernel (:mod:`repro.ds.kernel`) is a pure representation change --
interned frames, bitmask focal elements -- so every operation must
return *identical* results to the symbolic frozenset path: exact
Fractions exactly equal, floats bit-for-bit equal (both paths visit
pairs in the canonical focal order, so even round-off matches).  The
Hypothesis properties here drive random frames, random mass functions
(including OMEGA focal elements and total-conflict pairs) through
combine / conjunctive / disjunctive / discount / bel / pls on both
paths and assert equality.
"""

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
    kernel_disabled,
    kernel_enabled,
    kernel_stats,
)
from repro.ds.belief import belief, commonality, plausibility, uncertainty_interval
from repro.ds.frame import FrameOfDiscernment
from repro.ds.kernel import CompiledMass, InternedFrame
from repro.ds.mass import _focal_sort_key
from repro.ds.notation import format_atom
from repro.errors import DomainError, MassFunctionError, TotalConflictError


# -- strategies ---------------------------------------------------------------

VALUE_POOL = [f"v{i:02d}" for i in range(16)]


@st.composite
def frames(draw):
    size = draw(st.integers(min_value=2, max_value=9))
    return FrameOfDiscernment("hyp", VALUE_POOL[:size])


@st.composite
def mass_functions(draw, frame, exact=True):
    """A random mass function over *frame*, possibly with OMEGA focal."""
    values = sorted(frame.values)
    n_focal = draw(st.integers(min_value=1, max_value=5))
    elements = []
    if draw(st.booleans()):
        elements.append(OMEGA)
    while len(elements) < n_focal:
        members = draw(
            st.frozensets(
                st.sampled_from(values), min_size=1, max_size=len(values)
            )
        )
        if members not in elements:
            elements.append(members)
    weights = [
        draw(st.integers(min_value=1, max_value=9)) for _ in elements
    ]
    total = sum(weights)
    if exact:
        masses = {e: Fraction(w, total) for e, w in zip(elements, weights)}
    else:
        masses = {e: w / total for e, w in zip(elements, weights)}
    return MassFunction(masses, frame)


@st.composite
def framed_pairs(draw, exact=True):
    frame = draw(frames())
    return (
        draw(mass_functions(frame, exact=exact)),
        draw(mass_functions(frame, exact=exact)),
    )


def both_paths(operation):
    """Run *operation* on the kernel path and the frozenset path.

    Fresh inputs are built by each call of *operation* via the factory
    argument pattern below, so no compiled state leaks between runs;
    exceptions are captured so raising behaviour can be compared too.
    """

    def run():
        try:
            return ("ok", operation())
        except TotalConflictError:
            return ("total-conflict", None)
        except MassFunctionError as exc:
            return ("mass-error", str(exc))

    kernel_result = run()
    with kernel_disabled():
        fallback_result = run()
    return kernel_result, fallback_result


def assert_same_mass(a: MassFunction, b: MassFunction):
    assert dict(a.items()) == dict(b.items())
    # Exactness class must match too: a Fraction must not degrade.
    for (_, va), (_, vb) in zip(a.items(), b.items()):
        assert type(va) is type(vb)


# -- equivalence properties ---------------------------------------------------


class TestPathEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(framed_pairs(exact=True))
    def test_combine_exact(self, pair):
        m1, m2 = pair
        kernel_out, fallback_out = both_paths(lambda: combine(m1, m2))
        assert kernel_out[0] == fallback_out[0]
        if kernel_out[0] == "ok":
            assert kernel_out[1].is_compiled
            assert_same_mass(kernel_out[1], fallback_out[1])

    @settings(max_examples=60, deadline=None)
    @given(framed_pairs(exact=False))
    def test_combine_float_bit_exact(self, pair):
        """Floats too: both paths add products in the same order."""
        m1, m2 = pair
        kernel_out, fallback_out = both_paths(lambda: combine(m1, m2))
        assert kernel_out[0] == fallback_out[0]
        if kernel_out[0] == "ok":
            assert_same_mass(kernel_out[1], fallback_out[1])

    @settings(max_examples=50, deadline=None)
    @given(framed_pairs(exact=True))
    def test_conjunctive(self, pair):
        m1, m2 = pair
        (_, (pooled_k, kappa_k)), (_, (pooled_f, kappa_f)) = both_paths(
            lambda: conjunctive(m1, m2)
        )
        assert pooled_k == pooled_f
        assert kappa_k == kappa_f

    @settings(max_examples=50, deadline=None)
    @given(framed_pairs(exact=True))
    def test_disjunctive(self, pair):
        m1, m2 = pair
        kernel_out, fallback_out = both_paths(lambda: disjunctive(m1, m2))
        assert_same_mass(kernel_out[1], fallback_out[1])

    @settings(max_examples=50, deadline=None)
    @given(
        framed_pairs(exact=True),
        st.integers(min_value=0, max_value=10),
    )
    def test_discount(self, pair, tenths):
        m, _ = pair
        reliability = Fraction(tenths, 10)
        kernel_out, fallback_out = both_paths(
            lambda: discount(m, reliability)
        )
        assert_same_mass(kernel_out[1], fallback_out[1])

    @settings(max_examples=60, deadline=None)
    @given(frames().flatmap(
        lambda frame: st.tuples(
            mass_functions(frame),
            st.one_of(
                st.just(OMEGA),
                st.frozensets(
                    st.sampled_from(sorted(frame.values)),
                    min_size=1,
                    max_size=len(frame.values),
                ),
            ),
        )
    ))
    def test_bel_pls_commonality(self, case):
        m, query = case
        for measure in (belief, plausibility, commonality):
            kernel_out, fallback_out = both_paths(lambda: measure(m, query))
            assert kernel_out == fallback_out
        kernel_out, fallback_out = both_paths(
            lambda: uncertainty_interval(m, query)
        )
        assert kernel_out == fallback_out

    def test_total_conflict_both_paths(self):
        frame = FrameOfDiscernment("f", ["a", "b"])
        m1 = MassFunction({"a": 1}, frame)
        m2 = MassFunction({"b": 1}, frame)
        kernel_out, fallback_out = both_paths(lambda: combine(m1, m2))
        assert kernel_out[0] == fallback_out[0] == "total-conflict"
        combined, kappa = combine_with_conflict(m1, m2)
        assert combined is None and kappa == 1

    def test_omega_only_is_identity(self):
        frame = FrameOfDiscernment("f", ["a", "b", "c"])
        vacuous = MassFunction({OMEGA: 1}, frame)
        m = MassFunction({"a": "1/2", OMEGA: "1/2"}, frame)
        combined = combine(m, vacuous)
        assert_same_mass(combined, m)

    @settings(max_examples=30, deadline=None)
    @given(framed_pairs(exact=True), framed_pairs(exact=True))
    def test_chained_combination_stays_compiled(self, pair_a, pair_b):
        """A fold over compiled states equals the frozenset fold."""
        sources = [*pair_a, *pair_b]

        def fold():
            result = sources[0]
            for m in sources[1:]:
                result = combine(result, m)
            return result

        kernel_out, fallback_out = both_paths(fold)
        assert kernel_out[0] == fallback_out[0]
        if kernel_out[0] == "ok":
            assert kernel_out[1].is_compiled
            assert_same_mass(kernel_out[1], fallback_out[1])


# -- compilation mechanics ----------------------------------------------------


class TestCompilation:
    def test_lazy_compile_on_demand(self):
        frame = FrameOfDiscernment("f", ["a", "b", "c"])
        m = MassFunction({"a": "1/2", OMEGA: "1/2"}, frame)
        assert not m.is_compiled
        compiled = m.compiled()
        assert m.is_compiled and isinstance(compiled, CompiledMass)
        assert m.compiled() is compiled  # cached

    def test_no_frame_never_compiles(self):
        m = MassFunction({"a": "1/2", OMEGA: "1/2"})
        assert m.compiled() is None
        assert not m.is_compiled

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
        """Satellite: no re-implemented coercion -- strings, ints and
        Fractions flow through coerce_mass_value before compilation."""
        frame = FrameOfDiscernment("f", ["a", "b"])
        m = MassFunction({"a": "1/3", "b": Fraction(1, 3), ("a", "b"): "1/3"}, frame)
        compiled = compile_mass_function(m)
        assert all(isinstance(v, Fraction) for v in compiled.values)
        assert compiled.is_exact()

    def test_mixed_fraction_float_masses_compile_and_combine(self):
        """Satellite regression: mixed Fraction/float inputs behave
        identically on both paths (tolerance from FLOAT_SUM_TOLERANCE)."""
        frame = FrameOfDiscernment("f", ["a", "b", "c"])
        mixed = MassFunction(
            {"a": Fraction(1, 2), ("b", "c"): 0.25, OMEGA: 0.25}, frame
        )
        other = MassFunction({"a": 0.5, OMEGA: Fraction(1, 2)}, frame)
        kernel_out, fallback_out = both_paths(lambda: combine(mixed, other))
        assert kernel_out[0] == fallback_out[0] == "ok"
        assert_same_mass(kernel_out[1], fallback_out[1])

    def test_float_sum_tolerance_shared_with_kernel(self):
        """A drifted-but-in-tolerance float total passes both paths; a
        genuinely broken one fails both with the same error."""
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

    def test_kernel_disabled_context(self):
        assert kernel_enabled()
        with kernel_disabled():
            assert not kernel_enabled()
        assert kernel_enabled()

    def test_stats_count_paths(self):
        stats = kernel_stats()
        frame = FrameOfDiscernment("f", ["a", "b"])
        framed = MassFunction({"a": "1/2", OMEGA: "1/2"}, frame)
        bare = MassFunction({"a": "1/2", OMEGA: "1/2"})
        before = stats.snapshot()
        combine(framed, framed)
        combine(bare, bare)
        delta = stats.since(before)
        assert delta.kernel_combinations == 1
        assert delta.fallback_combinations == 1
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
