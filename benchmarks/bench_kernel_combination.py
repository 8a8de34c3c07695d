"""The evidence kernel's Dempster combination vs the frozenset oracle.

The compact evidence kernel (:mod:`repro.ds.kernel`) encodes focal
elements as int bitmasks, so the pairwise intersections of Dempster's
rule become bitwise-ANDs with no per-pair set allocation and no
frozenset hashing.  Exact operands are pooled as int numerators over a
common denominator, so the loop allocates no Fraction either: one
normalized Fraction is built per output mass.  This bench pins the
claims the kernel exists for: a 16x16 combination over an enumerated
frame must run >= 5x faster than the textbook frozenset loop of the
test oracle (``tests/ds/oracle.py``), on float masses and on exact
Fraction masses alike.

Both produce identical results -- asserted here, over a frame and over
an open domain, and verified property-based in
``tests/ds/test_kernel.py``.

Compilation is reported, not gated: the time to compile the 1,800
evidence values of one fresh integrate operation (three float sources
of 200 entities, three attributes each, as the end-to-end benchmark
generates them), beside the repr-sorted compilation of the test oracle.
"""

import os
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.datasets.generators import SyntheticConfig, synthetic_pair
from repro.ds import MassFunction, combine, combine_all, compile_mass_function
from repro.ds.frame import OMEGA, FrameOfDiscernment
from repro.model.evidence import EvidenceSet
from tests.ds import oracle

UNIVERSE = [f"v{i:02d}" for i in range(24)]
FRAME = FrameOfDiscernment("universe", UNIVERSE)
#: Focal elements per operand (the rule is quadratic in this).
N_FOCAL = 16
#: Required kernel-vs-oracle speedup, on float and on exact masses.
#: Asserted at full strength locally; shared CI runners set a looser
#: floor via the environment so scheduler noise cannot fail the build.
RATIO_FLOOR = float(os.environ.get("KERNEL_BENCH_RATIO_FLOOR", "5"))


def _make_mass(n_focal: int, seed: int, exact: bool) -> MassFunction:
    rng = random.Random(f"{seed}/{n_focal}/{exact}")
    elements = [OMEGA]
    seen = set()
    while len(elements) < n_focal:
        element = frozenset(rng.sample(UNIVERSE, rng.randint(1, 3)))
        if element not in seen:
            seen.add(element)
            elements.append(element)
    weights = [rng.randint(1, 9) for _ in elements]
    total = sum(weights)
    if exact:
        masses = {e: Fraction(w, total) for e, w in zip(elements, weights)}
    else:
        masses = {e: w / total for e, w in zip(elements, weights)}
    return MassFunction(masses, FRAME)


def _compiled_operands(exact: bool):
    m1 = _make_mass(N_FOCAL, seed=1, exact=exact)
    m2 = _make_mass(N_FOCAL, seed=2, exact=exact)
    # Compile up front: relations compile once and combine many times,
    # so steady-state combination cost is what matters.
    m1.compiled(), m2.compiled()
    return m1, m2


@pytest.fixture(scope="module")
def operands():
    return _compiled_operands(exact=False)


@pytest.fixture(scope="module")
def exact_operands():
    return _compiled_operands(exact=True)


def _oracle_combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    combined, _ = oracle.combine_with_conflict(m1, m2)
    return combined


@pytest.mark.parametrize("exact", [False, True])
def test_equivalence_with_the_oracle(exact):
    """Sanity: the kernel changes the representation, not the result --
    over the enumerated frame and over an open domain (the same
    evidence without its frame, compiled over the atoms it mentions)."""
    m1, m2 = _compiled_operands(exact)
    open_pair = (m1.with_frame(None), m2.with_frame(None))
    for left, right in ((m1, m2), open_pair):
        on_kernel = combine(left, right)
        expected = _oracle_combine(left, right)
        assert list(on_kernel.items()) == list(expected.items())
        assert all(
            type(got) is type(want)
            for (_, got), (_, want) in zip(on_kernel.items(), expected.items())
        )
        assert on_kernel.is_compiled and on_kernel.frame == left.frame


def test_kernel_path_combination(benchmark, operands):
    m1, m2 = operands
    combined = benchmark(combine, m1, m2)
    assert abs(float(sum(v for _, v in combined.items())) - 1.0) < 1e-9


def test_oracle_combination(benchmark, operands):
    m1, m2 = operands
    combined = benchmark(_oracle_combine, m1, m2)
    assert abs(float(sum(v for _, v in combined.items())) - 1.0) < 1e-9


def test_exact_fraction_combination(benchmark, exact_operands):
    """Exact masses: pooled on int numerators (gated below)."""
    m1, m2 = exact_operands
    combined = benchmark(combine, m1, m2)
    assert sum(v for _, v in combined.items()) == 1


def test_kernel_chain_fold(benchmark):
    """Folding ten float sources: intermediates stay compiled."""
    sources = [_make_mass(6, seed=i, exact=False) for i in range(10)]
    combined = benchmark(combine_all, sources)
    assert combined.is_compiled


def test_kernel_beats_frozenset_5x(operands, bench_record):
    """The acceptance bar: >= 5x over the frozenset oracle on float
    masses over an enumerated frame (RATIO_FLOOR relaxes it on noisy
    shared runners)."""
    assert _kernel_vs_oracle(*operands, bench_record, "") >= RATIO_FLOOR


def test_exact_kernel_beats_frozenset_5x(exact_operands, bench_record):
    """The same bar on exact Fraction masses: the oracle pools
    Fractions pair by pair, the kernel int numerators."""
    ratio = _kernel_vs_oracle(*exact_operands, bench_record, "exact_")
    assert ratio >= RATIO_FLOOR


def _kernel_vs_oracle(m1, m2, bench_record, prefix: str) -> float:
    """Best-of-7 kernel and oracle combination times, recorded under
    *prefix*; returns the oracle-to-kernel ratio."""
    kernel_time = min(_timed(lambda: combine(m1, m2)) for _ in range(7))
    frozenset_time = min(
        _timed(lambda: _oracle_combine(m1, m2)) for _ in range(7)
    )
    ratio = frozenset_time / kernel_time
    print(
        f"\n{prefix}kernel {kernel_time * 1e6:.1f} us vs "
        f"frozenset {frozenset_time * 1e6:.1f} us -> {ratio:.1f}x"
    )
    bench_record(f"{prefix}kernel_combine_seconds", kernel_time)
    bench_record(f"{prefix}frozenset_combine_seconds", frozenset_time)
    bench_record(f"{prefix}kernel_vs_frozenset_ratio", ratio)
    return ratio


def _timed(operation, repeats: int = 50) -> float:
    started = time.perf_counter()
    for _ in range(repeats):
        operation()
    return (time.perf_counter() - started) / repeats


def _integrate_operation_evidence(seed: int = 4242) -> list[MassFunction]:
    """The source evidence of one integrate operation: three fresh
    float sources (``s0``/``s1`` a perturbed pair, ``s2`` independent)
    of 200 entities with 80% key overlap."""
    config = SyntheticConfig(
        n_tuples=200, overlap=0.8, conflict=0.3, exact=False, seed=seed
    )
    s0, s1 = synthetic_pair(config, "s0", "s1")
    _, s2 = synthetic_pair(replace(config, seed=seed + 1), "t0", "s2")
    return [
        value.mass_function
        for relation in (s0, s1, s2)
        for etuple in relation
        for _, value in etuple.items()
        if isinstance(value, EvidenceSet)
    ]


def test_integrate_evidence_compilation(bench_record):
    """Reported, not gated: compiling one integrate operation's 1,800
    source evidence values (best of 7), and the oracle's repr-sorted
    compilation of the same values."""
    masses = _integrate_operation_evidence()
    assert len(masses) == 1800
    for m in masses:
        got, want = compile_mass_function(m), oracle.compile_by_repr(m)
        assert got.interned is want.interned and got.masks == want.masks
        assert got.values == want.values

    def compile_all(compile_one):
        return lambda: [compile_one(m) for m in masses]

    compile_time = min(
        _timed(compile_all(compile_mass_function), repeats=3) for _ in range(7)
    )
    repr_sorted_time = min(
        _timed(compile_all(oracle.compile_by_repr), repeats=3) for _ in range(7)
    )
    print(
        f"\ncompile {len(masses)} values: {compile_time * 1e3:.2f} ms "
        f"(repr-sorted {repr_sorted_time * 1e3:.2f} ms)"
    )
    bench_record("integrate_evidence_compile_seconds", compile_time)
    bench_record("repr_sorted_evidence_compile_seconds", repr_sorted_time)
