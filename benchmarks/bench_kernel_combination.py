"""The evidence kernel's Dempster combination vs the frozenset oracle.

The compact evidence kernel (:mod:`repro.ds.kernel`) encodes focal
elements as int bitmasks, so the pairwise intersections of Dempster's
rule become bitwise-ANDs with no per-pair set allocation and no
frozenset hashing.  This bench pins the claim the kernel exists for: on
float masses (the large-scale configuration; with exact Fractions the
bigint arithmetic dominates both) a combination over an enumerated
frame must run >= 5x faster than the textbook frozenset loop of the
test oracle (``tests/ds/oracle.py``).

Both produce identical results -- asserted here, over a frame and over
an open domain, and verified property-based in
``tests/ds/test_kernel.py``.
"""

import os
import random
import time
from fractions import Fraction

import pytest

from repro.ds import MassFunction, combine, combine_all
from repro.ds.frame import OMEGA, FrameOfDiscernment
from tests.ds import oracle

UNIVERSE = [f"v{i:02d}" for i in range(24)]
FRAME = FrameOfDiscernment("universe", UNIVERSE)
#: Focal elements per operand (the rule is quadratic in this).
N_FOCAL = 16
#: Required kernel-vs-oracle speedup on float masses.  Asserted at
#: full strength locally; shared CI runners set a looser floor via the
#: environment so scheduler noise cannot fail the build.
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


@pytest.fixture(scope="module")
def operands():
    m1 = _make_mass(N_FOCAL, seed=1, exact=False)
    m2 = _make_mass(N_FOCAL, seed=2, exact=False)
    # Compile up front: relations compile once and combine many times,
    # so steady-state combination cost is what matters.
    m1.compiled(), m2.compiled()
    return m1, m2


def _oracle_combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    combined, _ = oracle.combine_with_conflict(m1, m2)
    return combined


def test_equivalence_with_the_oracle(operands):
    """Sanity: the kernel changes the representation, not the result --
    over the enumerated frame and over an open domain (the same
    evidence without its frame, compiled over the atoms it mentions)."""
    m1, m2 = operands
    open_pair = (m1.with_frame(None), m2.with_frame(None))
    for left, right in ((m1, m2), open_pair):
        on_kernel = combine(left, right)
        expected = _oracle_combine(left, right)
        assert list(on_kernel.items()) == list(expected.items())
        assert on_kernel.is_compiled and on_kernel.frame == left.frame


def test_kernel_path_combination(benchmark, operands):
    m1, m2 = operands
    combined = benchmark(combine, m1, m2)
    assert abs(float(sum(v for _, v in combined.items())) - 1.0) < 1e-9


def test_oracle_combination(benchmark, operands):
    m1, m2 = operands
    combined = benchmark(_oracle_combine, m1, m2)
    assert abs(float(sum(v for _, v in combined.items())) - 1.0) < 1e-9


def test_exact_fraction_combination(benchmark):
    """Exact masses for reference: Fraction arithmetic dominates both
    paths, so the kernel's win is smaller here (reported, not gated)."""
    m1 = _make_mass(N_FOCAL, seed=1, exact=True)
    m2 = _make_mass(N_FOCAL, seed=2, exact=True)
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
    m1, m2 = operands

    kernel_time = min(_timed(lambda: combine(m1, m2)) for _ in range(7))
    frozenset_time = min(
        _timed(lambda: _oracle_combine(m1, m2)) for _ in range(7)
    )
    ratio = frozenset_time / kernel_time
    print(
        f"\nkernel {kernel_time * 1e6:.1f} us vs "
        f"frozenset {frozenset_time * 1e6:.1f} us -> {ratio:.1f}x"
    )
    bench_record("kernel_combine_seconds", kernel_time)
    bench_record("frozenset_combine_seconds", frozenset_time)
    bench_record("kernel_vs_frozenset_ratio", ratio)
    assert ratio >= RATIO_FLOOR


def _timed(operation, repeats: int = 50) -> float:
    started = time.perf_counter()
    for _ in range(repeats):
        operation()
    return (time.perf_counter() - started) / repeats
