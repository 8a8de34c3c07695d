"""Dempster's rule of combination and related evidence-pooling operators.

Given two mass functions ``m1`` and ``m2`` over the same frame, Dempster's
rule (Section 2.2 of the paper) forms, for every pair of focal elements,
the product mass ``m1(X) * m2(Y)`` on the intersection ``X and Y``.  Mass
landing on the empty set is the *conflict* ``kappa``; the remaining masses
are renormalized by ``1 - kappa``.  When ``kappa = 1`` the sources are in
total conflict and :class:`~repro.errors.TotalConflictError` is raised --
the paper's "some actions may be necessary to inform the data
administrators".

The rule is commutative and associative, so the order in which component
databases are merged does not matter; the property-based test-suite
verifies this mechanically.

Also provided:

* :func:`conjunctive` -- the unnormalized conjunctive rule (mass may stay
  on the empty set; used internally and by the transferable-belief
  extension),
* :func:`disjunctive` -- the disjunctive rule (union of focal elements),
  appropriate when at least one, but not necessarily both, sources are
  reliable (extension),
* :func:`conflict` / :func:`weight_of_conflict` -- diagnostics used by the
  integration layer's conflict reports,
* :func:`combine_with_conflict` -- the normalized rule returning the
  conflict mass instead of raising, the entry point the integration
  layers fold through.

The engine
----------
Every operator runs on the compiled evidence kernel
(:mod:`repro.ds.kernel`): focal elements become int bitmasks and the
pairwise intersections bitwise-ANDs, with the arithmetic of the
textbook frozenset loop (and hence its results, bit for bit).  Operands
over an enumerated frame share the frame's bit assignment; open-domain
operands (text, numbers) are compiled over the atoms they mention, with
bits only the symbolic OMEGA carries.  Exact operands are pooled as int
numerators over a common denominator and normalized into one Fraction
per result mass; float and mixed operands, and two definite operands
(one product), keep the textbook arithmetic.
:data:`KERNEL_STATS` counts the combinations.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from repro.errors import MassFunctionError, TotalConflictError
from repro.ds.frame import FocalElement
from repro.ds.kernel import (
    STATS as KERNEL_STATS,
    align,
    combine_compiled,
    conjunctive_compiled,
    disjunctive_compiled,
)
from repro.ds.mass import MassFunction, Numeric


def _compiled_pair(m1: MassFunction, m2: MassFunction):
    """Both operands compiled onto one bit assignment.

    Two frames must agree; an open-domain operand meeting a framed one
    is compiled against the frame (see :func:`repro.ds.kernel.align`).
    """
    if m1.frame is not None and m2.frame is not None:
        if m1.frame is not m2.frame and m1.frame != m2.frame:
            raise MassFunctionError(
                f"cannot combine evidence over different frames "
                f"{m1.frame.name!r} and {m2.frame.name!r}"
            )
    pair = align(m1.compiled(), m2.compiled())
    KERNEL_STATS.bump("kernel_combinations")
    return pair


def conjunctive(
    m1: MassFunction, m2: MassFunction
) -> tuple[dict[FocalElement, Numeric], Numeric]:
    """Unnormalized conjunctive combination.

    Returns ``(masses, kappa)`` where *masses* maps non-empty intersections
    to their pooled mass and *kappa* is the mass that fell on the empty
    set (the conflict between the sources).
    """
    a, b = _compiled_pair(m1, m2)
    pooled, kappa, denominator = conjunctive_compiled(a, b)
    element_of = a.interned.element_of
    if denominator is not None:
        return {
            element_of(mask): Fraction(n, denominator)
            for mask, n in pooled.items()
        }, (Fraction(kappa, denominator) if kappa else 0)
    return {element_of(mask): value for mask, value in pooled.items()}, kappa


def conflict(m1: MassFunction, m2: MassFunction) -> Numeric:
    """The conflict ``kappa`` between two mass functions.

    ``kappa`` is the total product mass whose focal intersections are
    empty; ``kappa = 1`` means total conflict.
    """
    _, kappa = conjunctive(m1, m2)
    return kappa


def weight_of_conflict(m1: MassFunction, m2: MassFunction) -> float:
    """Shafer's weight of conflict ``-log(1 - kappa)`` (in nats).

    Grows from 0 (no conflict) to infinity (total conflict); additive
    over successive combinations, which makes it the right quantity to
    accumulate in integration conflict reports.
    """
    kappa = conflict(m1, m2)
    if kappa == 1:
        return math.inf
    # repro: ignore[EXACT] -- the weight of conflict is a float metric
    return -math.log(1.0 - float(kappa))


def combine_with_conflict(
    m1: MassFunction, m2: MassFunction
) -> tuple[MassFunction | None, Numeric]:
    """Dempster's rule returning ``(result, kappa)``; ``None`` on total
    conflict instead of raising.

    This is the fold step the integration layers (extended union, tuple
    merging, streaming) use: the returned mass function stays compiled,
    so a chain of combinations never decodes or re-interns intermediate
    states.  When the kernel's result is *m1*'s own compiled form (see
    :func:`~repro.ds.kernel.combine_compiled`), the result is *m1*.
    """
    compiled, kappa = combine_compiled(*_compiled_pair(m1, m2))
    if compiled is None:
        return None, kappa
    if compiled is m1.compiled():
        return m1, kappa
    return MassFunction._from_compiled(compiled), kappa


def combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule of combination (normalized), ``m1 (+) m2``.

    >>> from repro.ds import MassFunction, OMEGA
    >>> m1 = MassFunction({"ca": "1/2", ("hu", "si"): "1/3", OMEGA: "1/6"})
    >>> m2 = MassFunction({("ca", "hu"): "1/2", "hu": "1/4", OMEGA: "1/4"})
    >>> m12 = combine(m1, m2)
    >>> m12[{"ca"}], m12[{"hu"}], m12[OMEGA]
    (Fraction(3, 7), Fraction(1, 3), Fraction(1, 21))

    Raises
    ------
    TotalConflictError
        When no focal elements intersect (``kappa = 1``).
    """
    combined, _ = combine_with_conflict(m1, m2)
    if combined is None:
        raise TotalConflictError()
    return combined


def combine_all(masses: Iterable[MassFunction]) -> MassFunction:
    """Fold :func:`combine` over any number of mass functions.

    Dempster's rule is associative and commutative, so the fold order is
    immaterial; a left fold is used.  At least one mass function is
    required.
    """
    iterator = iter(masses)
    try:
        result = next(iterator)
    except StopIteration:
        raise MassFunctionError("combine_all requires at least one mass function")
    for m in iterator:
        result = combine(result, m)
    return result


def disjunctive(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Disjunctive rule of combination (union of focal elements).

    Appropriate when *at least one* source is reliable but we do not know
    which: the pooled mass of ``X union Y`` is ``m1(X) * m2(Y)``.  Never
    produces conflict, and never sharpens belief -- an extension beyond
    the paper, exposed for the baseline comparison benchmarks.
    """
    return MassFunction._from_compiled(
        disjunctive_compiled(*_compiled_pair(m1, m2))
    )
