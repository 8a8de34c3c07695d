"""Belief, plausibility and related measures over mass functions.

Section 2.1 of the paper defines, for a mass function ``m`` and a subset
``A`` of the frame:

* ``Bel(A) = sum of m(X) for X a subset of A`` -- the minimum degree to
  which the evidence supports ``A``;
* ``Pls(A) = sum of m(X) for X intersecting A = 1 - Bel(complement A)``
  -- the degree to which the evidence fails to refute ``A``.

``Bel(A) <= Pls(A)`` always holds, and the gap ``Pls - Bel`` measures how
much the evidence is uncertain whether to support ``A`` or its complement.

Handling of the symbolic whole frame
------------------------------------
Focal element :data:`~repro.ds.frame.OMEGA` is a subset of ``A`` only when
``A`` is (or covers) the whole frame, which is decidable exactly when the
mass function carries an enumerated frame; without one, OMEGA is treated
as a *strict* superset of any concrete ``A`` -- it contributes to ``Pls``
but never to ``Bel``.  That matches the paper's use of OMEGA for
nonbelief.  Every measure runs on the compiled kernel
(:mod:`repro.ds.kernel`), where an open domain's OMEGA carries a
residual bit no finite query holds.
"""

from __future__ import annotations

from repro.ds.mass import MassFunction, Numeric, coerce_focal_element


def _compiled_query(m: MassFunction, subset: object):
    """``(compiled, query mask)``.  Out-of-frame query values raise the
    same :class:`~repro.errors.DomainError` frame canonicalization
    would."""
    compiled = m.compiled()
    return compiled, compiled.interned.query_mask(coerce_focal_element(subset))


def belief(m: MassFunction, subset: object) -> Numeric:
    """``Bel(subset)``: total mass committed to subsets of *subset*.

    >>> from repro.ds import MassFunction, OMEGA
    >>> m = MassFunction({"ca": "1/2", ("hu", "si"): "1/3", OMEGA: "1/6"})
    >>> m_bel = belief(m, {"ca", "hu", "si"})
    >>> m_bel
    Fraction(5, 6)
    """
    compiled, query_mask = _compiled_query(m, subset)
    return compiled.bel(query_mask)


def plausibility(m: MassFunction, subset: object) -> Numeric:
    """``Pls(subset)``: total mass not refuting *subset*.

    >>> from repro.ds import MassFunction, OMEGA
    >>> m = MassFunction({"ca": "1/2", ("hu", "si"): "1/3", OMEGA: "1/6"})
    >>> plausibility(m, {"ca", "hu", "si"})
    Fraction(1, 1)
    """
    compiled, query_mask = _compiled_query(m, subset)
    return compiled.pls(query_mask)


def doubt(m: MassFunction, subset: object) -> Numeric:
    """``Dou(subset) = 1 - Pls(subset)``: belief in the complement."""
    return 1 - plausibility(m, subset)


def commonality(m: MassFunction, subset: object) -> Numeric:
    """``Q(subset)``: total mass on supersets of *subset*.

    The commonality function is the natural representation for Dempster's
    rule (combination multiplies commonalities); exposed for analysis and
    tests.
    """
    compiled, query_mask = _compiled_query(m, subset)
    return compiled.commonality(query_mask)


def uncertainty_interval(m: MassFunction, subset: object) -> tuple[Numeric, Numeric]:
    """The pair ``(Bel(subset), Pls(subset))``.

    This is the support interval the paper's selection operation assigns
    to an ``is``-predicate (Section 3.1.1): ``sn = Bel``, ``sp = Pls``.
    Both bounds come from one subset-mask pass.
    """
    compiled, query_mask = _compiled_query(m, subset)
    return compiled.bel_pls(query_mask)
