"""Reference implementations of the evidence operations, on frozensets.

The library runs every evidence operation on the bitmask kernel
(:mod:`repro.ds.kernel`).  This module is the textbook form the kernel
must reproduce: Dempster's rule, the conjunctive and disjunctive rules,
Shafer discounting and the Bel/Pls/Q measures as plain loops over
``frozenset`` focal elements and the symbolic :data:`OMEGA`, visiting
pairs in the canonical ``items()`` order.  The property tests compare
the kernel with it in value, type and float bits.  Production code
never imports it.

The pair loops are the frozenset loops the library ran before every
operation moved onto the kernel, unchanged in shape (the inner operand's
``items()`` is re-iterated for every outer row), so
``benchmarks/bench_kernel_combination.py`` times the kernel against the
same reference its speedup gate was set on.  :func:`compile_by_repr` is
the compilation the kernel ran before it ordered masks by their cached
sort keys: the table, masks and values it builds are the reference for
:func:`repro.ds.kernel.compile_mass_function`.

A mixed pair -- one operand with a frame, one without -- is checked
against the frame first: the frameless operand's concrete elements
must lie in the frame (its :class:`~repro.errors.DomainError`
otherwise), and one naming the whole frame is OMEGA.
"""

from __future__ import annotations

from fractions import Fraction

from repro.ds import MassFunction, OMEGA
from repro.ds.frame import is_omega
from repro.ds.kernel import CompiledMass, intern_atoms, intern_frame
from repro.ds.mass import coerce_focal_element, coerce_mass_value
from repro.errors import MassFunctionError


def intersect_focal(x, y):
    """Intersection of two focal elements; ``None`` encodes the empty set.

    :data:`OMEGA` behaves as the absorbing whole frame: ``OMEGA & y = y``.
    """
    if is_omega(x):
        return y if not is_omega(y) else OMEGA
    if is_omega(y):
        return x
    both = x & y
    return both if both else None


def union_focal(x, y):
    """Union of two focal elements (OMEGA absorbs everything)."""
    if is_omega(x) or is_omega(y):
        return OMEGA
    return x | y


def _frame_of(m1: MassFunction, m2: MassFunction):
    if m1.frame is not None and m2.frame is not None and m1.frame != m2.frame:
        raise MassFunctionError("different frames")
    return m1.frame or m2.frame


def _items(m: MassFunction, frame):
    if frame is None or m.frame is not None:
        return m.items()
    return ((frame.canonicalize(element), value) for element, value in m.items())


def conjunctive(m1: MassFunction, m2: MassFunction):
    """``(pooled, kappa)``: the unnormalized conjunctive rule."""
    frame = _frame_of(m1, m2)
    pooled: dict = {}
    kappa = 0  # int seed: float workloads stay on float arithmetic
    for x, mass_x in _items(m1, frame):
        for y, mass_y in _items(m2, frame):
            product = mass_x * mass_y
            if product == 0:
                continue
            meet = intersect_focal(x, y)
            if meet is None:
                kappa = kappa + product
            elif meet in pooled:
                pooled[meet] = pooled[meet] + product
            else:
                pooled[meet] = product
    return pooled, kappa


def combine_with_conflict(m1: MassFunction, m2: MassFunction):
    """Dempster's rule: ``(result, kappa)``, ``None`` on total conflict."""
    pooled, kappa = conjunctive(m1, m2)
    if not pooled:
        return None, kappa
    if kappa:
        remaining = 1 - kappa
        pooled = {element: value / remaining for element, value in pooled.items()}
    return MassFunction(pooled, _frame_of(m1, m2)), kappa


def disjunctive(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """The disjunctive rule (union of focal elements)."""
    frame = _frame_of(m1, m2)
    pooled: dict = {}
    for x, mass_x in _items(m1, frame):
        for y, mass_y in _items(m2, frame):
            product = mass_x * mass_y
            if product == 0:
                continue
            join = union_focal(x, y)
            if frame is not None:
                join = frame.canonicalize(join)  # a union may cover the frame
            if join in pooled:
                pooled[join] = pooled[join] + product
            else:
                pooled[join] = product
    return MassFunction(pooled, frame)


def discount(m: MassFunction, reliability) -> MassFunction:
    """Shafer discounting by *reliability*."""
    r = coerce_mass_value(reliability)
    if r == 1:
        return m
    discounted: dict = {}
    ignorance = 1 - r
    for element, value in m.items():
        if is_omega(element):
            ignorance = ignorance + r * value
        else:
            discounted[element] = r * value
    discounted[OMEGA] = ignorance
    return MassFunction(discounted, m.frame)


def _query(m: MassFunction, subset):
    element = coerce_focal_element(subset)
    if m.frame is not None and not is_omega(element):
        element = m.frame.canonicalize(element)
    return element


def belief(m: MassFunction, subset):
    """``Bel``: OMEGA is a subset only of the whole frame."""
    query = _query(m, subset)
    total = Fraction(0)
    for element, value in m.items():
        if is_omega(element):
            contained = is_omega(query)
        elif is_omega(query):
            contained = True
        else:
            contained = element <= query
        if contained:
            total = total + value
    return total


def plausibility(m: MassFunction, subset):
    """``Pls``: focal elements and queries are non-empty, so OMEGA meets
    every query."""
    query = _query(m, subset)
    total = Fraction(0)
    for element, value in m.items():
        if is_omega(element) or is_omega(query):
            intersects = True
        else:
            intersects = not element.isdisjoint(query)
        if intersects:
            total = total + value
    return total


def commonality(m: MassFunction, subset):
    """``Q``: only OMEGA covers the whole frame."""
    query = _query(m, subset)
    total = Fraction(0)
    for element, value in m.items():
        if is_omega(element):
            covers = True
        elif is_omega(query):
            covers = False
        else:
            covers = query <= element
        if covers:
            total = total + value
    return total


def compile_by_repr(m: MassFunction) -> CompiledMass:
    """The compilation the kernel used to run: the focal elements in
    ``focal_elements()`` order -- sorted by the ``repr`` of their
    members, OMEGA last -- with an open domain's atom table built from
    them in that order, and each element mapped to its mask."""
    elements = m.focal_elements()
    masses = dict(m.items())
    if m.frame is not None:
        interned = intern_frame(m.frame)
    else:
        concrete = elements[:-1] if elements[-1] is OMEGA else elements
        if len(concrete) == 1:
            interned = intern_atoms(concrete[0])
        else:
            interned = intern_atoms(frozenset().union(*concrete))
    return CompiledMass(
        interned,
        tuple([interned.mask_of(element) for element in elements]),
        tuple([masses[element] for element in elements]),
    )
