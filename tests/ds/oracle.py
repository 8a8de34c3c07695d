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
:func:`repro.ds.kernel.compile_mass_function`.  :func:`parse_masses` is
the recursive-descent parser the notation module ran before framed text
decoded straight into the kernel form: ``MassFunction(parse_masses(text),
frame)``, compiled, is the reference for
:func:`repro.ds.notation.parse_evidence`.

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
from repro.ds.notation import OMEGA_SPELLINGS, _tokenize, parse_atom, parse_number
from repro.errors import MassFunctionError, NotationError


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


class _NotationParser:
    """Recursive-descent parser for the evidence-set grammar."""

    def __init__(self, tokens: list[str]):
        self._tokens = tokens
        self._index = 0

    def _peek(self):
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise NotationError("unexpected end of evidence set")
        self._index += 1
        return token

    def _expect(self, expected: str) -> None:
        token = self._next()
        if token != expected:
            raise NotationError(f"expected {expected!r}, got {token!r}")

    def parse(self) -> dict:
        self._expect("[")
        masses: dict = {}
        if self._peek() == "]":
            raise NotationError("an evidence set needs at least one focal element")
        while True:
            element = self._parse_element()
            self._expect("^")
            value = self._parse_number()
            if element in masses:
                masses[element] += value
            else:
                masses[element] = value
            token = self._next()
            if token == "]":
                break
            if token != ",":
                raise NotationError(f"expected ',' or ']', got {token!r}")
        if self._peek() is not None:
            raise NotationError(f"trailing input after evidence set: {self._peek()!r}")
        return masses

    def _parse_element(self):
        token = self._next()
        if token in OMEGA_SPELLINGS:
            return OMEGA
        if token == "{":
            members = [parse_atom(self._next())]
            while True:
                token = self._next()
                if token == "}":
                    break
                if token != ",":
                    raise NotationError(f"expected ',' or '}}' in set, got {token!r}")
                members.append(parse_atom(self._next()))
            return frozenset(members)
        if token in {"[", "]", "}", ",", "^"}:
            raise NotationError(f"expected a focal element, got {token!r}")
        return frozenset({parse_atom(token)})

    def _parse_number(self) -> Fraction:
        token = self._next()
        try:
            return parse_number(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise NotationError(f"cannot parse mass value {token!r}") from exc


def parse_masses(text: str) -> dict:
    """The paper's bracket notation as a ``{focal element: Fraction}``
    dict, equal elements summed, nothing else checked."""
    return _NotationParser(_tokenize(text)).parse()
