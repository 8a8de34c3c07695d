"""The selection support function ``F_SS`` (Section 3.1.1).

A selection condition is an atomic predicate or a conjunction of atomic
predicates; each tuple satisfies it only to a degree, quantified as a
support pair ``(sn, sp)``:

* **is-predicate** ``A is {c1, ..., cn}``: by Dempster-Shafer theory,
  ``sn = Bel({c1..cn})`` and ``sp = Pls({c1..cn})`` of the tuple's
  evidence set for ``A``.
* **theta-predicate** ``A theta B`` for theta in {=, <, >, <=, >=}, where
  ``A`` and ``B`` are evidence sets: every pair of focal elements
  ``(a_i, b_j)`` contributes mass ``m_A(a_i) * m_B(b_j)``

  - to ``sn`` when ``a_i theta b_j`` *is TRUE*: every member of ``a_i``
    stands in relation theta to every member of ``b_j``;
  - to ``sp`` when ``a_i theta b_j`` *may be TRUE*: some member of
    ``a_i`` stands in relation theta to some member of ``b_j``.

* **compound predicate** ``S and T`` (independent atomic predicates):
  the multiplicative rule ``(sn_S * sn_T, sp_S * sp_T)``.

OMEGA focal elements in theta-predicates resolve to the concrete domain
when the evidence carries an enumerated frame; otherwise the library is
conservative -- an OMEGA operand can never make the predicate *certainly*
true (it contributes only to ``sp``), because without enumerating the
domain the universal quantification cannot be verified.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.errors import PredicateError
from repro.ds.belief import uncertainty_interval
from repro.ds.frame import is_omega
from repro.model.evidence import EvidenceSet
from repro.model.membership import SupportPair

#: The comparison operators admitted in theta-predicates.
THETA_OPERATORS: dict[str, Callable[[object, object], bool]] = {
    "=": lambda a, b: a == b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}

#: Operator aliases accepted on input.
THETA_ALIASES = {"==": "=", "≤": "<=", "≥": ">=", "=<": "<=", "=>": ">="}


def normalize_theta(op: str) -> str:
    """Canonicalize a theta operator symbol, validating it."""
    canonical = THETA_ALIASES.get(op, op)
    if canonical not in THETA_OPERATORS:
        raise PredicateError(
            f"unknown theta operator {op!r}; expected one of "
            f"{sorted(THETA_OPERATORS)}"
        )
    return canonical


def is_support(evidence: EvidenceSet, values: Iterable) -> SupportPair:
    """Support of ``A is {c1..cn}``: ``(Bel, Pls)`` of the value set.

    Both bounds come from one subset-mask pass of the compiled evidence
    kernel (see :mod:`repro.ds.kernel`).

    >>> from repro.model import EvidenceSet
    >>> es = EvidenceSet("[si^0.5, hu^0.25, Ω^0.25]")
    >>> is_support(es, {"si"}).as_tuple()
    (Fraction(1, 2), Fraction(3, 4))
    """
    value_set = frozenset(values)
    if not value_set:
        raise PredicateError("an is-predicate needs at least one value")
    sn, sp = uncertainty_interval(evidence.mass_function, value_set)
    return SupportPair(sn, sp)


def _resolve_element(evidence: EvidenceSet, element) -> frozenset | None:
    """Concretize a focal element; ``None`` when OMEGA cannot be resolved."""
    if not is_omega(element):
        return element
    frame = evidence.mass_function.frame
    if frame is not None:
        return frozenset(frame.values)
    return None


def _compare_elements(
    left: frozenset | None, right: frozenset | None, theta: Callable
) -> tuple[bool, bool]:
    """Classify a focal-element pair: ``(is_true, may_be_true)``.

    ``None`` stands for an unresolvable OMEGA: the universal check fails
    (conservatively) and the existential check succeeds (conservatively).
    """
    if left is None or right is None:
        return False, True
    try:
        is_true = all(theta(a, b) for a in left for b in right)
        may_be = any(theta(a, b) for a in left for b in right)
    except TypeError as exc:
        raise PredicateError(
            f"cannot compare values of focal elements "
            f"{sorted(map(repr, left))} and {sorted(map(repr, right))}: {exc}"
        ) from exc
    return is_true, may_be


def theta_support(
    left: EvidenceSet, right: EvidenceSet, op: str
) -> SupportPair:
    """Support of ``A theta B`` over two evidence sets.

    >>> from repro.model import EvidenceSet
    >>> a = EvidenceSet({frozenset({1, 4}): "3/5", frozenset({2, 6}): "2/5"})
    >>> b = EvidenceSet({frozenset({2, 4}): "4/5", frozenset({5,}): "1/5"})
    >>> theta_support(a, b, "<").as_tuple()
    (Fraction(3, 25), Fraction(1, 1))
    """
    theta = THETA_OPERATORS[normalize_theta(op)]
    sn = 0
    sp = 0
    for a_element, a_mass in left.items():
        a_concrete = _resolve_element(left, a_element)
        for b_element, b_mass in right.items():
            b_concrete = _resolve_element(right, b_element)
            weight = a_mass * b_mass
            if weight == 0:
                continue
            is_true, may_be = _compare_elements(a_concrete, b_concrete, theta)
            if is_true:
                sn = sn + weight
            if may_be:
                sp = sp + weight
    # Guard against float round-off pushing sn microscopically above sp.
    if sn > sp:
        sn = sp
    return SupportPair(sn, sp)


def selection_support(etuple, predicate) -> SupportPair:
    """``F_SS(r, P)``: the support of tuple *etuple* for predicate *P*.

    Dispatches to the predicate's own support computation; provided as a
    free function to mirror the paper's notation.
    """
    return predicate.support(etuple)
