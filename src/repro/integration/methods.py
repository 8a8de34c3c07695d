"""Attribute integration methods.

"Attribute integration methods are specified for deriving the attributes
in the integrated relation" (Section 1.1).  The paper positions its
evidential method alongside Dayal's aggregate functions: "we can treat
the aggregate function approach and our approach as separate classes of
attribute integration methods which can co-exist in the integration
framework" (Section 1.3).  This registry realizes that co-existence --
the merger applies a per-attribute method:

* :class:`EvidentialMethod` -- Dempster's rule (the paper's approach;
  the default for uncertain attributes);
* :class:`AverageMethod` / :class:`MinMethod` / :class:`MaxMethod` --
  Dayal's aggregates over definite numeric values;
* :class:`IntersectionMethod` -- DeMichiel's partial-value combination
  (intersect the candidate-value sets, probabilities discarded);
* :class:`MixtureMethod` -- an equal-weight mixture of the two mass
  functions; unlike Dempster it never renormalizes away inconsistency,
  approximating the Tseng et al. stance of retaining it;
* :class:`PreferLeftMethod` / :class:`PreferRightMethod` -- trust one
  source outright.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction

from repro.errors import IntegrationError, TotalConflictError
from repro.ds.combination import disjunctive
from repro.ds.frame import is_omega
from repro.ds.mass import MassFunction
from repro.model.attribute import Attribute
from repro.model.evidence import EvidenceSet


class IntegrationMethod(ABC):
    """Combines two attribute values of a matched tuple pair."""

    name: str = "abstract"

    @abstractmethod
    def combine(
        self, left: EvidenceSet, right: EvidenceSet, attribute: Attribute
    ) -> EvidenceSet:
        """The integrated value for *attribute*."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class EvidentialMethod(IntegrationMethod):
    """Dempster's rule of combination -- the paper's method."""

    name = "evidential"

    def combine(self, left, right, attribute):
        return left.combine(right)


class PreferLeftMethod(IntegrationMethod):
    """Keep the first source's value unconditionally."""

    name = "prefer_left"

    def combine(self, left, right, attribute):
        return left


class PreferRightMethod(IntegrationMethod):
    """Keep the second source's value unconditionally."""

    name = "prefer_right"

    def combine(self, left, right, attribute):
        return right


def _definite_number(evidence: EvidenceSet, attribute: Attribute):
    value = evidence.definite_value()
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise IntegrationError(
            f"aggregate method needs numeric values for {attribute.name!r}, "
            f"got {value!r}"
        )
    return value


class AverageMethod(IntegrationMethod):
    """Dayal: the average of two definite numeric values."""

    name = "average"

    def combine(self, left, right, attribute):
        a = _definite_number(left, attribute)
        b = _definite_number(right, attribute)
        if isinstance(a, float) or isinstance(b, float):
            value: object = (a + b) / 2
        else:
            value = Fraction(a + b, 2)
            if value.denominator == 1:
                value = int(value)
        if attribute.domain.contains(value):
            return EvidenceSet.definite(value, attribute.domain)
        # Integral domains: averages may fall between values; in that case
        # the honest representation is the pair of neighbours.
        low = int(value)
        candidates = {c for c in (low, low + 1) if attribute.domain.contains(c)}
        if not candidates:
            raise IntegrationError(
                f"average {value!r} is outside domain {attribute.domain.name!r}"
            )
        if len(candidates) == 1:
            (single,) = candidates
            return EvidenceSet.definite(single, attribute.domain)
        return EvidenceSet({frozenset(candidates): 1}, attribute.domain)


class MinMethod(IntegrationMethod):
    """Dayal: the minimum of two definite values."""

    name = "min"

    def combine(self, left, right, attribute):
        a = _definite_number(left, attribute)
        b = _definite_number(right, attribute)
        return EvidenceSet.definite(min(a, b), attribute.domain)


class MaxMethod(IntegrationMethod):
    """Dayal: the maximum of two definite values."""

    name = "max"

    def combine(self, left, right, attribute):
        a = _definite_number(left, attribute)
        b = _definite_number(right, attribute)
        return EvidenceSet.definite(max(a, b), attribute.domain)


class IntersectionMethod(IntegrationMethod):
    """DeMichiel: intersect the candidate-value sets (cores).

    Probabilistic structure is discarded -- the result is a categorical
    evidence set (mass 1) on the intersection of the two cores, which is
    exactly the partial-value combination rule.  Raises
    :class:`TotalConflictError` when the cores are disjoint.
    """

    name = "intersection"

    def combine(self, left, right, attribute):
        left_core = left.mass_function.core()
        right_core = right.mass_function.core()
        if is_omega(left_core):
            meet = right_core
        elif is_omega(right_core):
            meet = left_core
        else:
            meet = left_core & right_core
        if not is_omega(meet) and not meet:
            raise TotalConflictError(
                f"partial values for {attribute.name!r} have disjoint cores"
            )
        if is_omega(meet):
            return EvidenceSet.vacuous(attribute.domain)
        return EvidenceSet({meet: 1}, attribute.domain)


class MixtureMethod(IntegrationMethod):
    """Equal-weight mixture of the two mass functions.

    ``m(X) = (m1(X) + m2(X)) / 2`` -- inconsistent possibilities from
    either source survive with half their original mass, rather than
    being renormalized away as Dempster's rule does.
    """

    name = "mixture"

    def combine(self, left, right, attribute):
        mixed: dict = {}
        for element, value in left.items():
            mixed[element] = mixed.get(element, 0) + value / 2
        for element, value in right.items():
            mixed[element] = mixed.get(element, 0) + value / 2
        frame = left.mass_function.frame or right.mass_function.frame
        return EvidenceSet(MassFunction(mixed, frame), attribute.domain)


class DisjunctiveMethod(IntegrationMethod):
    """Disjunctive rule: union of focal elements.

    Cautious pooling for when at least one (unknown) source is reliable;
    never conflicts, never sharpens.
    """

    name = "disjunctive"

    def combine(self, left, right, attribute):
        return EvidenceSet(
            disjunctive(left.mass_function, right.mass_function),
            attribute.domain,
        )


#: Registry of methods by name.
METHODS: dict[str, IntegrationMethod] = {
    method.name: method
    for method in (
        EvidentialMethod(),
        PreferLeftMethod(),
        PreferRightMethod(),
        AverageMethod(),
        MinMethod(),
        MaxMethod(),
        IntersectionMethod(),
        MixtureMethod(),
        DisjunctiveMethod(),
    )
}


def get_method(method: str | IntegrationMethod) -> IntegrationMethod:
    """Resolve a method name (or pass an instance through)."""
    if isinstance(method, IntegrationMethod):
        return method
    try:
        return METHODS[method]
    except KeyError:
        raise IntegrationError(
            f"unknown integration method {method!r}; known methods: "
            f"{', '.join(sorted(METHODS))}"
        ) from None
