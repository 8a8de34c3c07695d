"""Evidence sets: uncertain attribute values.

An *evidence set* (Section 2.1) is "a collection of subsets of the
attribute domain associated with a mass function assignment".  This class
couples a :class:`~repro.ds.mass.MassFunction` with the attribute's
:class:`~repro.model.domain.Domain`, validating that focal elements only
use legal domain values and attaching the enumerated frame when one
exists (so OMEGA resolves and transforms work).

A definite value is the special case of a single singleton focal element
with mass one; :meth:`EvidenceSet.definite` builds it and
:meth:`EvidenceSet.is_definite` recognizes it.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import DomainError, MassFunctionError
from repro.ds.frame import is_omega
from repro.ds.mass import MassFunction, Numeric
from repro.ds.notation import format_evidence, parse_evidence
from repro.model.domain import Domain


class EvidenceSet:
    """An uncertain attribute value: a mass function over a domain.

    Parameters
    ----------
    mass:
        A :class:`MassFunction`, a mapping acceptable to its constructor,
        or a string in the paper's bracket notation.
    domain:
        The attribute's domain.  When provided, all focal-element values
        are validated against it; when the domain is enumerable its frame
        is attached to the mass function.

    >>> from repro.model import EnumeratedDomain
    >>> speciality = EnumeratedDomain("speciality", ["am","hu","si","ca","mu","it","ta"])
    >>> es = EvidenceSet("[si^0.5, hu^0.25, Ω^0.25]", speciality)
    >>> es.bel({"si"})
    Fraction(1, 2)
    """

    __slots__ = ("_mass", "_domain")

    def __init__(self, mass, domain: Domain | None = None):
        frame = domain.frame() if domain is not None and domain.is_enumerable else None
        if isinstance(mass, str):
            mass_function = parse_evidence(mass, frame)
        elif isinstance(mass, MassFunction):
            if frame is None or mass.frame is frame or mass.frame == frame:
                # Already attached to (and validated against) this very
                # frame: reuse as-is, preserving the compiled kernel
                # state across integration folds.
                mass_function = mass
            else:
                mass_function = mass.with_frame(frame)
        elif isinstance(mass, Mapping):
            mass_function = MassFunction(mass, frame)
        else:
            raise MassFunctionError(
                f"cannot build an evidence set from {mass!r}; expected a "
                "MassFunction, a mapping, or bracket notation"
            )
        if domain is not None and not domain.is_enumerable:
            for element in mass_function.focal_elements():
                if is_omega(element):
                    continue
                for value in element:
                    if not domain.contains(value):
                        raise DomainError(
                            f"value {value!r} is outside domain {domain.name!r}"
                        )
        self._mass = mass_function
        self._domain = domain

    # -- constructors -----------------------------------------------------------

    @classmethod
    def definite(cls, value: object, domain: Domain | None = None) -> "EvidenceSet":
        """The evidence set fully committed to a single value."""
        return cls(MassFunction.definite(value), domain)

    @classmethod
    def vacuous(cls, domain: Domain | None = None) -> "EvidenceSet":
        """Total ignorance: all mass on the whole domain."""
        return cls(MassFunction.vacuous(), domain)

    @classmethod
    def from_counts(cls, counts: Mapping, domain: Domain | None = None) -> "EvidenceSet":
        """Vote-share evidence (Section 1.2); see
        :meth:`MassFunction.from_counts`."""
        frame = domain.frame() if domain is not None and domain.is_enumerable else None
        return cls(MassFunction.from_counts(counts, frame), domain)

    @classmethod
    def parse(cls, text: str, domain: Domain | None = None) -> "EvidenceSet":
        """Parse the paper's bracket notation."""
        return cls(text, domain)

    # -- accessors ---------------------------------------------------------------

    @property
    def mass_function(self) -> MassFunction:
        """The underlying mass function."""
        return self._mass

    @property
    def domain(self) -> Domain | None:
        """The attribute domain, when known."""
        return self._domain

    def mass(self, element: object) -> Numeric:
        """The mass of a focal element."""
        return self._mass.mass(element)

    def __getitem__(self, element: object) -> Numeric:
        return self._mass.mass(element)

    def items(self):
        """Iterate ``(focal element, mass)`` in deterministic order."""
        return self._mass.items()

    def focal_elements(self):
        """The focal elements in deterministic order."""
        return self._mass.focal_elements()

    def bel(self, subset: object) -> Numeric:
        """Belief committed to *subset*."""
        return self._mass.bel(subset)

    def pls(self, subset: object) -> Numeric:
        """Plausibility of *subset*."""
        return self._mass.pls(subset)

    def ignorance(self) -> Numeric:
        """Mass on the whole domain (nonbelief)."""
        return self._mass.ignorance()

    @property
    def is_compiled(self) -> bool:
        """``True`` when the mass function carries its compiled kernel
        form (see :mod:`repro.ds.kernel`)."""
        return self._mass.is_compiled

    def compile(self) -> "EvidenceSet":
        """Eagerly compile to the kernel form; returns ``self``.

        A no-op for evidence that is already compiled, and for evidence
        over an open domain, which compiles on its first operation.
        Loading a database compiles every enumerated evidence set up
        front, so queries and merges start on the kernel immediately.
        """
        if self._mass.frame is not None:
            self._mass.compiled()
        return self

    def is_definite(self) -> bool:
        """``True`` when the value is certain."""
        return self._mass.is_definite()

    def is_vacuous(self) -> bool:
        """``True`` when nothing at all is known."""
        return self._mass.is_vacuous()

    def definite_value(self):
        """The single certain value (raises unless definite)."""
        return self._mass.definite_value()

    # -- operations ---------------------------------------------------------------

    def combine(self, other: "EvidenceSet") -> "EvidenceSet":
        """Dempster's rule; domains must agree when both are known."""
        if (
            self._domain is not None
            and other._domain is not None
            and self._domain != other._domain
        ):
            raise DomainError(
                f"cannot combine evidence over domains "
                f"{self._domain.name!r} and {other._domain.name!r}"
            )
        return EvidenceSet(
            self._mass.combine(other._mass), self._domain or other._domain
        )

    def to_float(self) -> "EvidenceSet":
        """A copy with float masses."""
        return EvidenceSet(self._mass.to_float(), self._domain)

    def to_exact(self) -> "EvidenceSet":
        """A copy with exact masses."""
        return EvidenceSet(self._mass.to_exact(), self._domain)

    def format(self, style: str = "auto", digits: int = 3) -> str:
        """Render in the paper's bracket notation."""
        return format_evidence(self._mass, style, digits)

    # -- plumbing -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvidenceSet):
            return NotImplemented
        return self._mass == other._mass

    def __hash__(self) -> int:
        return hash(self._mass)

    def __repr__(self) -> str:
        domain = f", domain={self._domain.name!r}" if self._domain is not None else ""
        return f"EvidenceSet({self.format()}{domain})"
