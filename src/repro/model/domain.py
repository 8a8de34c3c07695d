"""Attribute domains.

The paper writes the domain of attribute ``A`` as a capital theta with
subscript ``A`` -- "the set of values A can possibly be assigned".  Mass
functions allocate belief to subsets of it.  Domains come in two broad
flavours here:

* **enumerable** domains (:class:`EnumeratedDomain`, :class:`BooleanDomain`)
  whose full value set is known, enabling OMEGA resolution, pignistic
  transforms and exhaustive theta-predicate evaluation;
* **open** domains (:class:`NumericDomain`, :class:`TextDomain`,
  :class:`AnyDomain`) that only validate membership; mass on the whole
  domain stays symbolic.
"""

from __future__ import annotations

import numbers
import re
from abc import ABC, abstractmethod
from collections.abc import Iterable

from repro.errors import DomainError
from repro.ds.frame import FrameOfDiscernment


class Domain(ABC):
    """Abstract attribute domain."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = str(name)

    @property
    def name(self) -> str:
        """The domain's identifier (e.g. ``"speciality"``)."""
        return self._name

    @abstractmethod
    def contains(self, value: object) -> bool:
        """``True`` when *value* is a legal member of the domain."""

    @property
    def is_enumerable(self) -> bool:
        """``True`` when the full value set is finite and known."""
        return False

    def frame(self) -> FrameOfDiscernment | None:
        """The enumerated frame of discernment, when one exists."""
        return None

    def validate(self, value: object) -> object:
        """Return *value* unchanged, raising :class:`DomainError` when it
        does not belong to the domain."""
        if not self.contains(value):
            raise DomainError(f"value {value!r} is outside domain {self._name!r}")
        return value

    def validate_all(self, values: Iterable) -> None:
        """Validate every member of *values*."""
        for value in values:
            self.validate(value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Domain):
            return NotImplemented
        return type(self) is type(other) and self._signature() == other._signature()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._signature()))

    def _signature(self) -> tuple:
        return (self._name,)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._name!r})"


class EnumeratedDomain(Domain):
    """A finite domain given by its value set.

    >>> rating = EnumeratedDomain("rating", ["ex", "gd", "avg"])
    >>> rating.contains("ex")
    True
    >>> rating.is_enumerable
    True
    """

    __slots__ = ("_frame",)

    def __init__(self, name: str, values: Iterable):
        super().__init__(name)
        self._frame = FrameOfDiscernment(name, values)

    @property
    def values(self) -> frozenset:
        """The enumerated value set."""
        return self._frame.values

    def contains(self, value: object) -> bool:
        return self._frame.contains(value)

    @property
    def is_enumerable(self) -> bool:
        return True

    def frame(self) -> FrameOfDiscernment:
        return self._frame

    def _signature(self) -> tuple:
        return (self._name, self._frame.values)

    def __len__(self) -> int:
        return len(self._frame)

    def __iter__(self):
        return iter(self._frame)


class BooleanDomain(EnumeratedDomain):
    """The two-valued domain ``{True, False}``."""

    __slots__ = ()

    def __init__(self, name: str = "boolean"):
        super().__init__(name, [True, False])


class NumericDomain(Domain):
    """Numbers, optionally bounded and optionally integral.

    >>> bldg = NumericDomain("bldg-no", low=1, integral=True)
    >>> bldg.contains(2011)
    True
    >>> bldg.contains(3.5)
    False
    """

    __slots__ = ("_low", "_high", "_integral")

    def __init__(
        self,
        name: str,
        low: float | None = None,
        high: float | None = None,
        integral: bool = False,
    ):
        super().__init__(name)
        if low is not None and high is not None and low > high:
            raise DomainError(f"domain {name!r} has low {low!r} > high {high!r}")
        self._low = low
        self._high = high
        self._integral = bool(integral)

    @property
    def low(self):
        """Inclusive lower bound, or ``None``."""
        return self._low

    @property
    def high(self):
        """Inclusive upper bound, or ``None``."""
        return self._high

    @property
    def integral(self) -> bool:
        """Whether only integers are admitted."""
        return self._integral

    def contains(self, value: object) -> bool:
        # A plain int is Integral and Real (and not a bool): skip the
        # abstract-base-class checks on the common key type.
        if type(value) is not int:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                return False
            if self._integral and not isinstance(value, numbers.Integral):
                return False
        if self._low is not None and value < self._low:
            return False
        if self._high is not None and value > self._high:
            return False
        return True

    def _signature(self) -> tuple:
        return (self._name, self._low, self._high, self._integral)


class TextDomain(Domain):
    """Strings, optionally constrained by a regular expression.

    >>> phone = TextDomain("phone", pattern=r"\\d{3}-\\d{4}")
    >>> phone.contains("371-2155")
    True
    """

    __slots__ = ("_pattern",)

    def __init__(self, name: str, pattern: str | None = None):
        super().__init__(name)
        self._pattern = re.compile(pattern) if pattern is not None else None

    def contains(self, value: object) -> bool:
        if not isinstance(value, str):
            return False
        if self._pattern is not None and self._pattern.fullmatch(value) is None:
            return False
        return True

    def _signature(self) -> tuple:
        pattern = self._pattern.pattern if self._pattern is not None else None
        return (self._name, pattern)


class AnyDomain(Domain):
    """The unconstrained domain; every hashable value is admitted."""

    __slots__ = ()

    def __init__(self, name: str = "any"):
        super().__init__(name)

    def contains(self, value: object) -> bool:
        try:
            hash(value)
        except TypeError:
            return False
        return True
