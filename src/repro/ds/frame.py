"""Frames of discernment and the symbolic Omega focal element.

A *frame of discernment* is the set of mutually exclusive values an
attribute can take (the paper writes it as a capital theta; we follow the
more common Omega).  Mass may be assigned to the entire frame to express
*nonbelief* -- the portion of evidence that commits to nothing -- without
the frame ever being enumerated.  To support that, the library represents
"the whole domain" by the singleton :data:`OMEGA`, which participates in
set operations symbolically:

* ``OMEGA`` intersected with any set ``X`` is ``X``,
* ``OMEGA`` is a superset of every set and a subset only of itself.

When a concrete :class:`FrameOfDiscernment` is known, :data:`OMEGA` can be
resolved to the actual value set via :meth:`FrameOfDiscernment.resolve`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations
from typing import Union

from repro.errors import DomainError


class Omega:
    """Symbolic stand-in for the full frame of discernment.

    There is exactly one instance, :data:`OMEGA`.  It is hashable and
    compares equal only to itself, so it can be used as a dictionary key
    alongside ``frozenset`` focal elements.
    """

    _instance: "Omega | None" = None

    def __new__(cls) -> "Omega":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Ω"

    def __reduce__(self):
        # Preserve the singleton across pickling.
        return (Omega, ())


OMEGA = Omega()

#: A focal element is either a concrete, non-empty ``frozenset`` of domain
#: values or the symbolic whole-frame marker :data:`OMEGA`.
FocalElement = Union[frozenset, Omega]


def is_omega(element: object) -> bool:
    """Return ``True`` when *element* is the symbolic whole frame."""
    return element is OMEGA or isinstance(element, Omega)


def typed_values_key(values: frozenset):
    """A key for *values* that tells equal values of different types apart.

    Equal values of different types (``1``, ``1.0``, ``True``) have
    different ``repr``s, so they decode differently and can sort to
    different bits: a kernel table keyed by value alone would carry
    whichever was interned first.  Strings are the one common value type
    whose equal values always share type and ``repr``, so an all-``str``
    set is its own key.
    """
    for value in values:
        if type(value) is not str:
            return frozenset([(type(item), repr(item)) for item in values])
    return values


class FrameOfDiscernment:
    """An enumerated, finite frame of discernment.

    Parameters
    ----------
    name:
        Human-readable identifier, e.g. ``"speciality"``.
    values:
        The exhaustive set of mutually exclusive values.

    >>> frame = FrameOfDiscernment("rating", ["ex", "gd", "avg"])
    >>> frame.contains("ex")
    True
    >>> len(frame)
    3
    """

    __slots__ = ("_name", "_values", "_typed_key")

    def __init__(self, name: str, values: Iterable):
        self._name = str(name)
        self._values = frozenset(values)
        self._typed_key = None
        if not self._values:
            raise DomainError(f"frame {self._name!r} must contain at least one value")

    @property
    def typed_key(self) -> tuple:
        """The name plus :func:`typed_values_key` of the values.

        Unlike equality it tells ``{1, 2}`` from ``{1.0, 2}``; the
        kernel interns frame tables by it.  Computed once per frame.
        """
        key = self._typed_key
        if key is None:
            key = self._typed_key = (self._name, typed_values_key(self._values))
        return key

    @property
    def name(self) -> str:
        """The frame's identifier."""
        return self._name

    @property
    def values(self) -> frozenset:
        """The frame's value set."""
        return self._values

    def contains(self, value: object) -> bool:
        """Return ``True`` when *value* belongs to the frame."""
        return value in self._values

    def is_subset(self, elements: Iterable) -> bool:
        """Return ``True`` when every element of *elements* is in the frame."""
        return frozenset(elements) <= self._values

    def resolve(self, element: FocalElement) -> frozenset:
        """Resolve a focal element to a concrete set of values.

        :data:`OMEGA` resolves to the full value set; concrete sets are
        validated against the frame.
        """
        if is_omega(element):
            return self._values
        concrete = frozenset(element)
        if not concrete <= self._values:
            extraneous = sorted(map(repr, concrete - self._values))
            raise DomainError(
                f"values {', '.join(extraneous)} are outside frame {self._name!r}"
            )
        return concrete

    def canonicalize(self, element: FocalElement) -> FocalElement:
        """Collapse a concrete set equal to the whole frame into OMEGA."""
        if is_omega(element):
            return OMEGA
        concrete = self.resolve(element)
        if concrete == self._values:
            return OMEGA
        return concrete

    def subsets(self, *, proper: bool = False, nonempty: bool = True) -> Iterator[frozenset]:
        """Iterate over subsets of the frame (the powerset).

        Parameters
        ----------
        proper:
            Skip the full frame itself.
        nonempty:
            Skip the empty set (the default, since mass functions never
            assign mass to it).

        The powerset is exponential in the frame size; this is intended
        for small frames such as the tuple-membership frame {true, false}.
        """
        ordered = sorted(self._values, key=repr)
        start = 0 if not nonempty else 1
        stop = len(ordered) + (0 if proper else 1)
        for size in range(start, stop):
            for combo in combinations(ordered, size):
                yield frozenset(combo)

    def __contains__(self, value: object) -> bool:
        return value in self._values

    def __iter__(self) -> Iterator:
        return iter(sorted(self._values, key=repr))

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameOfDiscernment):
            return NotImplemented
        return self._name == other._name and self._values == other._values

    def __hash__(self) -> int:
        return hash((self._name, self._values))

    def __repr__(self) -> str:
        preview = ", ".join(sorted(map(str, self._values))[:6])
        suffix = ", ..." if len(self._values) > 6 else ""
        return f"FrameOfDiscernment({self._name!r}, {{{preview}{suffix}}})"


#: The boolean frame used for tuple membership (Section 2.3 of the paper,
#: where it is written as Psi = {true, false}).
MEMBERSHIP_FRAME = FrameOfDiscernment("membership", [True, False])
