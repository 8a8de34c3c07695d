"""Mass functions (basic probability assignments).

A mass function ``m`` allocates belief to *subsets* of a frame of
discernment such that ``m(empty) = 0`` and the masses sum to one
(Section 2.1 of the paper).  Subsets with positive mass are *focal
elements*.  Crucially -- and unlike probability distributions -- mass
assigned to a non-singleton set is committed to the set as a whole, not
divided among its members, and the mass given to the entire frame
represents *nonbelief* (ignorance).

Arithmetic
----------
Masses may be :class:`fractions.Fraction` (exact) or :class:`float`.
Constructors accept ``int``, ``Fraction``, ``float``, decimal strings such
as ``"0.25"`` and rational strings such as ``"1/3"``.  Strings are always
converted to exact fractions; pass genuine ``float`` objects to work in
floating point.  Mixed inputs degrade gracefully: exactness is preserved
whenever every mass is exact.

Validation policy
-----------------
Masses are validated at ingress: parsing bracket notation, the public
constructors fed with user data, and deserialization all coerce every
value and check the total through :func:`validate_mass_total`.  A mass
function that is already bound to the same frame object (or an equal
one) is reused as-is, without a second check, and so are the results
of kernel operations (:mod:`repro.ds.kernel`), each of which is
validated exactly once, when it is produced.  The kernel's canonical
sort of pooled results is kept even though validation does not need
it: chained float combinations equal the textbook frozenset loops bit
for bit only when every fold visits pairs in the same canonical order.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from numbers import Rational
from typing import Union

from repro.errors import MassFunctionError
from repro.ds.frame import OMEGA, FocalElement, FrameOfDiscernment, is_omega

Numeric = Union[Fraction, float]

#: Tolerance used to validate that float masses sum to one.  Float
#: Dempster combination near total conflict divides by a tiny
#: ``1 - kappa``, which can magnify round-off past this tolerance; such a
#: combination counts as total conflict (``combine_with_conflict``
#: returns ``None``, ``combine`` raises ``TotalConflictError``), so the
#: extended union's ``on_conflict`` policy applies to it.
FLOAT_SUM_TOLERANCE = 1e-9  # repro: ignore[EXACT] -- the one float-tolerance knob


def coerce_mass_value(value: object) -> Numeric:
    """Convert a user-supplied mass value into ``Fraction`` or ``float``.

    * ``int`` and other rationals become :class:`Fraction` (exact),
    * ``float`` stays ``float``,
    * strings (``"0.25"``, ``"1/3"``) become exact :class:`Fraction`.
    """
    if isinstance(value, bool):
        raise MassFunctionError(f"mass value must be numeric, got {value!r}")
    # float first: isinstance of a float against Fraction is an ABC
    # dispatch, and float masses are the common large-scale case.
    if isinstance(value, float):
        return value
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MassFunctionError(f"cannot parse mass value {value!r}") from exc
    raise MassFunctionError(f"mass value must be numeric, got {value!r}")


def is_fraction(value: object) -> bool:
    """``isinstance(value, Fraction)``, answered by a type test for the
    common types.

    ``Fraction`` is an ABC subclass, so ``isinstance`` against it
    dispatches through ``ABCMeta.__instancecheck__`` for every value
    that is not a Fraction -- about ten times the cost of the type
    tests that answer for a ``Fraction``, ``float``, ``str`` or
    ``int`` here.  Anything else (a ``Fraction`` subclass, ``bool``)
    falls back to ``isinstance``.
    """
    kind = type(value)
    if kind is Fraction:
        return True
    if kind is float or kind is str or kind is int:
        return False
    return isinstance(value, Fraction)


def validate_mass_total(values) -> None:
    """Check that masses sum to one (exactly, or within float tolerance).

    The single total-mass check of the library: the ``MassFunction``
    constructor and the compiled evidence kernel
    (:mod:`repro.ds.kernel`) both validate through it, so the
    ``FLOAT_SUM_TOLERANCE`` policy lives in exactly one place.  *values*
    is a sized collection; one value is its own sum (``0 + x`` has the
    value and type of ``x``), which spares the common definite mass
    function a list copy and a ``sum`` call.  Exact masses are summed
    as int numerators over a common denominator, with no intermediate
    Fraction; a float value sends the whole sum to ``sum``.
    """
    if not values:
        raise MassFunctionError("a mass function needs at least one focal element")
    if len(values) == 1:
        (total,) = values
    else:
        # Exact masses: sum int numerators over a common denominator
        # (unreduced: the total is one iff they are equal).
        numerator, denominator = 0, 1
        for value in values:
            if type(value) is not Fraction:
                total = sum(values)
                break
            value_denominator = value.denominator
            if value_denominator == denominator:
                numerator += value.numerator
            else:
                shared = math.gcd(denominator, value_denominator)
                numerator = numerator * (value_denominator // shared) + (
                    value.numerator * (denominator // shared)
                )
                denominator = denominator // shared * value_denominator
        else:
            if numerator != denominator:
                raise MassFunctionError(
                    f"masses must sum to 1, got {Fraction(numerator, denominator)}"
                )
            return
    # Masses are Fractions or floats, and a single float operand makes
    # the sum a float: the sum's type says whether every mass is exact
    # (a type test: isinstance of a float against Fraction is an ABC
    # dispatch).
    if type(total) is Fraction:
        if total != 1:
            raise MassFunctionError(f"masses must sum to 1, got {total}")
    else:
        if not math.isclose(
            float(total),  # repro: ignore[EXACT] -- validating the float branch
            1.0,  # repro: ignore[EXACT] -- float-branch target total
            rel_tol=FLOAT_SUM_TOLERANCE,
            abs_tol=FLOAT_SUM_TOLERANCE,
        ):
            raise MassFunctionError(
                f"masses must sum to 1, "
                f"got {float(total)!r}"  # repro: ignore[EXACT] -- error display
            )


def coerce_focal_element(element: object) -> FocalElement:
    """Normalize a user-supplied focal element.

    Accepts :data:`OMEGA`, any iterable of values (except strings), or a
    scalar, which is treated as a singleton set.  Strings are scalars:
    ``"ca"`` means the singleton ``{"ca"}``, never ``{"c", "a"}``.
    """
    if is_omega(element):
        return OMEGA
    if isinstance(element, frozenset):
        candidate = element
    elif isinstance(element, (str, bytes)):
        candidate = frozenset({element})
    elif isinstance(element, Iterable):
        candidate = frozenset(element)
    else:
        candidate = frozenset({element})
    if not candidate:
        raise MassFunctionError("the empty set cannot be a focal element")
    return candidate


def _focal_sort_key(element: FocalElement):
    """Deterministic ordering: concrete sets by (size, members), OMEGA last."""
    if is_omega(element):
        return (1, 0, ())
    return (0, len(element), tuple(sorted(map(repr, element))))


class MassFunction:
    """An immutable mass function over subsets of a frame.

    Parameters
    ----------
    masses:
        Mapping from focal elements to masses.  Keys may be scalars
        (treated as singletons), iterables of values, or :data:`OMEGA`.
        Zero-valued entries are dropped.
    frame:
        Optional enumerated :class:`FrameOfDiscernment`.  When given,
        focal elements are validated against it and a concrete set equal
        to the whole frame is canonicalized to :data:`OMEGA`.

    >>> m = MassFunction({"ca": "1/2", ("hu", "si"): "1/3", OMEGA: "1/6"})
    >>> m[{"ca"}]
    Fraction(1, 2)
    >>> m[OMEGA]
    Fraction(1, 6)
    """

    __slots__ = ("_masses", "_frame", "_compiled")

    def __init__(
        self,
        masses: Mapping,
        frame: FrameOfDiscernment | None = None,
    ):
        cleaned: dict[FocalElement, Numeric] = {}
        for raw_element, raw_value in masses.items():
            value = coerce_mass_value(raw_value)
            if value < 0:
                raise MassFunctionError(f"negative mass {value!r} for {raw_element!r}")
            if value == 0:
                continue
            element = coerce_focal_element(raw_element)
            if frame is not None:
                element = frame.canonicalize(element)
            if element in cleaned:
                cleaned[element] = cleaned[element] + value
            else:
                cleaned[element] = value
        _validate_total(cleaned)
        self._masses = cleaned
        self._frame = frame
        self._compiled = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def exact(
        cls, masses: Mapping, frame: FrameOfDiscernment | None = None
    ) -> "MassFunction":
        """Build a mass function converting every float via its repr.

        ``0.25`` becomes ``Fraction(1, 4)`` exactly; use this when decimal
        literals are meant as exact decimal fractions.
        """
        converted = {
            element: Fraction(str(value)) if isinstance(value, float) else value
            for element, value in masses.items()
        }
        return cls(converted, frame)

    @classmethod
    def from_counts(
        cls, counts: Mapping, frame: FrameOfDiscernment | None = None
    ) -> "MassFunction":
        """Build a mass function from unnormalized counts (e.g. votes).

        This is the paper's Section 1.2 derivation: a panel of reviewers
        casts votes for values (or sets of values, or abstains -- map
        abstentions to :data:`OMEGA`), and the mass of each focal element
        is its vote share.  Counts are exact, so six votes split 2/4
        produce masses 1/3 and 2/3 exactly.
        """
        total = 0
        converted: dict[object, Fraction] = {}
        for element, count in counts.items():
            value = coerce_mass_value(count)
            if isinstance(value, float):
                value = Fraction(str(value))
            if value < 0:
                raise MassFunctionError(f"negative count {count!r} for {element!r}")
            converted[element] = value
            total += value
        if total == 0:
            raise MassFunctionError("counts sum to zero; cannot normalize")
        return cls(
            {element: value / total for element, value in converted.items()}, frame
        )

    @classmethod
    def definite(
        cls, value: object, frame: FrameOfDiscernment | None = None
    ) -> "MassFunction":
        """The mass function fully committed to a single value."""
        return cls({coerce_focal_element(value): Fraction(1)}, frame)

    @classmethod
    def vacuous(cls, frame: FrameOfDiscernment | None = None) -> "MassFunction":
        """The totally ignorant mass function: all mass on the frame."""
        return cls({OMEGA: Fraction(1)}, frame)

    @classmethod
    def categorical(
        cls, values: Iterable, frame: FrameOfDiscernment | None = None
    ) -> "MassFunction":
        """All mass on one (possibly non-singleton) set of values."""
        return cls({coerce_focal_element(values): Fraction(1)}, frame)

    # -- the compiled kernel form (see repro.ds.kernel) --------------------

    @classmethod
    def _from_compiled(cls, compiled) -> "MassFunction":
        """Wrap a kernel :class:`~repro.ds.kernel.CompiledMass` lazily.

        The frozenset dict is only materialized on first access, so a
        chain of kernel combinations (the integration fold, the stream
        engine's per-entity state) never decodes intermediates.  The
        compiled values are already validated by the kernel operation
        that produced them.  The frame is the table's frame: ``None``
        for open-domain evidence.
        """
        self = object.__new__(cls)
        self._masses = None
        self._frame = compiled.interned.frame
        self._compiled = compiled
        return self

    @property
    def is_compiled(self) -> bool:
        """``True`` when the compiled kernel form is attached.

        Compilation happens lazily, on the first operation (combination,
        belief query, discounting) that needs it, and the form is cached;
        results of kernel operations are born compiled.
        """
        return self._compiled is not None

    def compiled(self):
        """The kernel :class:`~repro.ds.kernel.CompiledMass`, compiling
        lazily: over the enumerated frame when one is attached, else
        over the atoms the focal elements mention."""
        if self._compiled is None:
            self._compiled = _kernel.compile_mass_function(self)
        return self._compiled

    def _mass_dict(self) -> dict:
        """The frozenset-keyed dict, decoded from the kernel on demand."""
        if self._masses is None:
            self._masses = self._compiled.to_mass_dict()
        return self._masses

    # -- basic accessors ---------------------------------------------------

    @property
    def frame(self) -> FrameOfDiscernment | None:
        """The enumerated frame, when one is attached."""
        return self._frame

    def focal_elements(self) -> tuple[FocalElement, ...]:
        """The focal elements in deterministic order (OMEGA last)."""
        masses = self._mass_dict()
        if len(masses) == 1:
            return tuple(masses)
        return tuple(sorted(masses, key=_focal_sort_key))

    def items(self) -> Iterator[tuple[FocalElement, Numeric]]:
        """Iterate ``(focal element, mass)`` pairs in deterministic order."""
        masses = self._mass_dict()
        for element in self.focal_elements():
            yield element, masses[element]

    def mass(self, element: object) -> Numeric:
        """The mass of *element* (zero when it is not focal)."""
        key = coerce_focal_element(element)
        if self._frame is not None and not is_omega(key):
            key = self._frame.canonicalize(key)
        return self._mass_dict().get(key, Fraction(0))

    def __getitem__(self, element: object) -> Numeric:
        return self.mass(element)

    def __contains__(self, element: object) -> bool:
        return self.mass(element) != 0

    def __len__(self) -> int:
        return len(self._mass_dict())

    def __iter__(self) -> Iterator[FocalElement]:
        return iter(self.focal_elements())

    # -- structure predicates ----------------------------------------------

    def is_exact(self) -> bool:
        """``True`` when every mass is a :class:`Fraction` (answered from
        the compiled form when attached, without decoding the masses)."""
        if self._compiled is not None:
            return self._compiled.is_exact()
        return all(map(is_fraction, self._masses.values()))

    def is_vacuous(self) -> bool:
        """``True`` when all mass sits on the whole frame (ignorance)."""
        return set(self._mass_dict()) == {OMEGA}

    def is_definite(self) -> bool:
        """``True`` when all mass sits on one singleton value."""
        if len(self._mass_dict()) != 1:
            return False
        (element,) = self._mass_dict()
        return not is_omega(element) and len(element) == 1

    def definite_value(self):
        """The single certain value; raises unless :meth:`is_definite`."""
        if not self.is_definite():
            raise MassFunctionError(f"{self!r} is not a definite value")
        (element,) = self._mass_dict()
        (value,) = element
        return value

    def is_bayesian(self) -> bool:
        """``True`` when every focal element is a singleton (a probability
        distribution in disguise)."""
        return all(
            not is_omega(element) and len(element) == 1 for element in self._mass_dict()
        )

    def is_consonant(self) -> bool:
        """``True`` when the focal elements form a nested chain (possibility
        distribution)."""
        concrete = sorted(
            (element for element in self._mass_dict() if not is_omega(element)), key=len
        )
        for smaller, larger in zip(concrete, concrete[1:]):
            if not smaller <= larger:
                return False
        return True

    def core(self) -> FocalElement:
        """The union of all focal elements (OMEGA when ignorance is focal)."""
        if OMEGA in self._mass_dict():
            if self._frame is not None:
                return frozenset(self._frame.values)
            return OMEGA
        union: frozenset = frozenset()
        for element in self._mass_dict():
            union = union | element
        return union

    def ignorance(self) -> Numeric:
        """The mass assigned to the whole frame (nonbelief)."""
        return self._mass_dict().get(OMEGA, Fraction(0))

    # -- belief measures (delegating to repro.ds.belief) --------------------

    def bel(self, subset: object) -> Numeric:
        """Belief committed to *subset*; see :func:`repro.ds.belief.belief`."""
        from repro.ds.belief import belief

        return belief(self, subset)

    def pls(self, subset: object) -> Numeric:
        """Plausibility of *subset*; see
        :func:`repro.ds.belief.plausibility`."""
        from repro.ds.belief import plausibility

        return plausibility(self, subset)

    def combine(self, other: "MassFunction") -> "MassFunction":
        """Dempster's rule of combination; see
        :func:`repro.ds.combination.combine`."""
        from repro.ds.combination import combine

        return combine(self, other)

    # -- conversions ---------------------------------------------------------

    def to_float(self) -> "MassFunction":
        """A copy with every mass converted to ``float``."""
        return MassFunction(
            {
                # repro: ignore[EXACT] -- to_float() is the explicit exit
                element: float(value)
                for element, value in self._mass_dict().items()
            },
            self._frame,
        )

    def to_exact(self) -> "MassFunction":
        """A copy with every mass converted to an exact ``Fraction``.

        Float masses are converted via their shortest decimal repr, so a
        mass printed as ``0.25`` becomes exactly ``1/4``.
        """
        return MassFunction(
            {
                element: Fraction(str(value)) if isinstance(value, float) else value
                for element, value in self._mass_dict().items()
            },
            self._frame,
        )

    def with_frame(self, frame: FrameOfDiscernment | None) -> "MassFunction":
        """A copy attached to (and validated against) *frame*."""
        return MassFunction(dict(self._mass_dict()), frame)

    def map_elements(self, mapping) -> "MassFunction":
        """Translate focal elements through a value mapping.

        *mapping* is a callable taking one domain value and returning
        either a single value or an iterable of values (a one-to-many
        mapping produces larger focal elements -- this is exactly how
        domain translation introduces uncertainty during attribute
        preprocessing).  OMEGA maps to OMEGA.  Masses of elements that
        collide after mapping are summed.
        """
        translated: dict[FocalElement, Numeric] = {}
        for element, value in self._mass_dict().items():
            if is_omega(element):
                new_element: FocalElement = OMEGA
            else:
                members: set = set()
                for member in element:
                    image = mapping(member)
                    if isinstance(image, (str, bytes)) or not isinstance(
                        image, Iterable
                    ):
                        members.add(image)
                    else:
                        members.update(image)
                if not members:
                    raise MassFunctionError(
                        f"mapping erased focal element {sorted(map(repr, element))}"
                    )
                new_element = frozenset(members)
            if new_element in translated:
                translated[new_element] = translated[new_element] + value
            else:
                translated[new_element] = value
        return MassFunction(translated, None)

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        # An unframed OMEGA is the whole domain, whatever it is: against
        # a framed mass function it resolves in that frame.  So evidence
        # decoded without its schema equals the framed original.
        mine = self._frame if self._frame is not None else other._frame
        theirs = other._frame if other._frame is not None else self._frame
        return self._resolved_masses(mine) == other._resolved_masses(theirs)

    def _resolved_masses(self, frame: FrameOfDiscernment | None) -> dict:
        """Masses with OMEGA resolved to the values of *frame* when known
        (and not a focal element already), so that equality is
        insensitive to OMEGA canonicalization."""
        masses = self._mass_dict()
        if frame is None or OMEGA not in masses or frame.values in masses:
            return masses
        resolved = dict(masses)
        resolved[frame.values] = resolved.pop(OMEGA)
        return resolved

    def __hash__(self) -> int:
        # Equality may match OMEGA with a concrete set (whichever frame
        # resolves it), so the hash reads only what every resolution
        # keeps: the number of focal elements and their masses.
        masses = self._mass_dict()
        return hash((len(masses), frozenset(masses.values())))

    @classmethod
    def _from_state(
        cls, masses: dict, frame: FrameOfDiscernment | None
    ) -> "MassFunction":
        """Rebuild from pickled state without re-validating.

        The state came out of a live instance's :meth:`__reduce__`, so
        the masses are already coerced, canonicalized and total-checked;
        repeating that work would make unpickling and ``copy.deepcopy``
        several times slower than the pickle itself.
        """
        self = object.__new__(cls)
        self._masses = masses
        self._frame = frame
        self._compiled = None
        return self

    def __reduce__(self):
        # Pickle/deepcopy through _from_state: the values were validated
        # at construction, and the compiled kernel form (interned frame,
        # masks) is a process-local cache, re-derived on demand, that
        # must not be duplicated into the serialized state.
        return (MassFunction._from_state, (dict(self._mass_dict()), self._frame))

    def __repr__(self) -> str:
        from repro.ds.notation import format_evidence

        return f"MassFunction({format_evidence(self)})"


def _validate_total(masses: dict) -> None:
    """Check that masses sum to one (exactly, or within float tolerance)."""
    validate_mass_total(masses.values())


# The kernel imports this module, so it is bound last; compiling through
# a module attribute keeps an import statement off every compilation.
from repro.ds import kernel as _kernel  # noqa: E402
