"""Selection/join condition ASTs.

A *selection condition* (Section 3.1.1) is an atomic predicate -- an
``is``-predicate or a theta-predicate -- or a conjunction of atomic
predicates.  Predicates evaluate against an extended tuple to a support
pair ``(sn, sp)`` rather than a boolean, because the attribute values
involved are evidence sets.

The paper defines conjunction only (with atomic predicates assumed
mutually independent, combined by the multiplicative rule).  ``Or`` and
``Not`` are provided as clearly-marked extensions using the independent
disjunction/negation rules on support pairs.

Convenience constructors keep call sites readable::

    from repro.algebra import attr, lit

    p = attr("speciality").is_in({"si"}) & attr("rating").is_in({"ex"})
    q = attr("bldg-no") >= lit(500)
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator

from repro.errors import PredicateError
from repro.model.etuple import ExtendedTuple
from repro.model.evidence import EvidenceSet
from repro.model.membership import SupportPair, scaled_support
from repro.algebra.support import normalize_theta, theta_support


class Predicate(ABC):
    """Base class of selection conditions."""

    @abstractmethod
    def support(self, etuple: ExtendedTuple) -> SupportPair:
        """``F_SS``: the support pair of *etuple* for this predicate."""

    @abstractmethod
    def attributes(self) -> frozenset[str]:
        """The attribute names the predicate references."""

    def supported(
        self, tuples: Iterable[ExtendedTuple]
    ) -> Iterator[tuple[ExtendedTuple, SupportPair]]:
        """``(tuple, support)`` for each of *tuples* whose support has
        ``sn > 0``, in order: the scan of the extended selection."""
        for etuple in tuples:
            support = self.support(etuple)
            if support.is_supported:
                yield etuple, support

    def __and__(self, other: "Predicate") -> "And":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)

    def validate_against(self, schema) -> None:
        """Raise :class:`PredicateError` when the predicate references
        attributes absent from *schema*."""
        missing = [name for name in sorted(self.attributes()) if name not in schema]
        if missing:
            raise PredicateError(
                f"predicate references unknown attribute(s) "
                f"{', '.join(missing)} of relation {schema.name!r}"
            )

    @abstractmethod
    def rename_attributes(self, mapping) -> "Predicate":
        """A copy with attribute references renamed via ``{old: new}``.

        Used by the query planner to translate predicates across the
        attribute prefixing a cartesian product applies.
        """


class Operand(ABC):
    """A theta-predicate operand: an attribute reference or a literal."""

    @abstractmethod
    def resolve(self, etuple: ExtendedTuple) -> EvidenceSet:
        """The operand's evidence set in the context of *etuple*."""

    @abstractmethod
    def attributes(self) -> frozenset[str]:
        """Attribute names referenced by the operand."""

    # Operator sugar so `attr("a") >= lit(5)` builds a ThetaPredicate.
    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, Operand):
            return ThetaPredicate(self, "=", other)
        return NotImplemented

    def __ne__(self, other):  # type: ignore[override]
        raise PredicateError("theta-predicates do not include '!='")

    def __lt__(self, other: "Operand") -> "ThetaPredicate":
        return ThetaPredicate(self, "<", other)

    def __le__(self, other: "Operand") -> "ThetaPredicate":
        return ThetaPredicate(self, "<=", other)

    def __gt__(self, other: "Operand") -> "ThetaPredicate":
        return ThetaPredicate(self, ">", other)

    def __ge__(self, other: "Operand") -> "ThetaPredicate":
        return ThetaPredicate(self, ">=", other)

    __hash__ = None  # type: ignore[assignment]


class AttributeOperand(Operand):
    """A reference to an attribute of the evaluated tuple."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise PredicateError(f"attribute name must be a string, got {name!r}")
        self._name = name

    @property
    def name(self) -> str:
        """The referenced attribute name."""
        return self._name

    def resolve(self, etuple: ExtendedTuple) -> EvidenceSet:
        return etuple.evidence(self._name)

    def attributes(self) -> frozenset[str]:
        return frozenset({self._name})

    def is_in(self, values: Iterable) -> "IsPredicate":
        """Build the is-predicate ``name is {values}``."""
        return IsPredicate(self._name, values)

    def is_(self, values: Iterable) -> "IsPredicate":
        """Alias for :meth:`is_in`, matching the SQL ``IS {...}`` spelling."""
        return IsPredicate(self._name, values)

    def __repr__(self) -> str:
        return f"attr({self._name!r})"


class LiteralOperand(Operand):
    """A constant operand: a scalar or an evidence set."""

    __slots__ = ("_evidence",)

    def __init__(self, value: object):
        if isinstance(value, EvidenceSet):
            self._evidence = value
        elif isinstance(value, str) and value.startswith("[") and value.endswith("]"):
            self._evidence = EvidenceSet.parse(value)
        else:
            self._evidence = EvidenceSet.definite(value)

    @property
    def evidence(self) -> EvidenceSet:
        """The literal as an evidence set."""
        return self._evidence

    def resolve(self, etuple: ExtendedTuple) -> EvidenceSet:
        return self._evidence

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def __repr__(self) -> str:
        return f"lit({self._evidence.format()})"


def attr(name: str) -> AttributeOperand:
    """Shorthand for :class:`AttributeOperand`."""
    return AttributeOperand(name)


def lit(value: object) -> LiteralOperand:
    """Shorthand for :class:`LiteralOperand`."""
    return LiteralOperand(value)


class IsPredicate(Predicate):
    """``A is {c1, ..., cn}``: membership of the attribute in a value set.

    Support: ``(Bel({c1..cn}), Pls({c1..cn}))`` of the tuple's evidence.

    The attribute's evidence is evaluated on the compiled kernel (see
    :mod:`repro.ds.kernel`): the tested value set is encoded once per
    interned frame and every tuple evaluates by subset-mask tests -- a
    relation scan never re-hashes the predicate's value set.  The scan
    (:meth:`supported`) sums exact evidence as int numerators over its
    common denominator (:meth:`~repro.ds.kernel.CompiledMass.scaled`),
    skips a tuple with ``Bel = 0`` before building any pair, and builds
    the others without a range check
    (:func:`~repro.model.membership.scaled_support`); float and mixed
    evidence sums its masses and range-checks the pair.
    """

    __slots__ = ("_attribute", "_values", "_mask_cache")

    def __init__(self, attribute: str, values: Iterable):
        if not attribute or not isinstance(attribute, str):
            raise PredicateError(
                f"is-predicate needs an attribute name, got {attribute!r}"
            )
        self._attribute = attribute
        self._values = frozenset(values)
        if not self._values:
            raise PredicateError("is-predicate needs at least one value")
        self._mask_cache: dict = {}

    @property
    def attribute(self) -> str:
        """The tested attribute."""
        return self._attribute

    @property
    def values(self) -> frozenset:
        """The tested value set."""
        return self._values

    def _query_mask(self, interned) -> int:
        """The value set's mask on *interned*, cached per table."""
        query_mask = self._mask_cache.get(interned)
        if query_mask is None:
            query_mask = interned.query_mask(self._values)
            if len(self._mask_cache) >= 8:
                # A predicate normally meets one frame per attribute;
                # more means open-domain atom tables or re-interned
                # frames -- drop stale entries rather than pin dead
                # InternedFrame objects forever.
                self._mask_cache.clear()
            self._mask_cache[interned] = query_mask
        return query_mask

    def support(self, etuple: ExtendedTuple) -> SupportPair:
        compiled = etuple.evidence(self._attribute).mass_function.compiled()
        sn, sp = compiled.bel_pls(self._query_mask(compiled.interned))
        return SupportPair(sn, sp)

    def supported(
        self, tuples: Iterable[ExtendedTuple]
    ) -> Iterator[tuple[ExtendedTuple, SupportPair]]:
        attribute = self._attribute
        query_mask_of = self._query_mask
        for etuple in tuples:
            compiled = etuple.evidence(attribute).mass_function.compiled()
            query_mask = query_mask_of(compiled.interned)
            scaled = compiled.scaled()
            if scaled is None:
                sn, sp = compiled.bel_pls(query_mask)
                support = SupportPair(sn, sp)
                if support.is_supported:
                    yield etuple, support
                continue
            numerators, denominator = scaled
            true = possible = 0
            for mask, numerator in zip(compiled.masks, numerators):
                meet = mask & query_mask
                if meet:
                    possible += numerator
                    if meet == mask:
                        true += numerator
            if true:
                yield etuple, scaled_support(true, possible, denominator)

    def attributes(self) -> frozenset[str]:
        return frozenset({self._attribute})

    def rename_attributes(self, mapping) -> "IsPredicate":
        return IsPredicate(
            mapping.get(self._attribute, self._attribute), self._values
        )

    def __repr__(self) -> str:
        values = ",".join(sorted(map(str, self._values)))
        return f"({self._attribute} is {{{values}}})"


class ThetaPredicate(Predicate):
    """``A theta B`` for theta in {=, <, >, <=, >=} over evidence sets."""

    __slots__ = ("_left", "_op", "_right")

    def __init__(self, left: Operand | str, op: str, right: Operand | object):
        if isinstance(left, str):
            left = AttributeOperand(left)
        if not isinstance(right, Operand):
            right = LiteralOperand(right)
        if not isinstance(left, Operand):
            raise PredicateError(f"invalid theta operand {left!r}")
        self._left = left
        self._op = normalize_theta(op)
        self._right = right

    @property
    def op(self) -> str:
        """The canonical comparison operator."""
        return self._op

    @property
    def left(self) -> Operand:
        """Left operand."""
        return self._left

    @property
    def right(self) -> Operand:
        """Right operand."""
        return self._right

    def support(self, etuple: ExtendedTuple) -> SupportPair:
        return theta_support(
            self._left.resolve(etuple), self._right.resolve(etuple), self._op
        )

    def attributes(self) -> frozenset[str]:
        return self._left.attributes() | self._right.attributes()

    def rename_attributes(self, mapping) -> "ThetaPredicate":
        def rename_operand(operand: Operand) -> Operand:
            if isinstance(operand, AttributeOperand):
                return AttributeOperand(mapping.get(operand.name, operand.name))
            return operand

        return ThetaPredicate(
            rename_operand(self._left), self._op, rename_operand(self._right)
        )

    def __repr__(self) -> str:
        return f"({self._left!r} {self._op} {self._right!r})"


class And(Predicate):
    """Conjunction of independent predicates (multiplicative rule)."""

    __slots__ = ("_parts",)

    def __init__(self, *parts: Predicate):
        flattened: list[Predicate] = []
        for part in parts:
            if isinstance(part, And):
                flattened.extend(part.parts)
            elif isinstance(part, Predicate):
                flattened.append(part)
            else:
                raise PredicateError(f"expected a Predicate, got {part!r}")
        if len(flattened) < 2:
            raise PredicateError("a conjunction needs at least two predicates")
        self._parts = tuple(flattened)

    @property
    def parts(self) -> tuple[Predicate, ...]:
        """The conjoined predicates, flattened."""
        return self._parts

    def support(self, etuple: ExtendedTuple) -> SupportPair:
        combined = self._parts[0].support(etuple)
        for part in self._parts[1:]:
            combined = combined.combine_product(part.support(etuple))
        return combined

    def attributes(self) -> frozenset[str]:
        names: frozenset[str] = frozenset()
        for part in self._parts:
            names = names | part.attributes()
        return names

    def rename_attributes(self, mapping) -> "And":
        return And(*[part.rename_attributes(mapping) for part in self._parts])

    def __repr__(self) -> str:
        return "(" + " and ".join(map(repr, self._parts)) + ")"


class Or(Predicate):
    """Disjunction of independent predicates.

    *Extension*: the paper defines conjunction only; this uses the
    independent-events disjunction rule on support pairs.
    """

    __slots__ = ("_parts",)

    def __init__(self, *parts: Predicate):
        flattened: list[Predicate] = []
        for part in parts:
            if isinstance(part, Or):
                flattened.extend(part.parts)
            elif isinstance(part, Predicate):
                flattened.append(part)
            else:
                raise PredicateError(f"expected a Predicate, got {part!r}")
        if len(flattened) < 2:
            raise PredicateError("a disjunction needs at least two predicates")
        self._parts = tuple(flattened)

    @property
    def parts(self) -> tuple[Predicate, ...]:
        """The disjoined predicates, flattened."""
        return self._parts

    def support(self, etuple: ExtendedTuple) -> SupportPair:
        combined = self._parts[0].support(etuple)
        for part in self._parts[1:]:
            combined = combined.combine_disjunction(part.support(etuple))
        return combined

    def attributes(self) -> frozenset[str]:
        names: frozenset[str] = frozenset()
        for part in self._parts:
            names = names | part.attributes()
        return names

    def rename_attributes(self, mapping) -> "Or":
        return Or(*[part.rename_attributes(mapping) for part in self._parts])

    def __repr__(self) -> str:
        return "(" + " or ".join(map(repr, self._parts)) + ")"


class Not(Predicate):
    """Negation of a predicate.

    *Extension*: support is the complement interval ``(1 - sp, 1 - sn)``.
    """

    __slots__ = ("_part",)

    def __init__(self, part: Predicate):
        if not isinstance(part, Predicate):
            raise PredicateError(f"expected a Predicate, got {part!r}")
        self._part = part

    @property
    def part(self) -> Predicate:
        """The negated predicate."""
        return self._part

    def support(self, etuple: ExtendedTuple) -> SupportPair:
        return self._part.support(etuple).negate()

    def attributes(self) -> frozenset[str]:
        return self._part.attributes()

    def rename_attributes(self, mapping) -> "Not":
        return Not(self._part.rename_attributes(mapping))

    def __repr__(self) -> str:
        return f"(not {self._part!r})"
