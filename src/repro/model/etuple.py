"""Extended tuples.

An extended tuple binds a value to every attribute of a schema and
carries a tuple membership pair:

* **key** attributes hold definite scalar values (validated against the
  attribute domain);
* **uncertain** non-key attributes hold :class:`EvidenceSet` values
  (scalars are auto-wrapped as definite evidence; strings in bracket
  notation ``"[...]"`` are parsed);
* **certain** non-key attributes also store an :class:`EvidenceSet`, but
  it must be definite -- keeping one representation for all non-key
  values lets the algebra treat them uniformly.

Tuples are immutable; all "mutators" return new tuples.

Validation policy
-----------------
Values are validated at ingress: parsed bracket notation, mappings and
raw scalars are coerced and checked against the attribute's domain on
the way in, and deserialization goes through the same constructor.  An
:class:`EvidenceSet` that is already bound to the attribute's domain
(the same domain object, or an equal one) is kept as-is instead of
being re-wrapped and re-checked -- this is what the algebra's own
outputs (merged, discounted and projected evidence) look like when they
flow into the next tuple.  The checks that can still fire on such a
value stay: a certain attribute still rejects uncertain evidence, and
the membership pair is always range-checked.  The attribute-name check
is one set comparison; the detailed unknown/missing message is only
built when it fails.  :meth:`ExtendedTuple.with_membership` (what
selection builds per kept tuple) shares the already-coerced values and
key of its source and checks only the new membership.  Discounting and
tuple merging derive their results the same way, through the unchecked
``_derive``, where they can prove what the constructor would check (see
:mod:`repro.integration.pipeline` and :mod:`repro.integration.merging`).
The extended projection (:func:`repro.algebra.project`) restricts a
tuple through the unchecked ``_project`` when the tuple carries its
relation's attributes: the projected schema keeps those attribute
objects, so every shared value is one the constructor would keep.  A
tuple of any other schema, and the public :meth:`ExtendedTuple.project`,
still go through the constructor.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import RelationError, SchemaError
from repro.ds.mass import MassFunction
from repro.model.attribute import Attribute
from repro.model.evidence import EvidenceSet
from repro.model.membership import CERTAIN, TupleMembership
from repro.model.schema import RelationSchema


def _coerce_membership(membership: object) -> TupleMembership:
    """Accept a TupleMembership or an (sn, sp) pair."""
    if isinstance(membership, TupleMembership):
        return membership
    if isinstance(membership, tuple) and len(membership) == 2:
        return TupleMembership(*membership)
    raise RelationError(
        f"tuple membership must be a TupleMembership or (sn, sp) pair, "
        f"got {membership!r}"
    )


def _coerce_value(attribute: Attribute, raw: object) -> object:
    """Normalize a raw attribute value according to the attribute kind."""
    if attribute.key:
        if isinstance(raw, EvidenceSet):
            raw = raw.definite_value()
        return attribute.domain.validate(raw)
    # Non-key values are stored as evidence sets.
    if isinstance(raw, EvidenceSet):
        domain = attribute.domain
        if raw.domain is domain or (raw.domain is not None and raw.domain == domain):
            # Already bound to (and validated against) this domain.
            evidence = raw
        else:
            evidence = EvidenceSet(raw.mass_function, domain)
    elif isinstance(raw, MassFunction):
        evidence = EvidenceSet(raw, attribute.domain)
    elif isinstance(raw, Mapping):
        evidence = EvidenceSet(raw, attribute.domain)
    elif isinstance(raw, str) and raw.startswith("[") and raw.endswith("]"):
        evidence = EvidenceSet.parse(raw, attribute.domain)
    else:
        evidence = EvidenceSet.definite(
            attribute.domain.validate(raw), attribute.domain
        )
    if not attribute.uncertain and not evidence.is_definite():
        raise RelationError(
            f"attribute {attribute.name!r} is certain but received the "
            f"uncertain value {evidence.format()}"
        )
    return evidence


class ExtendedTuple:
    """One row of an extended relation.

    >>> from repro.model import Attribute, RelationSchema, TextDomain, EnumeratedDomain
    >>> schema = RelationSchema("R", [
    ...     Attribute("rname", TextDomain("rname"), key=True),
    ...     Attribute("rating", EnumeratedDomain("rating", ["ex","gd","avg"]),
    ...               uncertain=True)])
    >>> t = ExtendedTuple(schema, {"rname": "wok", "rating": "[gd^0.25, avg^0.75]"})
    >>> t.key()
    ('wok',)
    >>> t.membership.is_certain
    True
    """

    __slots__ = ("_schema", "_values", "_membership", "_key")

    def __init__(
        self,
        schema: RelationSchema,
        values: Mapping[str, object],
        membership: object = CERTAIN,
    ):
        if values.keys() != schema.name_set:
            unknown = set(values) - schema.name_set
            if unknown:
                raise SchemaError(
                    f"values reference unknown attribute(s) "
                    f"{', '.join(sorted(unknown))} of relation {schema.name!r}"
                )
            missing = schema.name_set - set(values)
            raise SchemaError(
                f"tuple for {schema.name!r} is missing attribute(s) "
                f"{', '.join(sorted(missing))}"
            )
        self._schema = schema
        self._values = coerced = {
            attribute.name: _coerce_value(attribute, values[attribute.name])
            for attribute in schema.attributes
        }
        self._membership = _coerce_membership(membership)
        self._key = tuple([coerced[name] for name in schema.key_names])

    # -- accessors -----------------------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        """The tuple's relation schema."""
        return self._schema

    @property
    def membership(self) -> TupleMembership:
        """The ``(sn, sp)`` membership pair."""
        return self._membership

    def key(self) -> tuple:
        """The definite key values, in key-attribute order."""
        return self._key

    def value(self, name: str) -> object:
        """The stored value: a scalar for keys, an EvidenceSet otherwise."""
        if name not in self._values:
            raise SchemaError(
                f"tuple of {self._schema.name!r} has no attribute {name!r}"
            )
        return self._values[name]

    def evidence(self, name: str) -> EvidenceSet:
        """The attribute value as an evidence set (keys wrapped definite)."""
        value = self.value(name)
        if isinstance(value, EvidenceSet):
            return value
        return EvidenceSet.definite(value, self._schema.attribute(name).domain)

    def __getitem__(self, name: str) -> object:
        return self.value(name)

    def items(self):
        """Iterate ``(attribute name, stored value)`` in schema order."""
        for name in self._schema.names:
            yield name, self._values[name]

    # -- derivations --------------------------------------------------------------

    def with_membership(self, membership: object) -> "ExtendedTuple":
        """A copy with a different membership pair.

        The values and key are already coerced and never mutated, so the
        copy shares them; only the membership goes through the ingress
        check.
        """
        copy = object.__new__(ExtendedTuple)
        copy._schema = self._schema
        copy._values = self._values
        copy._key = self._key
        copy._membership = _coerce_membership(membership)
        return copy

    def _derive(self, schema, replacements, membership) -> "ExtendedTuple":
        """A copy under *schema* with *replacements* swapped in, unchecked.

        The trusted counterpart of the constructor for outputs of the
        algebra.  The caller proves what the constructor would check:
        *schema* lists this tuple's attributes in the same order (so the
        key and every value not replaced stay valid), each replacement
        is what the constructor would store unchanged (this tuple's own
        key value, or evidence already bound to the attribute's domain
        that a certain attribute would accept), and *membership* is a
        :class:`TupleMembership`.  With no replacements the copy shares
        this tuple's values dict.
        """
        copy = object.__new__(ExtendedTuple)
        copy._schema = schema
        if replacements:
            copy._values = values = dict(self._values)
            values.update(replacements)
        else:
            copy._values = self._values
        copy._key = self._key
        copy._membership = membership
        return copy

    def _project(self, schema) -> "ExtendedTuple":
        """:meth:`project`, unchecked: the trusted restriction for the
        algebra's projection.

        The caller proves that every attribute of *schema* equals this
        tuple's attribute of that name, as :meth:`RelationSchema.project`
        of a schema with this tuple's layout keeps them: every value is
        then one the constructor would store unchanged.  The copy shares the values
        and the membership; its key follows *schema*'s key order.
        """
        copy = object.__new__(ExtendedTuple)
        copy._schema = schema
        values = self._values
        copy._values = projected = {name: values[name] for name in schema.names}
        copy._key = tuple([projected[name] for name in schema.key_names])
        copy._membership = self._membership
        return copy

    def with_values(self, replacements: Mapping[str, object]) -> "ExtendedTuple":
        """A copy with some attribute values replaced."""
        merged = dict(self._values)
        merged.update(replacements)
        return ExtendedTuple(self._schema, merged, self._membership)

    def project(self, schema: RelationSchema) -> "ExtendedTuple":
        """Restriction of this tuple to a projected schema.

        The membership pair travels with the tuple (the paper's extended
        projection keeps the membership attribute).
        """
        values = {name: self._values[name] for name in schema.names}
        return ExtendedTuple(schema, values, self._membership)

    def renamed(self, schema: RelationSchema, mapping: Mapping[str, str]) -> "ExtendedTuple":
        """This tuple under a renamed schema (``mapping`` is old -> new)."""
        values = {
            mapping.get(name, name): value for name, value in self._values.items()
        }
        return ExtendedTuple(schema, values, self._membership)

    # -- plumbing ---------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtendedTuple):
            return NotImplemented
        return (
            self._schema.names == other._schema.names
            and self._values == other._values
            and self._membership == other._membership
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._schema.names,
                tuple(sorted(self._values.items(), key=lambda kv: kv[0], )),
                self._membership,
            )
        )

    def __repr__(self) -> str:
        rendered = []
        for name, value in self.items():
            if isinstance(value, EvidenceSet):
                rendered.append(f"{name}={value.format()}")
            else:
                rendered.append(f"{name}={value!r}")
        return (
            f"ExtendedTuple({', '.join(rendered)}, "
            f"(sn,sp)={self._membership.format()})"
        )
