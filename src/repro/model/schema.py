"""Relation schemas.

A schema names a relation and fixes its ordered attribute list.  Every
extended relation needs at least one key attribute (the paper assumes "the
preprocessed relations share a common key which determines the matched
tuples"), and keys must be certain.

Schemas provide the structural operations the algebra builds on:
union-compatibility (Section 3.2, footnote 5: same attribute set including
keys), projection (which must retain the keys so tuple identity survives),
concatenation for the cartesian product (with deterministic prefix-based
disambiguation of clashing names), and renaming.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.model.attribute import Attribute


class RelationSchema:
    """An ordered attribute list with a name and a designated key.

    >>> from repro.model import Attribute, TextDomain
    >>> schema = RelationSchema(
    ...     "R", [Attribute("rname", TextDomain("rname"), key=True),
    ...           Attribute("street", TextDomain("street"))])
    >>> schema.key_names
    ('rname',)
    """

    __slots__ = (
        "_name",
        "_attributes",
        "_by_name",
        "_names",
        "_name_set",
        "_key_names",
        "_nonkey_names",
        "_uncertain_names",
    )

    def __init__(self, name: str, attributes: Sequence[Attribute]):
        if not name or not isinstance(name, str):
            raise SchemaError(f"relation name must be a non-empty string, got {name!r}")
        attrs = tuple(attributes)
        if not attrs:
            raise SchemaError(f"relation {name!r} needs at least one attribute")
        by_name: dict[str, Attribute] = {}
        for attribute in attrs:
            if not isinstance(attribute, Attribute):
                raise SchemaError(f"expected Attribute, got {attribute!r}")
            if attribute.name in by_name:
                raise SchemaError(
                    f"duplicate attribute {attribute.name!r} in relation {name!r}"
                )
            by_name[attribute.name] = attribute
        if not any(attribute.key for attribute in attrs):
            raise SchemaError(f"relation {name!r} needs at least one key attribute")
        self._name = name
        self._attributes = attrs
        self._by_name = by_name
        # Schemas are immutable: derive the name views once, not on
        # every access from the per-tuple hot paths.
        self._names = tuple(by_name)
        self._name_set = frozenset(by_name)
        self._key_names = tuple(a.name for a in attrs if a.key)
        self._nonkey_names = tuple(a.name for a in attrs if not a.key)
        self._uncertain_names = tuple(a.name for a in attrs if a.uncertain)

    # -- accessors ---------------------------------------------------------

    @property
    def name(self) -> str:
        """The relation name."""
        return self._name

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """All attributes in declaration order."""
        return self._attributes

    @property
    def names(self) -> tuple[str, ...]:
        """All attribute names in declaration order."""
        return self._names

    @property
    def name_set(self) -> frozenset[str]:
        """All attribute names, as a set."""
        return self._name_set

    @property
    def key_names(self) -> tuple[str, ...]:
        """Names of the key attributes, in declaration order."""
        return self._key_names

    @property
    def nonkey_names(self) -> tuple[str, ...]:
        """Names of the non-key attributes, in declaration order."""
        return self._nonkey_names

    @property
    def uncertain_names(self) -> tuple[str, ...]:
        """Names of the attributes that may hold evidence sets."""
        return self._uncertain_names

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name; raises :class:`SchemaError`."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"relation {self._name!r} has no attribute {name!r} "
                f"(attributes: {', '.join(self.names)})"
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    # -- structural operations ----------------------------------------------

    def union_compatible(self, other: "RelationSchema") -> bool:
        """Footnote 5: same attribute set (names, domains, key designation).

        Attribute *order* does not matter, names and flags do.
        """
        if self._name_set != other._name_set:
            return False
        return all(
            self._by_name[name].compatible_with(other._by_name[name])
            for name in self.names
        )

    def require_union_compatible(self, other: "RelationSchema") -> None:
        """Raise :class:`SchemaError` unless union-compatible with *other*."""
        if not self.union_compatible(other):
            raise SchemaError(
                f"relations {self._name!r} and {other._name!r} are not "
                f"union-compatible ({self.names} vs {other.names})"
            )

    def project(self, names: Iterable[str], new_name: str | None = None) -> "RelationSchema":
        """The schema of a projection onto *names*.

        The paper's extended projection keeps the key attributes (and the
        tuple membership attribute, which is implicit here); dropping a
        key would destroy tuple identity, so it is rejected.
        """
        requested = list(names)
        seen: set[str] = set()
        for name in requested:
            if name in seen:
                raise SchemaError(f"attribute {name!r} listed twice in projection")
            seen.add(name)
            if name not in self._by_name:
                raise SchemaError(
                    f"cannot project unknown attribute {name!r} of {self._name!r}"
                )
        missing_keys = [key for key in self.key_names if key not in seen]
        if missing_keys:
            raise SchemaError(
                f"projection on {self._name!r} must retain key attribute(s) "
                f"{', '.join(missing_keys)}"
            )
        projected = [self._by_name[name] for name in requested]
        return RelationSchema(new_name or self._name, projected)

    def rename_attributes(
        self, mapping: Mapping[str, str], new_name: str | None = None
    ) -> "RelationSchema":
        """Rename attributes via ``{old: new}``; unknown names are errors."""
        for old in mapping:
            if old not in self._by_name:
                raise SchemaError(
                    f"cannot rename unknown attribute {old!r} of {self._name!r}"
                )
        renamed = [
            attribute.renamed(mapping.get(attribute.name, attribute.name))
            for attribute in self._attributes
        ]
        return RelationSchema(new_name or self._name, renamed)

    def concat(
        self, other: "RelationSchema", new_name: str | None = None
    ) -> "RelationSchema":
        """The schema of the cartesian product ``self x other``.

        Clashing attribute names are disambiguated with ``<relation>_``
        prefixes (both sides are prefixed, mirroring the usual dotted
        notation).  The product key is the union of both keys.
        """
        clashes = set(self.names) & set(other.names)

        def resolved(schema: RelationSchema, attribute: Attribute) -> Attribute:
            if attribute.name in clashes:
                return attribute.renamed(f"{schema.name}_{attribute.name}")
            return attribute

        left = [resolved(self, attribute) for attribute in self._attributes]
        right = [resolved(other, attribute) for attribute in other._attributes]
        name = new_name or f"{self._name}_x_{other._name}"
        try:
            return RelationSchema(name, left + right)
        except SchemaError as exc:
            raise SchemaError(
                f"cannot concatenate schemas {self._name!r} and {other._name!r}: {exc}"
            ) from exc

    def with_name(self, name: str) -> "RelationSchema":
        """A copy of the schema under a new relation name."""
        return RelationSchema(name, self._attributes)

    # -- plumbing -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return self._name == other._name and self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash((self._name, self._attributes))

    def __repr__(self) -> str:
        parts = []
        for attribute in self._attributes:
            marker = "*" if attribute.key else ""
            parts.append(f"{marker}{attribute.display_name}")
        return f"RelationSchema({self._name!r}: {', '.join(parts)})"
