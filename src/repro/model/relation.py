"""Extended relations.

An extended relation is a set of extended tuples over one schema, indexed
by their definite keys.  Two invariants from Section 2.3 of the paper are
enforced:

* **CWA_ER** -- "the integrated database will store information about an
  entity iff there is some positive evidence to support its membership":
  every stored tuple must have ``sn > 0``.  The constructor either raises
  (``on_unsupported="raise"``, the default) or silently drops offending
  tuples (``on_unsupported="drop"``, which is how operation results
  materialize the CWA_ER reading that sn = 0 result tuples are simply
  not stored).  A third policy, ``"allow"``, admits sn = 0 tuples; it
  exists solely so the *hypothetical complement relations* of
  Section 3.6's boundedness property can be represented when verifying
  Theorem 1 -- such relations are not CWA_ER-conformant and are never
  produced by the algebra.
* **definite, unique keys** -- keys identify real-world entities, so two
  tuples with the same key cannot coexist in one relation.

Relations are immutable; "mutators" return new relations.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.errors import RelationError
from repro.model.etuple import ExtendedTuple
from repro.model.membership import CERTAIN
from repro.model.schema import RelationSchema

#: Accepted values for the CWA_ER enforcement policy.
UNSUPPORTED_POLICIES = ("raise", "drop", "allow")


class ExtendedRelation:
    """An immutable set of extended tuples with definite unique keys.

    >>> from repro.datasets.restaurants import table_ra
    >>> ra = table_ra()
    >>> len(ra)
    6
    >>> ra.get(("wok",)).evidence("speciality").format()
    '[si^1]'

    Every ``is``-selection scan reads the tested attribute's evidence
    column (:meth:`evidence_column`) and its index of focal masks
    (:meth:`focal_index`), built on the first scan and cached on the
    relation, so later scans of the same relation skip the per-tuple
    evidence lookup, compilation and scaling, and visit only the tuples
    that can answer.
    """

    __slots__ = ("_schema", "_index", "_policy", "_columns")

    def __init__(
        self,
        schema: RelationSchema,
        tuples: Iterable[ExtendedTuple] = (),
        on_unsupported: str = "raise",
    ):
        if on_unsupported not in UNSUPPORTED_POLICIES:
            raise RelationError(
                f"on_unsupported must be one of {UNSUPPORTED_POLICIES}, "
                f"got {on_unsupported!r}"
            )
        index: dict[tuple, ExtendedTuple] = {}
        for etuple in tuples:
            if not isinstance(etuple, ExtendedTuple):
                raise RelationError(f"expected ExtendedTuple, got {etuple!r}")
            if etuple.schema.names != schema.names:
                raise RelationError(
                    f"tuple schema {etuple.schema.name!r} does not match "
                    f"relation schema {schema.name!r}"
                )
            if not etuple.membership.is_supported and on_unsupported != "allow":
                if on_unsupported == "drop":
                    continue
                raise RelationError(
                    f"CWA_ER violation: tuple {etuple.key()!r} has sn = 0 "
                    "(use on_unsupported='drop' to filter such tuples)"
                )
            key = etuple.key()
            if key in index:
                raise RelationError(
                    f"duplicate key {key!r} in relation {schema.name!r}"
                )
            index[key] = etuple
        self._schema = schema
        self._index = index
        self._policy = on_unsupported
        self._columns: dict[str, tuple[tuple, dict]] = {}

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: RelationSchema,
        rows: Iterable[Mapping[str, object] | tuple],
        on_unsupported: str = "raise",
    ) -> "ExtendedRelation":
        """Build a relation from plain rows.

        Each row is either a values mapping (membership defaults to
        certain) or a ``(values, membership)`` pair where membership is a
        :class:`TupleMembership` or an ``(sn, sp)`` tuple.
        """
        tuples = []
        for row in rows:
            if isinstance(row, Mapping):
                tuples.append(ExtendedTuple(schema, row, CERTAIN))
            else:
                values, membership = row
                tuples.append(ExtendedTuple(schema, values, membership))
        return cls(schema, tuples, on_unsupported)

    # -- accessors ------------------------------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        """The relation schema."""
        return self._schema

    @property
    def name(self) -> str:
        """The relation name (from the schema)."""
        return self._schema.name

    def tuples(self) -> tuple[ExtendedTuple, ...]:
        """All tuples, in insertion order."""
        return tuple(self._index.values())

    def keys(self) -> tuple[tuple, ...]:
        """All tuple keys, in insertion order."""
        return tuple(self._index)

    def get(self, key: tuple, default: ExtendedTuple | None = None):
        """The tuple with the given key, or *default*."""
        if not isinstance(key, tuple):
            key = (key,)
        return self._index.get(key, default)

    def __contains__(self, key: object) -> bool:
        if not isinstance(key, tuple):
            key = (key,)
        return key in self._index

    def __iter__(self) -> Iterator[ExtendedTuple]:
        return iter(self._index.values())

    def __len__(self) -> int:
        return len(self._index)

    def evidence_column(self, attribute: str) -> tuple[tuple, ...]:
        """The kernel form of *attribute*'s evidence, one row per tuple
        in insertion order: the selection scan's input.

        A row is ``(etuple, compiled, masks, numerators, denominator)``:
        the tuple, its value's :class:`~repro.ds.kernel.CompiledMass`,
        the compiled focal masks, and -- for exact evidence -- the int
        numerators of the masses over their common denominator
        (:meth:`~repro.ds.kernel.CompiledMass.scaled`).  A float or
        mixed row has ``None`` for both, and its scan reads the
        ``CompiledMass``.

        Built on the first call for *attribute*, together with the
        column's :meth:`focal_index`, and cached on this relation; the
        relation is immutable, so neither ever goes stale, and a derived
        relation builds its own.  Two threads building the same column
        at once compute equal rows, and the last one stored wins.
        """
        return self._evidence_column(attribute)[0]

    def focal_index(self, attribute: str) -> dict:
        """Where each focal element of *attribute*'s evidence occurs:
        ``{interned table: {focal mask: ascending row positions}}`` over
        :meth:`evidence_column`.

        A tuple has ``Bel(S) > 0`` exactly when one of its focal masks
        is a submask of ``S``'s query mask on its table, so an ``is``-
        scan reads the rows of those masks alone: its cost is one mask
        test per distinct focal mask of each table plus the rows it
        can return, not the relation's size.  Built and cached with the
        column.
        """
        return self._evidence_column(attribute)[1]

    def _evidence_column(self, attribute: str) -> tuple[tuple, dict]:
        cached = self._columns.get(attribute)
        if cached is None:
            rows = []
            index: dict = {}
            for position, etuple in enumerate(self._index.values()):
                compiled = etuple.evidence(attribute).mass_function.compiled()
                scaled = compiled.scaled()
                if scaled is None:
                    rows.append((etuple, compiled, compiled.masks, None, None))
                else:
                    rows.append((etuple, compiled, compiled.masks, *scaled))
                by_mask = index.setdefault(compiled.interned, {})
                for mask in compiled.masks:
                    by_mask.setdefault(mask, []).append(position)
            cached = self._columns[attribute] = (tuple(rows), index)
        return cached

    # -- derivations --------------------------------------------------------------------

    def with_name(self, name: str) -> "ExtendedRelation":
        """The same relation under a different name (policy preserved)."""
        renamed_schema = self._schema.with_name(name)
        tuples = [
            ExtendedTuple(
                renamed_schema,
                dict(etuple.items()),
                etuple.membership,
            )
            for etuple in self
        ]
        return ExtendedRelation(renamed_schema, tuples, self._policy)

    def add(self, etuple: ExtendedTuple) -> "ExtendedRelation":
        """A new relation with *etuple* inserted."""
        return ExtendedRelation(
            self._schema, list(self.tuples()) + [etuple], self._policy
        )

    def filter(self, predicate) -> "ExtendedRelation":
        """A new relation keeping tuples where ``predicate(tuple)`` holds.

        This is plain Python filtering for tooling purposes -- the
        *evidential* selection lives in :func:`repro.algebra.select`.
        """
        return ExtendedRelation(
            self._schema, [t for t in self if predicate(t)], on_unsupported="drop"
        )

    def map_tuples(self, transform) -> "ExtendedRelation":
        """A new relation with every tuple passed through *transform*."""
        return ExtendedRelation(
            self._schema, [transform(t) for t in self], self._policy
        )

    def to_float(self) -> "ExtendedRelation":
        """A copy with float masses and membership (for benchmarks)."""

        def convert(etuple: ExtendedTuple) -> ExtendedTuple:
            values = {}
            for name, value in etuple.items():
                values[name] = value.to_float() if hasattr(value, "to_float") else value
            return ExtendedTuple(
                self._schema, values, etuple.membership.to_float()
            )

        return ExtendedRelation(
            self._schema, [convert(t) for t in self], self._policy
        )

    # -- comparisons ----------------------------------------------------------------------

    def same_tuples(self, other: "ExtendedRelation") -> bool:
        """Key-wise exact equality of contents (ignores relation names)."""
        if set(self._index) != set(other._index):
            return False
        return all(
            self._index[key] == other._index[key] for key in self._index
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtendedRelation):
            return NotImplemented
        return self._schema == other._schema and self.same_tuples(other)

    def __hash__(self) -> int:
        return hash((self._schema, frozenset(self._index.items())))

    def __repr__(self) -> str:
        return (
            f"ExtendedRelation({self._schema.name!r}, {len(self._index)} tuples)"
        )
