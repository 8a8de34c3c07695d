"""Multi-source federation: integrating more than two databases.

The paper integrates two databases, but its machinery is n-ary by
construction: Dempster's rule is associative and commutative, so folding
the pairwise merge over any number of sources yields an
order-independent result (the test-suite verifies all permutations
agree).  :class:`Federation` packages that fold:

* sources register with a name, a relation and an optional reliability
  (discounted before merging, per :mod:`repro.ds.discounting`);
* :meth:`Federation.integrate` folds the merger as a balanced tree --
  adjacent sources pair up, then the halves pair up, and so on -- and
  accumulates every pairwise merge report into a combined digest.  The
  tree fold keeps intermediate relations small (each merge combines
  results of similar depth rather than dragging one ever-growing
  accumulator through every step); by associativity the result equals
  the left-to-right fold on the conflict-free path, which the
  permutation tests verify.

Evidence over enumerated domains combines on the compact kernel
(:mod:`repro.ds.kernel`): each merge step's output carries its compiled
state into the next layer of the tree, so an n-way integration compiles
each source's evidence once and runs every subsequent combination on
bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IntegrationError, TotalConflictError
from repro.model.relation import ExtendedRelation
from repro.integration.merging import MergeReport, TupleMerger
from repro.integration.pipeline import (
    _discount_relation,
    coerce_reliability,
    discount_tuple,
)


@dataclass(frozen=True)
class FederationSource:
    """One registered source."""

    name: str
    relation: ExtendedRelation
    reliability: object = 1


@dataclass
class FederationReport:
    """Accumulated digest of an n-way integration."""

    steps: list[tuple[str, MergeReport]] = field(default_factory=list)

    @property
    def total_conflicts(self) -> int:
        """Irreconcilable conflicts across all merge steps."""
        return sum(len(report.total_conflicts) for _, report in self.steps)

    def summary(self) -> str:
        """One line per merge step."""
        return "\n".join(
            f"(+) {name}: {report.summary()}" for name, report in self.steps
        )


def _without(relation: ExtendedRelation, keys: set) -> ExtendedRelation:
    """*relation* without the tuples whose key is in *keys*."""
    if any(key in relation for key in keys):
        return relation.filter(lambda etuple: etuple.key() not in keys)
    return relation


def _tree_fold(
    merger: TupleMerger, layer: list, name: str
) -> tuple[ExtendedRelation, list[tuple[str, MergeReport]]]:
    """Balanced-tree fold of ``(label, relation)`` pairs (>= 2 entries).

    Returns the merged relation and the per-step reports; a mid-fold
    :class:`TotalConflictError` is re-raised with the operand labels.
    An entity that a step drops (``on_conflict`` ``"drop"``, or
    ``"vacuous"`` on a certain attribute or the membership) leaves
    every later step's operands too, so a source merged later cannot
    bring it back: the result agrees with :meth:`Federation.integrate_entity`
    and the stream engine, which drop it for good.
    """
    steps: list[tuple[str, MergeReport]] = []
    dropped: set[tuple] = set()
    while len(layer) > 1:
        if dropped:
            layer = [(label, _without(relation, dropped)) for label, relation in layer]
        merged_layer = []
        for i in range(0, len(layer) - 1, 2):
            left_label, left_relation = layer[i]
            right_label, right_relation = layer[i + 1]
            try:
                merged, step_report = merger.merge(
                    left_relation, right_relation, name=name
                )
            except TotalConflictError as exc:
                raise TotalConflictError(
                    f"{exc} (while merging source(s) {left_label!r} "
                    f"with {right_label!r})"
                ) from exc
            steps.append((right_label, step_report))
            dropped.update(step_report.dropped)
            merged_layer.append((f"{left_label}+{right_label}", merged))
        if len(layer) % 2:
            merged_layer.append(layer[-1])
        layer = merged_layer
    return layer[0][1], steps


class Federation:
    """An n-way integration over union-compatible sources.

    >>> from repro.datasets.restaurants import table_ra, table_rb
    >>> federation = Federation()
    >>> federation.add_source("daily", table_ra())
    >>> federation.add_source("tribune", table_rb())
    >>> integrated, report = federation.integrate(name="R")
    >>> len(integrated)
    6
    """

    def __init__(self, merger: TupleMerger | None = None):
        self._merger = merger if merger is not None else TupleMerger()
        self._sources: list[FederationSource] = []

    @property
    def sources(self) -> tuple[FederationSource, ...]:
        """The registered sources, in registration order."""
        return tuple(self._sources)

    def add_source(
        self,
        name: str,
        relation: ExtendedRelation,
        reliability: object = 1,
    ) -> None:
        """Register a source; *reliability* in [0, 1] discounts it."""
        if any(source.name == name for source in self._sources):
            raise IntegrationError(f"duplicate source name {name!r}")
        self._sources.append(
            FederationSource(name, relation, coerce_reliability(reliability))
        )

    def integrate(
        self, name: str = "federated"
    ) -> tuple[ExtendedRelation, FederationReport]:
        """Tree-fold the merger over all sources (at least one required).

        A :class:`TotalConflictError` raised mid-fold is re-raised with
        the labels of the two operands being merged, so the
        administrator learns *which* sources (or merged groups of
        sources) were irreconcilable.
        """
        if not self._sources:
            raise IntegrationError("a federation needs at least one source")
        report = FederationReport()
        layer = [
            (
                source.name,
                source.relation
                if source.reliability == 1
                else _discount_relation(source.relation, source.reliability),
            )
            for source in self._sources
        ]
        if len(layer) == 1:
            return layer[0][1].with_name(name), report
        relation, steps = _tree_fold(self._merger, layer, name)
        report.steps.extend(steps)
        return relation, report

    def integrate_entity(self, key: tuple, name: str = "federated"):
        """Merge only the tuples with the given *key*, on demand.

        This is the seed of the paper's "ongoing research" direction --
        combining query processing with conflict resolution: a federated
        *point query* need not materialize the whole integrated relation,
        only the one entity's evidence.  Each source's tuple is
        discounted by its reliability (:func:`discount_tuple`) and the
        tuples are folded left to right with
        :meth:`TupleMerger.merge_entity`, the streaming engine's refold
        path.  Returns the merged :class:`ExtendedTuple` under the
        schema named *name*, or ``None`` when no source supports the
        entity or the merger's ``on_conflict`` policy dropped it.  On the
        conflict-free path the result is identical to looking the key up
        in the fully materialized integration (verified by the
        test-suite).
        """
        if not self._sources:
            raise IntegrationError("a federation needs at least one source")
        if not isinstance(key, tuple):
            key = (key,)
        parts = []
        for source in self._sources:
            etuple = source.relation.get(key)
            if etuple is None:
                continue
            if source.reliability != 1:
                etuple = discount_tuple(
                    etuple, source.relation.schema, source.reliability
                )
            if etuple.membership.is_supported:
                # A tuple discounted to sn = 0 supplies no support; the
                # batch fold drops it too (CWA_ER).
                parts.append(etuple)
        if not parts:
            return None
        schema = parts[0].schema.with_name(name)
        for etuple in parts[1:]:
            schema.require_union_compatible(etuple.schema)
        return self._merger.merge_entity(parts, schema)

    def integrate_entities(
        self, keys, name: str = "federated"
    ) -> list:
        """Batch point queries: :meth:`integrate_entity` for many keys.

        Returns one entry per input key, in input order; each entry is
        exactly what :meth:`integrate_entity` returns for that key (the
        merged tuple, or ``None``).
        """
        if not self._sources:
            raise IntegrationError("a federation needs at least one source")
        return [self.integrate_entity(key, name=name) for key in keys]
