"""Multi-source federation: integrating more than two databases.

The paper integrates two databases; :class:`Federation` integrates any
number by folding the pairwise merge over the sources in registration
order:

* sources register with a name, a relation and an optional reliability
  (discounted before merging, per :mod:`repro.ds.discounting`);
* :meth:`Federation.integrate` merges the first two sources, then merges
  each further source into the result so far, and accumulates every
  pairwise merge report into a combined digest;
* :meth:`Federation.integrate_entity` folds one entity's tuples in the
  same order, as the stream engine does, so a point query, the stream
  and the materialized integration agree bit for bit, on floats as well
  as in exact arithmetic.

Other fold orders would agree only in exact arithmetic on the
conflict-free path: on float masses Dempster's rule is not associative,
and neither is a total-conflict fallback.

Evidence over enumerated domains combines on the compact kernel
(:mod:`repro.ds.kernel`): each merge step's output carries its compiled
state into the next step, so an n-way integration compiles each
source's evidence once and runs every subsequent combination on
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
        """Fold the merger over all sources left to right (at least one
        source required).

        A key that a step drops (``on_conflict`` ``"drop"``, or
        ``"vacuous"`` on a certain attribute or the membership) is
        removed from every later source, so a source merged later cannot
        bring it back.  A :class:`TotalConflictError` raised mid-fold is
        re-raised with the sources merged so far (``'p+q'``) and the
        source being merged (``'r'``), so the administrator learns
        *which* sources were irreconcilable.  For every key the result
        equals :meth:`integrate_entity`.
        """
        if not self._sources:
            raise IntegrationError("a federation needs at least one source")
        report = FederationReport()
        (label, relation), *rest = [
            (
                source.name,
                source.relation
                if source.reliability == 1
                else _discount_relation(source.relation, source.reliability),
            )
            for source in self._sources
        ]
        if not rest:
            return relation.with_name(name), report
        dropped: set[tuple] = set()
        for source_name, incoming in rest:
            try:
                relation, step = self._merger.merge(
                    relation, _without(incoming, dropped), name=name
                )
            except TotalConflictError as exc:
                raise TotalConflictError(
                    f"{exc} (while merging source {source_name!r} "
                    f"into {label!r})"
                ) from exc
            report.steps.append((source_name, step))
            dropped.update(step.dropped)
            label = f"{label}+{source_name}"
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
        entity or the merger's ``on_conflict`` policy dropped it.  Both
        fold in registration order, so the result is identical to
        looking the key up in :meth:`integrate`, for any number of
        sources and on float masses too (verified by the test-suite).
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
