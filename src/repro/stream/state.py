"""Resident merge state for incremental integration.

The streaming engine exploits the associativity/commutativity of
Dempster's rule: the integrated value of an entity is the fold of the
(discounted) evidence its sources currently supply, so

* a **new** source arrival for an entity costs exactly one
  :meth:`~repro.integration.merging.TupleMerger.merge_pair` call against
  the cached combined tuple -- no relation-level re-merge;
* an **overwrite** or **retraction** invalidates only that one entity,
  which is re-folded from its surviving per-source contributions at the
  next flush (Dempster's rule has no general inverse, so exact
  retraction means re-folding the survivors -- still O(sources-of-one-
  entity), never O(relation)).

:class:`MergeState` is the container (one :class:`EntityState` per
entity key); :class:`Contribution` caches each source's tuple both raw
and discounted at the reliability it was discounted with, so reliability
updates can re-discount lazily.

The cached tuples hold their evidence in compiled kernel form
(:mod:`repro.ds.kernel`) for enumerated domains: `combined` is the
output of kernel combinations (still compiled), and discounting
preserves compilation, so the per-arrival fast path runs entirely on
bitmask evidence without re-interning anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.integration.merging import MergeReport, TupleMerger
from repro.model.etuple import ExtendedTuple


@dataclass
class Contribution:
    """One source's current evidence about one entity."""

    raw: ExtendedTuple
    discounted: ExtendedTuple
    reliability: object


class EntityState:
    """The merge state of a single real-world entity.

    ``combined`` caches the fold of all contributions; ``dirty`` marks
    it stale (overwrite, retraction or reliability change), and
    ``conflicted`` records that the last fold hit a total conflict whose
    policy dropped the entity from the integrated relation.
    ``fold_conflicts`` holds the :class:`ConflictRecord`\\ s observed by
    the entity's *current* fold: a fast-path combination appends, a
    refold replaces the whole list.  A batch delta reports them for
    every entity the batch touched, so a still-conflicting entity
    re-reports identically whether the batch extended its fold or
    re-folded it -- the changelog does not depend on arrival order.
    """

    __slots__ = (
        "key",
        "contributions",
        "combined",
        "dirty",
        "conflicted",
        "fold_conflicts",
    )

    def __init__(self, key: tuple):
        self.key = key
        self.contributions: dict[str, Contribution] = {}
        self.combined: ExtendedTuple | None = None
        self.dirty = False
        self.conflicted = False
        self.fold_conflicts: list = []

    def parts(self, order) -> list[ExtendedTuple]:
        """The discounted contributions in source-registration *order*.

        Contributions discounted to ``sn = 0`` are skipped: a fully
        discounted source supplies no support, exactly as the batch
        pipeline drops such tuples before matching (CWA_ER).
        """
        selected = []
        for source in order:
            contribution = self.contributions.get(source)
            if contribution is None:
                continue
            if not contribution.discounted.membership.is_supported:
                continue
            selected.append(contribution.discounted)
        return selected

    def refold(self, merger: TupleMerger, schema, order) -> int:
        """Recombine this entity from scratch; returns combinations used.

        State flags are only updated after the merge *returns*: when the
        merger's ``raise`` policy propagates a
        :class:`~repro.errors.TotalConflictError` mid-fold, the entity
        stays ``dirty`` (so a later flush retries instead of silently
        publishing the stale cached fold) and its conflict records are
        untouched.
        """
        parts = self.parts(order)
        if not parts:
            self.combined, self.conflicted, self.fold_conflicts = None, False, []
            self.dirty = False
            return 0
        report = MergeReport()
        merged = merger.merge_entity(parts, schema, report)
        self.combined = merged
        self.conflicted = merged is None
        self.fold_conflicts = list(report.conflicts)
        self.dirty = False
        return len(parts) - 1

    def __repr__(self) -> str:
        state = "conflicted" if self.conflicted else (
            "dirty" if self.dirty else "clean"
        )
        return (
            f"EntityState({self.key!r}, {len(self.contributions)} "
            f"contribution(s), {state})"
        )


class MergeState:
    """All entity states, indexed by entity key."""

    def __init__(self):
        self.entities: dict[tuple, EntityState] = {}

    def entity(self, key: tuple) -> EntityState:
        """The state for *key*, created on first use."""
        state = self.entities.get(key)
        if state is None:
            state = EntityState(key)
            self.entities[key] = state
        return state

    def get(self, key: tuple) -> EntityState | None:
        """The state for *key*, or ``None``."""
        return self.entities.get(key)

    def discard_if_empty(self, key: tuple) -> None:
        """Drop the entity once no source supports it any more."""
        state = self.entities.get(key)
        if state is not None and not state.contributions:
            del self.entities[key]

    def __len__(self) -> int:
        return len(self.entities)

    def __iter__(self):
        return iter(self.entities.values())

    def __repr__(self) -> str:
        dirty = sum(1 for entity in self if entity.dirty)
        return f"MergeState({len(self)} entities, {dirty} dirty)"
