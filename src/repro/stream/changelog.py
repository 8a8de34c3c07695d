"""Per-batch deltas of the streaming integration engine.

Every :meth:`~repro.stream.engine.StreamEngine.flush` closes one
micro-batch and emits a :class:`BatchDelta`: which entities the batch
inserted into, updated in, or removed from the integrated relation,
which hit a total conflict, and the
:class:`~repro.integration.merging.ConflictRecord`\\ s of the *current* folds
of every entity the batch touched (so a still-conflicting entity
re-reports on each touch, independent of arrival order).
The :class:`ChangeLog` accumulates them -- the administrator-facing
audit trail the paper asks for ("some actions may be necessary to
inform the data administrators ... about the conflict"), extended to
the continuous-ingestion regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BatchDelta:
    """The effect of one flushed micro-batch on the integrated relation.

    ``watermark`` is the sequence number of the last event folded into
    the published relation; everything at or below it is durable in the
    integrated view.
    """

    batch: int
    watermark: int
    events: int
    inserted: tuple
    updated: tuple
    removed: tuple
    conflicted: tuple
    conflicts: tuple = ()
    #: Optional :class:`repro.obs.profile.FlushProfile` timing breakdown,
    #: populated when the engine was built with ``profile_batches=True``.
    profile: object | None = None

    @property
    def changed(self) -> tuple:
        """Every key this batch touched in the published relation."""
        return self.inserted + self.updated + self.removed

    def is_empty(self) -> bool:
        """True when the batch changed nothing visible."""
        return not (self.inserted or self.updated or self.removed)

    def summary(self) -> str:
        """One-line digest for logs."""
        return (
            f"batch {self.batch} (watermark {self.watermark}): "
            f"{self.events} event(s), {len(self.inserted)} inserted, "
            f"{len(self.updated)} updated, {len(self.removed)} removed, "
            f"{len(self.conflicted)} conflicted"
        )


@dataclass
class ChangeLog:
    """The ordered record of flushed batches.

    ``max_batches`` bounds retention (oldest dropped first) so a
    long-running engine does not grow memory without limit; ``None``
    keeps everything.  :attr:`total_batches` and the watermark keep
    counting across trimmed history.
    """

    batches: list[BatchDelta] = field(default_factory=list)
    max_batches: int | None = None
    total_batches: int = 0

    def append(self, delta: BatchDelta) -> None:
        """Record one flushed batch, trimming past the retention cap."""
        self.batches.append(delta)
        self.total_batches += 1
        if self.max_batches is not None and len(self.batches) > self.max_batches:
            del self.batches[: len(self.batches) - self.max_batches]

    @property
    def last(self) -> BatchDelta | None:
        """The most recent batch, or ``None`` before the first flush."""
        return self.batches[-1] if self.batches else None

    @property
    def watermark(self) -> int:
        """Sequence number durably reflected in the published relation."""
        return self.batches[-1].watermark if self.batches else 0

    def tail(self, n: int) -> tuple:
        """The last *n* batches, oldest first."""
        return tuple(self.batches[-n:])

    def total_events(self) -> int:
        """Events across the retained batches."""
        return sum(delta.events for delta in self.batches)

    def total_conflicted(self) -> int:
        """Entities reported conflicted, summed over retained batches."""
        return sum(len(delta.conflicted) for delta in self.batches)

    def summary(self) -> str:
        """One line per batch."""
        return "\n".join(delta.summary() for delta in self.batches)

    def __len__(self) -> int:
        return len(self.batches)

    def __iter__(self):
        return iter(self.batches)

    def __repr__(self) -> str:
        return (
            f"ChangeLog({len(self.batches)}/{self.total_batches} batches "
            f"retained, watermark {self.watermark})"
        )
