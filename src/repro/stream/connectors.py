"""Event connectors: JSONL event files and their replay.

One event per line, self-describing via ``op``:

.. code-block:: json

    {"op": "upsert", "source": "daily",
     "values": {"rname": "wok", "rating": "[gd^1/4, avg^3/4]"},
     "membership": ["1", "1"]}
    {"op": "retract", "source": "daily", "key": ["wok"]}
    {"op": "reliability", "source": "daily", "value": "4/5"}
    {"op": "flush"}

The events and their JSON encoding live in
:mod:`repro.storage.serialization`, the one codec stored rows and the
log backend's write-ahead records use too: an upsert's ``values`` are
encoded exactly as a stored row's, so an upsert carrying
:class:`~repro.model.evidence.EvidenceSet` values or exact scalars reads
back equal in value and type.  A value may also be bracket-notation
text (``"[gd^1/4, avg^3/4]"``), which the engine parses against the
attribute's domain; :func:`relation_to_events` writes that form, which
is display text and does not round-trip float masses (see there).
"""

from __future__ import annotations

import json

from dataclasses import dataclass
from pathlib import Path

from repro.errors import StreamError
from repro.model.evidence import EvidenceSet
from repro.model.relation import ExtendedRelation
from repro.storage.serialization import (
    Event,
    FlushEvent,
    ReliabilityEvent,
    RetractEvent,
    UpsertEvent,
    event_from_json,
    event_to_json,
)


def write_events(events, path) -> int:
    """Write events as JSONL; returns the number of lines written."""
    try:
        lines = [json.dumps(event_to_json(event)) for event in events]
    except (TypeError, ValueError) as exc:
        raise StreamError(f"cannot encode event: {exc}") from exc
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def read_events(path):
    """Iterate the events of a JSONL file (blank lines skipped)."""
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                document = json.loads(text)
            except json.JSONDecodeError as exc:
                raise StreamError(
                    f"{path}:{line_number}: not valid JSON: {exc}"
                ) from exc
            try:
                yield event_from_json(document)
            except StreamError as exc:
                raise StreamError(f"{path}:{line_number}: {exc}") from exc


def relation_to_events(relation: ExtendedRelation, source: str):
    """The upsert events that would rebuild *relation* from *source*.

    Handy for turning an existing table into a replayable stream:
    evidence sets render in bracket notation, keys as scalars.

    The notation is display text: :meth:`EvidenceSet.format` rounds
    float masses to 3 decimals, and those decimals parse back as exact
    fractions that need not sum to one, so float evidence does not
    survive the trip (exact evidence does).  Passing the
    :class:`EvidenceSet` itself through, which the event codec encodes
    losslessly, is the open step of making every re-parsed path
    lossless.  The output stays as it is until the stream path has
    headroom for it: a prototype raised the end-to-end ``stream``
    workload's accepted ratio from 0.78 to 1.0, but moved its p50
    latency from 13.1 to 15.0 ms (+14.5 %), its throughput from 3167 to
    2684 events/s and its stored bytes per row from 722 to 812 (seed
    4242, three alternating 10 s pairs on a 2-core host).
    """
    events = []
    for etuple in relation:
        values = {}
        for name, value in etuple.items():
            if isinstance(value, EvidenceSet):
                values[name] = (
                    value.definite_value()
                    if not relation.schema.attribute(name).uncertain
                    else value.format()
                )
            else:
                values[name] = value
        membership = (etuple.membership.sn, etuple.membership.sp)
        events.append(UpsertEvent(source, values, membership))
    return events


@dataclass
class ReplayReport:
    """What one :func:`replay` run applied (a StreamStats delta)."""

    upserts: int = 0
    retractions: int = 0
    reliability_updates: int = 0
    flushes: int = 0

    @property
    def events(self) -> int:
        """State-changing events applied (flushes counted separately)."""
        return self.upserts + self.retractions + self.reliability_updates

    def summary(self) -> str:
        """One-line digest."""
        return (
            f"{self.events} events ({self.upserts} upserts, "
            f"{self.retractions} retractions, "
            f"{self.reliability_updates} reliability updates), "
            f"{self.flushes} flushes"
        )


def apply_event(engine, event: Event) -> None:
    """Apply one decoded event to a :class:`StreamEngine`."""
    if isinstance(event, UpsertEvent):
        engine.upsert(event.source, event.values, event.membership)
    elif isinstance(event, RetractEvent):
        engine.retract(event.source, event.key)
    elif isinstance(event, ReliabilityEvent):
        engine.set_reliability(event.source, event.reliability)
    elif isinstance(event, FlushEvent):
        engine.flush()
    else:
        raise StreamError(f"cannot apply event {event!r}")


def replay(engine, events, flush_remainder: bool = True) -> ReplayReport:
    """Drive *events* through *engine*; flushes any tail by default.

    The report is the delta of the engine's own counters across the
    run -- one counting implementation, and auto-flushes (``batch_size``)
    are included in ``flushes``.
    """
    stats = engine.stats()
    before = (
        stats.upserts,
        stats.retractions,
        stats.reliability_updates,
        stats.flushes,
    )
    for event in events:
        apply_event(engine, event)
    if flush_remainder and (engine.pending_events or not len(engine.changelog)):
        engine.flush()
    return ReplayReport(
        upserts=stats.upserts - before[0],
        retractions=stats.retractions - before[1],
        reliability_updates=stats.reliability_updates - before[2],
        flushes=stats.flushes - before[3],
    )
