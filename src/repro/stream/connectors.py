"""Event connectors: JSONL encoding and replay of source streams.

One event per line, self-describing via ``op``:

.. code-block:: json

    {"op": "upsert", "source": "daily",
     "values": {"rname": "wok", "rating": "[gd^1/4, avg^3/4]"},
     "membership": ["1", "1"]}
    {"op": "retract", "source": "daily", "key": ["wok"]}
    {"op": "reliability", "source": "daily", "value": "4/5"}
    {"op": "flush"}

Evidence values use the paper's bracket notation (parsed by
:class:`repro.model.evidence.EvidenceSet`), numbers serialize exactly
(fractions as ``"1/3"`` strings), and memberships are ``[sn, sp]``
pairs -- the same conventions as :mod:`repro.storage.serialization`, so
event files are human-readable and round-trip losslessly.
"""

from __future__ import annotations

import json

from dataclasses import dataclass
from pathlib import Path

from repro.errors import StreamError
from repro.model.evidence import EvidenceSet
from repro.model.relation import ExtendedRelation
from repro.storage.serialization import (
    _atom_from_json,
    _atom_to_json,
    _number_from_json,
    _number_to_json,
)


@dataclass(frozen=True)
class UpsertEvent:
    """Assert (or re-assert) one tuple of a source."""

    source: str
    values: dict
    membership: tuple | None = None


@dataclass(frozen=True)
class RetractEvent:
    """Withdraw a source's assertion about one entity."""

    source: str
    key: tuple


@dataclass(frozen=True)
class ReliabilityEvent:
    """Change a source's reliability."""

    source: str
    reliability: object


@dataclass(frozen=True)
class FlushEvent:
    """Close the current micro-batch."""


Event = UpsertEvent | RetractEvent | ReliabilityEvent | FlushEvent


def event_to_json(event: Event) -> dict:
    """Serialize one event to a JSON-compatible document."""
    if isinstance(event, UpsertEvent):
        document: dict = {
            "op": "upsert",
            "source": event.source,
            "values": {
                name: _atom_to_json(value)
                for name, value in event.values.items()
            },
        }
        if event.membership is not None:
            sn, sp = event.membership
            document["membership"] = [_number_to_json(sn), _number_to_json(sp)]
        return document
    if isinstance(event, RetractEvent):
        return {
            "op": "retract",
            "source": event.source,
            "key": [_atom_to_json(part) for part in event.key],
        }
    if isinstance(event, ReliabilityEvent):
        return {
            "op": "reliability",
            "source": event.source,
            "value": _number_to_json(event.reliability),
        }
    if isinstance(event, FlushEvent):
        return {"op": "flush"}
    raise StreamError(f"cannot serialize event {event!r}")


def event_from_json(document: dict) -> Event:
    """Deserialize one event document."""
    if not isinstance(document, dict):
        raise StreamError(f"event must be a JSON object, got {document!r}")
    op = document.get("op")
    try:
        if op == "upsert":
            membership = document.get("membership")
            if membership is not None:
                sn, sp = membership
                membership = (_number_from_json(sn), _number_from_json(sp))
            return UpsertEvent(
                source=document["source"],
                values={
                    name: _atom_from_json(value)
                    for name, value in document["values"].items()
                },
                membership=membership,
            )
        if op == "retract":
            return RetractEvent(
                source=document["source"],
                key=tuple(
                    _atom_from_json(part) for part in document["key"]
                ),
            )
        if op == "reliability":
            return ReliabilityEvent(
                source=document["source"],
                reliability=_number_from_json(document["value"]),
            )
        if op == "flush":
            return FlushEvent()
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StreamError(f"malformed {op!r} event: {exc}") from exc
    raise StreamError(f"unknown event op {op!r}")


def write_events(events, path) -> int:
    """Write events as JSONL; returns the number of lines written."""
    lines = [json.dumps(event_to_json(event)) for event in events]
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
