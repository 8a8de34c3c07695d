"""Host-normalized timing: wall time scaled by a measured host speed.

On a shared host the same pure-Python loop can take 1.2 ms in one
second and 2.0 ms in the next, so raw wall-clock numbers from two runs
of identical code disagree by far more than any regression worth
catching.  The slowdown hits every interpreted loop alike, so the
benchmark measures it: between timed segments it runs a fixed
reference loop (its own code, never the program's) and scales each
segment's wall time by the reference loop's speed around it.

A normalized second is a wall second on a host where the reference loop
takes exactly :data:`REF_NOMINAL_S`; the constant is close to this
loop's time on a quiet 2-core Xeon host, so normalized figures read
like wall figures there.  Raw wall seconds stay available for
diagnostics.
"""

from __future__ import annotations

import gc
import time

from dataclasses import dataclass
from fractions import Fraction

#: Nominal duration of one :func:`reference_loop` call, in seconds.
REF_NOMINAL_S = 0.0012

_REF_MEMBERS = frozenset(range(0, 16, 3))


def reference_loop() -> int:
    """A fixed mix of dict, tuple, frozenset, int, float and Fraction
    work, roughly the instruction mix of the evidence code."""
    table: dict = {}
    total = 0
    for i in range(1200):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        members = frozenset((i & 15, i & 3, i % 5))
        total += len(members & _REF_MEMBERS) + ((i * 31) >> 3) % 11
    scaled = 0.0
    for value in table.values():
        scaled += value * 0.5
    harmonic = Fraction(0)
    for i in range(1, 40):
        harmonic += Fraction(1, i)
    return total + int(scaled) + harmonic.numerator % 97


@dataclass(frozen=True)
class Segment:
    """One timed stretch of work between reference measurements."""

    kind: str
    raw_s: float
    ref_index: int
    group: int


class HostClock:
    """Times segments of work and normalizes them by host speed.

    A reference measurement precedes every segment, and the segment's
    host speed is the mean of the measurements just before and just
    after it, so :meth:`close` (one final measurement) must run before
    reading normalized values.  The host's speed drifts within tens of
    milliseconds, so a measurement further away tracks it worse.
    """

    def __init__(self):
        self.refs: list[float] = []
        self.segments: list[Segment] = []
        self._closed = False
        self._checksum = None

    def reference(self) -> None:
        """Measure the host speed now.

        The cyclic garbage collector is off while the loop runs: a
        collection triggered by the loop's allocations would walk the
        program's heap and time its size, not the host.  The loop frees
        everything it allocates, so the program's collection schedule
        is unchanged.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            checksum = reference_loop()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        if self._checksum is None:
            self._checksum = checksum
        elif checksum != self._checksum:
            raise RuntimeError("reference loop is not deterministic")
        self.refs.append(end - start)

    def run(self, kind: str, fn, group: int = 0):
        """Run *fn* as one timed segment and return its result."""
        self.reference()
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        self.segments.append(Segment(kind, raw, len(self.refs) - 1, group))
        return result

    def close(self) -> None:
        """Take the final reference measurement (idempotent)."""
        if not self._closed:
            self.reference()
            self._closed = True

    def factor(self, segment: Segment) -> float:
        """Scale from *segment*'s wall seconds to normalized seconds."""
        before = self.refs[segment.ref_index]
        after = self.refs[segment.ref_index + 1]
        return REF_NOMINAL_S / ((before + after) / 2)

    def normalized(self, segment: Segment) -> float:
        """*segment*'s duration in host-normalized seconds."""
        return segment.raw_s * self.factor(segment)

    def of_kind(self, kind: str) -> list[Segment]:
        """The segments of one kind, in run order."""
        return [segment for segment in self.segments if segment.kind == kind]
