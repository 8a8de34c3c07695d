"""Profiles: per-node query timings and per-batch flush breakdowns.

:class:`QueryProfile` is what :meth:`Session.explain_analyze` returns:
the optimized plan annotated node-by-node with wall time, exact
input/output row counts and the exact kernel combination count.  Row
and combination counts are deterministic; timings are wall-clock and
asserted by tests only as present/positive.

:class:`FlushProfile` is the optional per-batch breakdown a
:class:`~repro.stream.engine.StreamEngine` constructed with
``profile_batches=True`` attaches to each
:class:`~repro.stream.changelog.BatchDelta`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class NodeProfile:
    """One plan node's measured execution, children included."""

    label: str
    rows_in: tuple[int, ...]
    rows_out: int
    wall_seconds: float
    kernel_combinations: int
    children: tuple["NodeProfile", ...] = ()

    @property
    def total_rows_in(self) -> int:
        """The summed input row count over all inputs."""
        return sum(self.rows_in)

    def walk(self):
        """Yield this node then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def describe(self, indent: int = 0) -> str:
        """The annotated subtree, one indented line per node."""
        pad = "  " * indent
        rows_in = "+".join(str(n) for n in self.rows_in) or "0"
        parts = [
            f"{pad}{self.label}",
            f"rows={rows_in}->{self.rows_out}",
            f"time={self.wall_seconds * 1e3:.3f}ms",
        ]
        if self.kernel_combinations:
            parts.append(f"combine={self.kernel_combinations}")
        lines = ["  ".join(parts)]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def to_json(self) -> dict:
        """A JSON-serializable mapping of the annotated subtree."""
        return {
            "label": self.label,
            "rows_in": list(self.rows_in),
            "rows_out": self.rows_out,
            "wall_seconds": self.wall_seconds,
            "kernel_combinations": self.kernel_combinations,
            "children": [child.to_json() for child in self.children],
        }


@dataclass(frozen=True)
class QueryProfile:
    """The product of ``Session.explain_analyze``: plan + measurements."""

    query: str
    root: NodeProfile
    wall_seconds: float

    @property
    def rows(self) -> int:
        """The result row count (the root node's output)."""
        return self.root.rows_out

    def nodes(self) -> tuple[NodeProfile, ...]:
        """Every node profile, depth-first from the root."""
        return tuple(self.root.walk())

    def describe(self) -> str:
        """The full annotated plan as an indented text tree."""
        header = (
            f"EXPLAIN ANALYZE  {self.query}\n"
            f"total={self.wall_seconds * 1e3:.3f}ms "
            f"rows={self.rows}"
        )
        return header + "\n" + self.root.describe(indent=1)

    def to_json(self) -> dict:
        """A JSON-serializable mapping of the whole profile."""
        return {
            "query": self.query,
            "wall_seconds": self.wall_seconds,
            "rows": self.rows,
            "plan": self.root.to_json(),
        }


@dataclass(frozen=True)
class FlushProfile:
    """Per-batch breakdown of one ``StreamEngine.flush``."""

    events: int
    entities_refolded: int
    combinations: int
    refold_seconds: float
    materialize_seconds: float
    publish_seconds: float
    total_seconds: float
    sources: tuple[str, ...] = field(default=())

    def describe(self) -> str:
        """A one-line human summary of the flush breakdown."""
        return (
            f"flush: {self.events} event(s), "
            f"{self.entities_refolded} entit(y/ies) refolded, "
            f"{self.combinations} combination(s); "
            f"refold={self.refold_seconds * 1e3:.3f}ms "
            f"materialize={self.materialize_seconds * 1e3:.3f}ms "
            f"publish={self.publish_seconds * 1e3:.3f}ms "
            f"total={self.total_seconds * 1e3:.3f}ms"
        )

    def to_json(self) -> dict:
        """A JSON-serializable mapping of the breakdown."""
        return {
            "events": self.events,
            "entities_refolded": self.entities_refolded,
            "combinations": self.combinations,
            "refold_seconds": self.refold_seconds,
            "materialize_seconds": self.materialize_seconds,
            "publish_seconds": self.publish_seconds,
            "total_seconds": self.total_seconds,
            "sources": list(self.sources),
        }
