"""Executors: how partitioned physical work is fanned out.

The integration semantics of the paper are per-entity -- Dempster
merges, selection revision, union/intersection all decompose over
definite keys -- so the physical layer phrases its work as independent
*partition tasks*.  Every fan-out goes through one dispatch,
:meth:`Executor.map` ``(fn, common, items)``, which returns
``[fn(common, item) for item in items]``: *fn* is a module-level
function and ``common``/*items* pickle.  Two executors run it:

* :class:`SerialExecutor` (the default) runs the batch inline, in
  order.  Results and pair order are bit-for-bit identical to the
  historical single-loop code paths.
* :class:`ProcessExecutor` ships the batch to the persistent warm
  ``fork`` pool (:mod:`repro.exec.warmpool`): ``common`` is pickled once
  per batch, items travel in at most ``workers`` contiguous chunks, and
  results come back in item order.  A payload that does not pickle, a
  dead pool or a platform without ``fork`` runs the batch inline
  instead (counted by ``exec.warmpool.fallbacks``).

The active executor is process-global, chosen via :func:`configure` or
the ``REPRO_EXECUTOR`` / ``REPRO_WORKERS`` / ``REPRO_PARTITIONS``
environment variables, and read by every partition-aware call site
through :func:`get_executor` / :func:`partition_count`.  Nested fan-out
(a partition task that itself reaches a partition-aware operation) runs
inline: the outer fan-out already owns the workers.

Whatever the executor and partition count, every partition-aware code
path reassembles results so they *equal the serial result exactly* --
same tuples, same exact Fractions, bit-for-bit identical floats (the
property tests in ``tests/exec`` assert this).
"""

from __future__ import annotations

import os
import threading

from contextlib import contextmanager
from dataclasses import asdict, dataclass

from repro.counters import ThreadLocalCounters
from repro.errors import ConfigError, ExecutionError
from repro.obs import tracing
from repro.obs.registry import registry as _metrics_registry

#: Accepted executor kinds.
EXECUTOR_KINDS = ("serial", "process")

#: Executor tiers that no longer exist.  Naming one is a configuration
#: error that says so, rather than an "unknown kind" puzzle.
_REMOVED_KINDS = ("thread", "auto", "remote")

#: Environment variables of removed features (the remote tier and the
#: switch back to fork-per-batch).  A non-empty value fails loudly:
#: silently ignoring it would run a different setup than the operator
#: asked for.
_REMOVED_ENV = (
    "REPRO_WORKERS_ADDRS",
    "REPRO_REMOTE_THRESHOLD",
    "REPRO_REMOTE_LOCALITY",
    "REPRO_WARM_POOL",
)


@dataclass
class ExecStats:
    """A point-in-time snapshot of physical fan-out activity.

    ``parallel_batches`` counts :meth:`Executor.map` calls that ran on
    pool workers; ``inline_batches`` those that ran inline (serial
    executor, single item, nested inside another task, or a pool
    fallback); ``tasks`` the items executed through fan-out.  The live
    counters are :data:`STATS` (a :class:`LiveExecStats`).
    """

    parallel_batches: int = 0
    inline_batches: int = 0
    tasks: int = 0

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"exec: {self.parallel_batches} parallel batch(es) "
            f"({self.tasks} task(s)), {self.inline_batches} inline"
        )


class LiveExecStats:
    """The process-wide counters, safe to bump from any driver thread.

    Increments go through :class:`~repro.counters.ThreadLocalCounters`
    so counts observed after a batch returns are exact even when
    several threads drive the physical layer at once.
    """

    _FIELDS = ("parallel_batches", "inline_batches", "tasks")

    def __init__(self):
        self._counters = ThreadLocalCounters(self._FIELDS)

    @property
    def parallel_batches(self) -> int:
        return self._counters.total("parallel_batches")

    @property
    def inline_batches(self) -> int:
        return self._counters.total("inline_batches")

    @property
    def tasks(self) -> int:
        return self._counters.total("tasks")

    def bump(self, field: str, amount: int = 1) -> None:
        """Add *amount* to *field* (lock-free; callable from any thread)."""
        self._counters.bump(field, amount)

    def snapshot(self) -> ExecStats:
        """A consistent :class:`ExecStats` copy of the counters."""
        return ExecStats(**self._counters.totals())

    def reset(self) -> None:
        """Zero the counters in place (the object identity is shared)."""
        self._counters.reset()

    def summary(self) -> str:
        """One-line human-readable digest."""
        return self.snapshot().summary()


#: The shared counter object; mutate via :meth:`LiveExecStats.bump` /
#: :meth:`LiveExecStats.reset`, never rebind (modules hold direct
#: references).
STATS = LiveExecStats()

# Surface the fan-out counters on the process-wide metrics registry
# (``exec.*`` names) behind the existing snapshot API.
_metrics_registry().register_source(
    "exec", lambda: asdict(STATS.snapshot()), STATS.reset
)


def exec_stats() -> ExecStats:
    """The process-wide :data:`STATS` object (live, not a copy)."""
    return STATS


# -- nested-task guard --------------------------------------------------------

_LOCAL = threading.local()


def _task_depth() -> int:
    return getattr(_LOCAL, "depth", 0)


@contextmanager
def _inside_task():
    _LOCAL.depth = _task_depth() + 1
    try:
        yield
    finally:
        _LOCAL.depth -= 1


# -- executors ----------------------------------------------------------------


class Executor:
    """Runs a batch of independent partition tasks, preserving order."""

    kind = "?"

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ExecutionError(f"workers must be >= 1, got {workers!r}")
        self.workers = int(workers)

    def map(self, fn, common, items) -> list:
        """``[fn(common, item) for item in items]``, possibly in parallel.

        *fn* must be a module-level function and ``common``/*items* must
        pickle.  Results come back in item order; the first task
        exception propagates.  Batches of one item, batches issued from
        inside another task (nested fan-out) and batches the pool
        declines run inline.  This is the one place that emits the
        ``exec.map`` span and bumps the ``exec.*`` batch counters.
        """
        items = list(items)
        if len(items) > 1 and self.workers > 1 and _task_depth() == 0:
            with tracing.span("exec.map", kind=self.kind, tasks=len(items)):
                results = self._fan_out(fn, common, items)
            if results is not None:
                STATS.bump("parallel_batches")
                STATS.bump("tasks", len(items))
                return results
        STATS.bump("inline_batches")
        return [fn(common, item) for item in items]

    def _fan_out(self, fn, common, items: list) -> list | None:
        """Run a multi-item batch on workers; ``None`` runs it inline."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.workers} worker(s))"


class SerialExecutor(Executor):
    """Inline execution: the historical single-loop behavior."""

    kind = "serial"

    def __init__(self):
        super().__init__(workers=1)


class ProcessExecutor(Executor):
    """Fan batches out over the warm persistent process pool.

    The pool (:mod:`repro.exec.warmpool`) is process-global and
    outlives any one executor, so the fork is paid once per worker
    count change, not per batch.
    """

    kind = "process"

    def _fan_out(self, fn, common, items):
        from repro.exec import warmpool

        pool = warmpool.get_pool(self.workers)
        if pool is None:
            return None
        return pool.submit_batch(fn, common, items)


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class ExecConfig:
    """The active physical-execution configuration.

    ``partitions`` of ``None`` means "one partition per worker" --
    which, for the serial executor, means no partitioning at all, i.e.
    the exact historical code paths.
    """

    kind: str = "serial"
    workers: int = 1
    partitions: int | None = None

    def effective_partitions(self) -> int:
        """The partition count partition-aware call sites fan out to."""
        if self.partitions is not None:
            return self.partitions
        return self.workers if self.kind != "serial" else 1

    def describe(self) -> str:
        """One-line human-readable rendering (for ``:stats`` and CLIs)."""
        return (
            f"executor: {self.kind}, {self.workers} worker(s), "
            f"{self.effective_partitions()} partition(s)"
        )


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"{name} must be an integer, got {raw!r}"
        ) from None


def _checked_kind(kind: str, source: str) -> str:
    """*kind* if it is an accepted executor kind, else a ConfigError."""
    if kind in _REMOVED_KINDS:
        raise ConfigError(
            f"{source}: the {kind!r} executor tier was removed; "
            f"use one of {EXECUTOR_KINDS}"
        )
    if kind not in EXECUTOR_KINDS:
        raise ConfigError(
            f"{source} must be one of {EXECUTOR_KINDS}, got {kind!r}"
        )
    return kind


def _default_workers(kind: str) -> int:
    """One worker for serial, the CPU count for the process pool."""
    return 1 if kind == "serial" else os.cpu_count() or 1


def _config_from_env() -> ExecConfig:
    for name in _REMOVED_ENV:
        if os.environ.get(name, "").strip():
            raise ConfigError(
                f"{name} configures a removed executor feature; unset it "
                f"(executor kinds: {EXECUTOR_KINDS})"
            )
    kind = _checked_kind(
        os.environ.get("REPRO_EXECUTOR", "serial").strip().lower(),
        "REPRO_EXECUTOR",
    )
    workers = _env_int("REPRO_WORKERS")
    if workers is None or workers <= 0:
        workers = _default_workers(kind)
    return ExecConfig(kind, workers, _env_int("REPRO_PARTITIONS"))


#: Resolved lazily on first use, not at import: a malformed REPRO_*
#: variable must surface as a clean ConfigError inside whatever entry
#: point runs (the CLI turns ReproErrors into exit 1), never as a
#: traceback that makes the package unimportable.
_config: ExecConfig | None = None
_executor: Executor | None = None


def _current() -> ExecConfig:
    global _config
    if _config is None:
        _config = _config_from_env()
    return _config


def configure(
    executor: str | None = None,
    workers: int | None = None,
    partitions: int | None = None,
) -> ExecConfig:
    """Choose the process-global executor and partitioning.

    >>> configure(executor="process", workers=4).describe()
    'executor: process, 4 worker(s), 4 partition(s)'
    >>> configure(executor="serial", workers=1, partitions=None).kind
    'serial'

    Omitted arguments keep their current value, except that switching
    *executor* without *workers* picks a sensible default (1 for serial,
    the CPU count otherwise).  ``partitions=None`` restores the
    one-partition-per-worker default.  Returns the new configuration.
    """
    global _config, _executor
    current = _current()
    kind = current.kind
    if executor is not None:
        kind = _checked_kind(str(executor).strip().lower(), "executor")
    if workers is None:
        workers = (
            current.workers if kind == current.kind else _default_workers(kind)
        )
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers!r}")
    if partitions is not None and partitions < 1:
        raise ConfigError(f"partitions must be >= 1, got {partitions!r}")
    _config = ExecConfig(kind, int(workers), partitions)
    _executor = None
    return _config


def current_config() -> ExecConfig:
    """The active :class:`ExecConfig` (immutable snapshot)."""
    return _current()


def get_executor() -> Executor:
    """The process-global executor for the current configuration."""
    global _executor
    if _executor is None:
        config = _current()
        _executor = (
            SerialExecutor()
            if config.kind == "serial"
            else ProcessExecutor(config.workers)
        )
    return _executor


def partition_count(size: int) -> int:
    """Partitions to use for a workload of *size* entities.

    1 (meaning: stay on the serial code path) when the configuration
    does not partition, the workload is too small to split, or the call
    is nested inside another partition task.
    """
    if size <= 1 or _task_depth() > 0:
        return 1
    return min(_current().effective_partitions(), size)


@contextmanager
def executor_scope(
    executor: str | None = None,
    workers: int | None = None,
    partitions: int | None = None,
):
    """Temporarily reconfigure the executor (tests, benchmarks).

    >>> with executor_scope(executor="process", workers=2) as config:
    ...     config.kind
    'process'
    """
    global _config, _executor
    previous_config, previous_executor = _current(), _executor
    try:
        yield configure(executor, workers, partitions)
    finally:
        _config, _executor = previous_config, previous_executor
