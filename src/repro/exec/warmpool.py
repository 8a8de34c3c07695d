"""A persistent warm ``fork`` worker pool with compact task encoding.

Forking a fresh pool per batch costs tens of milliseconds, which swamps
small batches -- exactly what a stream engine flushes all day.  This
module keeps one pool of already-forked workers alive across batches
and ships work to them as **compact encoded payloads**:

* the task function must be a module-level callable (it pickles by
  reference -- workers forked from this process already have the module
  imported);
* per-batch constant state (``common``) is pickled **once** and reused
  for every chunk, instead of once per item;
* items are grouped into at most ``workers`` contiguous chunks, so one
  pipe round trip carries many items and results return per chunk.

Payloads that cannot pickle (closures, open handles) are detected *in
the driver* before anything is dispatched: :meth:`WarmPool.submit_batch`
returns ``None`` and the :class:`~repro.exec.executors.ProcessExecutor`
runs the batch inline.  There is one pool per process: it deliberately
survives ``executor_scope`` -- staying warm across scopes is the point
-- is replaced when a scope asks for a different worker count, and is
reaped at interpreter exit.  Dispatch activity surfaces as the
``exec.warmpool.*`` metrics.

Fork safety note (the CONC002 lint rule patrols this): tasks submitted
here are *long-lived* pool submissions -- the workers were forked once,
long ago, so any file offset, sqlite connection or held lock captured
into a payload is stale in the worker by construction.  Ship keys and
paths, reopen in the task.
"""

from __future__ import annotations

import atexit
import pickle
import threading
import time

from repro.obs import tracing
from repro.obs.registry import registry as _metrics_registry

_METRICS = _metrics_registry()
_DISPATCHES = _METRICS.counter(
    "exec.warmpool.dispatches", "batches dispatched to warm workers"
)
_TASKS = _METRICS.counter(
    "exec.warmpool.tasks", "items shipped to warm workers"
)
_SPAWNS = _METRICS.counter(
    "exec.warmpool.spawns", "warm pool (re)creations -- forks actually paid"
)
_FALLBACKS = _METRICS.counter(
    "exec.warmpool.fallbacks",
    "batches that could not pickle or hit a dead pool and ran inline",
)
_DISPATCH_SECONDS = _METRICS.histogram(
    "exec.warmpool.dispatch_seconds", "warm-pool batch dispatch latency"
)


def _invoke_chunk(common_blob: bytes, chunk_blob: bytes):
    """Worker-side entry: decode one chunk and run its items in order."""
    from repro.exec.executors import _inside_task

    fn, common = pickle.loads(common_blob)
    chunk = pickle.loads(chunk_blob)
    with _inside_task():
        if not tracing.enabled():
            return [fn(common, item) for item in chunk], None
        with tracing.capture() as spans:
            results = [fn(common, item) for item in chunk]
        return results, spans


class WarmPool:
    """A lazily-forked, persistent worker pool of a fixed size."""

    def __init__(self, workers: int):
        self.workers = int(workers)
        self._lock = threading.Lock()
        self._pool = None
        self._retired = False

    def _ensure_pool(self):
        """Fork the workers on first use (caller holds the lock)."""
        if self._pool is None:
            import multiprocessing

            context = multiprocessing.get_context("fork")
            self._pool = context.Pool(processes=self.workers)
            _SPAWNS.inc()
        return self._pool

    def submit_batch(self, fn, common, items: list) -> list | None:
        """Run ``[fn(common, item) for item in items]`` on warm workers.

        Returns results in item order, or ``None`` when the payload
        cannot cross the pipe or the pool died (the caller runs the
        batch inline).  The first task exception propagates.
        Concurrent driver threads serialize on the pool.
        """
        try:
            common_blob = pickle.dumps(
                (fn, common), protocol=pickle.HIGHEST_PROTOCOL
            )
            chunks = self._chunk(items)
            chunk_blobs = [
                pickle.dumps(chunk, protocol=pickle.HIGHEST_PROTOCOL)
                for chunk in chunks
            ]
        except Exception:  # noqa: BLE001 -- any pickling failure: run inline
            _FALLBACKS.inc()
            return None
        started = time.perf_counter()
        with tracing.span(
            "exec.warmpool.dispatch", tasks=len(items), chunks=len(chunk_blobs)
        ):
            with self._lock:
                if self._retired:
                    # Replaced by a pool of another size while this
                    # caller held it: run inline rather than re-fork.
                    _FALLBACKS.inc()
                    return None
                pool = self._ensure_pool()
                try:
                    handles = [
                        pool.apply_async(_invoke_chunk, (common_blob, blob))
                        for blob in chunk_blobs
                    ]
                    outcomes = [handle.get() for handle in handles]
                except OSError:
                    # A dead worker poisons the whole pool: drop it (the
                    # next batch re-forks) and let the caller run inline.
                    self._close_pool()
                    _FALLBACKS.inc()
                    return None
        _DISPATCHES.inc()
        _TASKS.inc(len(items))
        _DISPATCH_SECONDS.observe(time.perf_counter() - started)
        results: list = []
        for chunk_results, spans in outcomes:
            if spans:
                tracing.ingest(spans)
            results.extend(chunk_results)
        return results

    def _chunk(self, items: list) -> list[list]:
        """At most ``workers`` contiguous chunks, preserving item order."""
        count = min(self.workers, len(items))
        size, extra = divmod(len(items), count)
        chunks, start = [], 0
        for index in range(count):
            stop = start + size + (1 if index < extra else 0)
            chunks.append(items[start:stop])
            start = stop
        return chunks

    def _close_pool(self) -> None:
        """Terminate the workers (caller holds the lock)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def close(self) -> None:
        """Terminate the workers; the next submit re-forks."""
        with self._lock:
            self._close_pool()

    def retire(self) -> None:
        """Terminate the workers for good, once any batch in flight is
        done; later submits run inline."""
        with self._lock:
            self._retired = True
            self._close_pool()

    def __repr__(self) -> str:
        state = "warm" if self._pool is not None else "cold"
        return f"WarmPool({self.workers} worker(s), {state})"


#: The process-global pool, guarded by the lock: the whole point is
#: reusing forked workers across executor scopes.
_POOL: WarmPool | None = None
_POOL_LOCK = threading.Lock()


def get_pool(workers: int) -> WarmPool | None:
    """The shared warm pool sized *workers*, or ``None`` without ``fork``.

    A request for another size retires the current pool first (waiting
    for its batch in flight), so at most one pool's workers are alive.
    """
    global _POOL
    try:
        import multiprocessing

        multiprocessing.get_context("fork")
    except (ImportError, ValueError):
        return None
    with _POOL_LOCK:
        if _POOL is None or _POOL.workers != workers:
            if _POOL is not None:
                _POOL.retire()
            _POOL = WarmPool(workers)
        return _POOL


def shutdown() -> None:
    """Terminate the warm pool (idempotent; registered at exit)."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.retire()


atexit.register(shutdown)
