"""The warm worker pool: reuse, fallback, and encoded dispatch.

The equivalence suite already proves warm-pool results are bit-for-bit
serial; these tests pin the *mechanics*: one fork paid across many
batches, unpicklable payloads declined before dispatch, exceptions
propagated, order preserved, one process-global pool that a new worker
count replaces, and the process executor dispatching there.
"""

import multiprocessing
import os

import pytest

from repro.exec import warmpool
from repro.exec.executors import (
    EXECUTOR_KINDS,
    ProcessExecutor,
    executor_scope,
    get_executor,
)
from repro.obs import registry


def _has_fork() -> bool:
    try:
        multiprocessing.get_context("fork")
    except (ImportError, ValueError):
        return False
    return True


pytestmark = pytest.mark.skipif(
    not _has_fork(), reason="warm pool requires the fork start method"
)


# Module-level task functions: the warm pool pickles tasks by reference.


def _scale(common, item):
    return common * item


def _whoami(common, item):
    return os.getpid()


def _explode(common, item):
    raise ValueError(f"boom on {item!r}")


@pytest.fixture()
def pool():
    warm = warmpool.WarmPool(workers=2)
    yield warm
    warm.close()


class TestWarmPool:
    def test_results_in_item_order(self, pool):
        items = list(range(17))
        assert pool.submit_batch(_scale, 3, items) == [3 * x for x in items]

    def test_one_fork_across_many_batches(self, pool):
        spawns = registry().counter("exec.warmpool.spawns")
        before = spawns.value
        for _ in range(3):
            assert pool.submit_batch(_scale, 2, [1, 2, 3]) == [2, 4, 6]
        assert spawns.value == before + 1

    def test_work_runs_in_child_processes(self, pool):
        pids = set(pool.submit_batch(_whoami, None, list(range(8))))
        assert os.getpid() not in pids

    def test_unpicklable_payload_declined_before_dispatch(self, pool):
        fallbacks = registry().counter("exec.warmpool.fallbacks")
        before = fallbacks.value
        # A lambda pickles by reference and has none: dumps fails in the
        # driver, so the caller gets None and no worker is ever forked.
        assert pool.submit_batch(lambda c, i: i, None, [1, 2]) is None
        assert fallbacks.value == before + 1
        assert "cold" in repr(pool)

    def test_task_exception_propagates(self, pool):
        with pytest.raises(ValueError, match="boom"):
            pool.submit_batch(_explode, None, [1, 2, 3])
        # The pool survives a task exception and keeps serving.
        assert pool.submit_batch(_scale, 1, [5]) == [5]

    def test_close_then_reuse_reforks(self, pool):
        spawns = registry().counter("exec.warmpool.spawns")
        assert pool.submit_batch(_scale, 1, [1]) == [1]
        pool.close()
        assert "cold" in repr(pool)
        before = spawns.value
        assert pool.submit_batch(_scale, 1, [2]) == [2]
        assert spawns.value == before + 1

    def test_chunks_are_contiguous_and_cover_everything(self, pool):
        for count in (1, 2, 3, 7):
            items = list(range(count))
            chunks = pool._chunk(items)
            assert len(chunks) <= pool.workers
            assert [x for chunk in chunks for x in chunk] == items
            assert all(chunk for chunk in chunks)


class TestPoolRegistry:
    def test_one_shared_pool_per_worker_count(self):
        assert warmpool.get_pool(2) is warmpool.get_pool(2)
        assert warmpool.get_pool(2) is not warmpool.get_pool(3)

    def test_a_new_worker_count_retires_the_old_pool(self):
        old = warmpool.get_pool(2)
        assert old.submit_batch(_scale, 1, [1, 2]) == [1, 2]
        assert warmpool.get_pool(3) is not old
        assert "cold" in repr(old)
        # A caller still holding the retired pool runs inline instead of
        # forking it again.
        fallbacks = registry().counter("exec.warmpool.fallbacks")
        before = fallbacks.value
        assert old.submit_batch(_scale, 1, [1, 2]) is None
        assert fallbacks.value == before + 1
        assert "cold" in repr(old)

    def test_scopes_at_several_sizes_leave_one_pool_alive(self):
        items = list(range(16))
        for workers in (2, 4, 8):
            with executor_scope(executor="process", workers=workers):
                assert get_executor().map(_scale, 1, items) == items
        try:
            assert len(multiprocessing.active_children()) <= 8
        finally:
            warmpool.shutdown()

    def test_shutdown_is_idempotent(self):
        warmpool.get_pool(2)
        warmpool.shutdown()
        warmpool.shutdown()
        # The registry re-creates pools on demand after a shutdown.
        assert warmpool.get_pool(2) is not None


class TestProcessDispatch:
    def test_process_executor_routes_through_the_warm_pool(self):
        dispatches = registry().counter("exec.warmpool.dispatches")
        executor = ProcessExecutor(workers=2)
        before = dispatches.value
        items = list(range(12))
        assert executor.map(_scale, 4, items) == [4 * x for x in items]
        assert dispatches.value == before + 1

    def test_every_executor_kind_agrees(self):
        items = list(range(9))
        expected = [5 * x for x in items]
        for kind in EXECUTOR_KINDS:
            with executor_scope(executor=kind, workers=2):
                assert get_executor().map(_scale, 5, items) == expected
