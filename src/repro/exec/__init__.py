"""The physical execution layer: partitioned, executor-driven evaluation.

The paper's integration semantics decompose per entity (definite keys
identify real-world entities; Dempster merges, selection revision and
union/intersection never mix entities), so the physical layer shards
entity work into hash partitions and fans the partition tasks out:

* :mod:`repro.exec.executors` -- the two executors (``serial`` inline,
  ``process`` on the warm pool) behind one dispatch,
  :meth:`Executor.map` ``(fn, common, items)``; the process-global
  configuration (:func:`configure`, ``REPRO_EXECUTOR`` /
  ``REPRO_WORKERS`` / ``REPRO_PARTITIONS``); and fan-out counters;
* :mod:`repro.exec.warmpool` -- the persistent warm ``fork`` worker
  pool (compact task encoding) the ``process`` executor ships to;
* :mod:`repro.exec.rewrite` -- the logical rewrite-pass pipeline
  (selection fusion/pushdown, projection pruning) run before lowering,
  so physical operators see normalized plans;
* :mod:`repro.exec.physical` -- per-node lowering of the logical plan
  IR onto physical operators.

The default configuration is serial with no partitioning: results and
pair order are bit-for-bit the historical single-loop behavior.  With
either executor and any partition count, every partition-aware path
(:func:`repro.algebra.union.union_with_report`, the intersection,
:meth:`repro.integration.federation.Federation.integrate` /
``integrate_entities`` and :meth:`repro.stream.engine.StreamEngine.flush`)
reassembles results to *equal the serial result exactly* --
property-tested in ``tests/exec``.

>>> from repro import exec as rexec
>>> rexec.configure(executor="process", workers=2).kind
'process'
>>> rexec.configure(executor="serial", workers=1, partitions=None).kind
'serial'
"""

from repro.exec.executors import (
    EXECUTOR_KINDS,
    ExecConfig,
    ExecStats,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    configure,
    current_config,
    exec_stats,
    executor_scope,
    get_executor,
    partition_count,
)
from repro.model.relation import partition_index

# The physical/rewrite halves import the plan IR, whose algebra imports
# the executors above -- so they are exposed lazily to keep the package
# importable from either end of that chain.
_LAZY = {
    "PhysicalOperator": "repro.exec.physical",
    "apply_node": "repro.exec.physical",
    "describe_physical": "repro.exec.physical",
    "lower": "repro.exec.physical",
    "run_plan": "repro.exec.physical",
    "PassPipeline": "repro.exec.rewrite",
    "RewritePass": "repro.exec.rewrite",
    "default_pipeline": "repro.exec.rewrite",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

__all__ = [
    "EXECUTOR_KINDS",
    "ExecConfig",
    "ExecStats",
    "Executor",
    "PassPipeline",
    "PhysicalOperator",
    "ProcessExecutor",
    "RewritePass",
    "SerialExecutor",
    "apply_node",
    "configure",
    "current_config",
    "default_pipeline",
    "describe_physical",
    "exec_stats",
    "executor_scope",
    "get_executor",
    "lower",
    "partition_count",
    "partition_index",
    "run_plan",
]
