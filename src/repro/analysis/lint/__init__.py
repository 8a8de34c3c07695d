"""reprolint: invariant-enforcing static analysis for this codebase.

The library's correctness rests on invariants the paper's algebra
demands but Python does not enforce: exact Fraction arithmetic on mass
values, deterministic (serial-order, bit-for-bit) results, thread
safety of shared module-level state, and the ``StorageBackend``
contract.  The property
suites check these after the fact; this package checks them at the
source level, before a violation ships:

* a small checker framework (:mod:`~repro.analysis.lint.base`) --
  AST visitors with stable scope anchors, per-rule findings, an inline
  ``# repro: ignore[RULE]`` escape hatch;
* four checkers (:mod:`~repro.analysis.lint.checkers`) -- EXACT,
  DETERM, CONC, BACKEND;
* a committed baseline (:mod:`~repro.analysis.lint.baseline`) making
  accepted debt explicit, with staleness treated as an error;
* a runner/CLI (:mod:`~repro.analysis.lint.runner`) --
  ``python -m repro.analysis`` and ``make lint-analysis``, wired into
  CI next to ruff.
"""

from repro.analysis.lint.base import Checker, Module
from repro.analysis.lint.baseline import load_baseline, save_baseline
from repro.analysis.lint.checkers import CHECKER_CLASSES, all_checkers
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.runner import AnalysisResult, analyze, main

__all__ = [
    "AnalysisResult",
    "Checker",
    "CHECKER_CLASSES",
    "Finding",
    "Module",
    "all_checkers",
    "analyze",
    "load_baseline",
    "main",
    "save_baseline",
]
