"""The project-specific checkers, one invariant each.

* :class:`~repro.analysis.lint.checkers.exact.ExactChecker` -- EXACT:
  exact-Fraction arithmetic on mass-value paths;
* :class:`~repro.analysis.lint.checkers.determ.DetermChecker` -- DETERM:
  serial-order, bit-for-bit deterministic output;
* :class:`~repro.analysis.lint.checkers.conc.ConcChecker` -- CONC:
  thread safety of shared module-level state;
* :class:`~repro.analysis.lint.checkers.backend.BackendChecker` --
  BACKEND: the ``StorageBackend`` contract;
* :class:`~repro.analysis.lint.checkers.obs.ObsChecker` -- OBS:
  telemetry instruments stay owned by their layer.
"""

from repro.analysis.lint.checkers.backend import BackendChecker
from repro.analysis.lint.checkers.conc import ConcChecker
from repro.analysis.lint.checkers.determ import DetermChecker
from repro.analysis.lint.checkers.exact import ExactChecker
from repro.analysis.lint.checkers.obs import ObsChecker

#: Checker classes in report order.
CHECKER_CLASSES = (ExactChecker, DetermChecker, ConcChecker, BackendChecker, ObsChecker)


def all_checkers():
    """Fresh instances of every checker (they carry per-run state)."""
    return [cls() for cls in CHECKER_CLASSES]


__all__ = [
    "BackendChecker",
    "ConcChecker",
    "DetermChecker",
    "ExactChecker",
    "ObsChecker",
    "CHECKER_CLASSES",
    "all_checkers",
]
