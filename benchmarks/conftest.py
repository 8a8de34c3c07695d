"""Shared fixtures for the benchmark harness.

Every benchmark both *measures* an operation and *asserts* the
reproduction it corresponds to (a paper table, a worked example, or an
expected qualitative shape), so `pytest benchmarks/ --benchmark-only`
doubles as an end-to-end verification run.

Headline numbers also land in ``BENCH_RESULTS.json`` at the repo root
(override with ``BENCH_RESULTS_PATH``): benches call the
:func:`bench_record` fixture with ``(metric, value)`` pairs, and every
record is stamped with the git revision it measured (``rev``, None
outside a checkout) and the host class it ran on (``nproc``,
``python``, ``cpu``), the fields a comparison with an earlier record
of the same kind of host matches on.
The file is append-only: the session-finish hook adds this session's
records after the earlier ones, so a rerun bench extends its trajectory
instead of overwriting it.  A measurement the host cannot make (a
speedup floor below 4 cores) appends an explicit ``skipped`` record via
``bench_record.skipped`` rather than leaving no trace.
Earlier records are written back exactly as stored, so a session
changes no byte of them.  :func:`read_results` reads the file back,
normalizing pre-stamping records to ``rev: None``.  CI uploads the
file as an artifact, so every build leaves a machine-readable
performance trail.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

import pytest

from repro.datasets.generators import SyntheticConfig, synthetic_pair
from repro.datasets.restaurants import table_ra, table_rb
from repro.obs import registry

#: Records accumulated this session: {"bench", "metric", "value", "rev",
#: "nproc", "python", "cpu"}, plus "status"/"reason" on skipped records.
_RECORDS: list[dict] = []

_CPU: str | None = None

_GIT_REVISION: str | None | bool = False  # False = not resolved yet


def git_revision() -> str | None:
    """The working tree's short commit hash (None outside git / no git)."""
    global _GIT_REVISION
    if _GIT_REVISION is False:
        try:
            _GIT_REVISION = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            _GIT_REVISION = None
    return _GIT_REVISION


def host_cpu(cpuinfo: Path = Path("/proc/cpuinfo")) -> str:
    """The CPU model name, read as ``e2ebench/run.py`` stamps its
    provenance: the first ``model name`` line of *cpuinfo*, else
    ``platform.processor()`` or ``platform.machine()``."""
    cpu = platform.processor() or platform.machine()
    try:
        with open(cpuinfo) as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return cpu


def _host_cpu() -> str:
    """:func:`host_cpu` of this host, read once per session."""
    global _CPU
    if _CPU is None:
        _CPU = host_cpu()
    return _CPU


def _stored_records(path: Path) -> list:
    """The record list stored at *path*, exactly as written (a missing or
    corrupt file reads as an empty list)."""
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    return raw if isinstance(raw, list) else []


def read_results(path: Path | None = None) -> list[dict]:
    """``BENCH_RESULTS.json`` as a record list, tolerating old layouts.

    Records written before revision stamping carry no ``rev`` field;
    they are normalized to ``rev: None`` so readers can rely on the key
    existing.  A missing or corrupt file reads as an empty list.
    """
    target = path if path is not None else _results_path()
    return [
        {"rev": None, **record}
        for record in _stored_records(target)
        if isinstance(record, dict)
    ]


def _results_path() -> Path:
    override = os.environ.get("BENCH_RESULTS_PATH")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent.parent / "BENCH_RESULTS.json"


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    """Zero the metrics registry so each bench measures only itself."""
    registry().reset()
    yield


class BenchRecorder:
    """The :func:`bench_record` fixture: ``record(metric, value)``
    appends a measurement, ``record.skipped(metric, reason)`` an
    explicit record of a measurement this host could not make."""

    def __init__(self, bench: str):
        self._bench = bench

    def _append(self, metric: str, value, **extra) -> None:
        _RECORDS.append(
            {
                "bench": self._bench,
                "metric": str(metric),
                "value": value,
                "rev": git_revision(),
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "cpu": _host_cpu(),
                **extra,
            }
        )

    def __call__(self, metric: str, value: float) -> None:
        self._append(metric, float(value))

    def skipped(self, metric: str, reason: str) -> None:
        self._append(metric, None, status="skipped", reason=str(reason))


@pytest.fixture
def bench_record(request):
    """Append stamped records for this bench module."""
    return BenchRecorder(Path(request.node.path).stem)


def pytest_sessionfinish(session, exitstatus):
    if not _RECORDS:
        return
    path = _results_path()
    # Earlier records go back as stored, so their bytes do not change.
    records = _stored_records(path) + _RECORDS
    path.write_text(json.dumps(records, indent=2) + "\n")


@pytest.fixture
def ra():
    """The paper's R_A."""
    return table_ra()


@pytest.fixture
def rb():
    """The paper's R_B."""
    return table_rb()


#: Synthetic sweep sizes used by the scaling benches (tuples per source).
SCALE_SIZES = (50, 200, 800)


def synthetic_workload(n_tuples: int, *, exact: bool = True, seed: int = 7):
    """A deterministic union-compatible relation pair for scaling runs."""
    config = SyntheticConfig(
        n_tuples=n_tuples,
        overlap=0.5,
        conflict=0.3,
        ignorance=0.3,
        exact=exact,
        seed=seed,
    )
    return synthetic_pair(config)
