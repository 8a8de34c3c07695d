"""Tests of the benchmark itself: ``python -m pytest e2ebench`` from the
repository root.  The run tests start the benchmark as a child process,
as the benchmark is meant to be run; together they take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import (  # noqa: E402
    CheckFailed,
    canonical_digest,
    check_same_relation,
)
from repro.datasets.generators import SyntheticConfig, synthetic_pair  # noqa: E402

SEED = 3


def run(workload: str, trace: int = 0, cwd: Path = ROOT, script=None):
    """One benchmark run: ``(exit code, details, result)``."""
    completed = subprocess.run(
        [
            sys.executable,
            str(script or HERE / "run.py"),
            "--workload", workload, "--seed", str(SEED),
            "--seconds", "0", "--trace", str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    details = next(
        (json.loads(line[9:]) for line in lines if line.startswith("details: ")),
        None,
    )
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return completed.returncode, details, result


@pytest.fixture(scope="module", params=("integrate", "stream", "query"))
def three_runs(request):
    """Two untraced runs and one traced run of a workload, same seed."""
    name = request.param
    return name, [run(name), run(name), run(name, trace=1)]


def test_runs_pass_their_checks(three_runs):
    _, runs = three_runs
    for code, _, result in runs:
        assert code == 0
        assert result["correct"] is True
        assert result["attempted"] >= 1


def test_counts_and_digests_repeat_across_runs_of_one_seed(three_runs):
    _, ((_, first, _), (_, second, _), _) = three_runs
    assert first["first_pass_counts"] == second["first_pass_counts"]
    assert first["checks"] == second["checks"]
    prefixes = ("kernel.", "storage.sqlite.", "session.", "stream.", "exec.")
    assert any(name.startswith(prefixes) for name in first["first_pass_counts"])


def test_tracing_leaves_program_counts_unchanged(three_runs):
    _, ((_, untraced, _), _, (_, traced, _)) = three_runs
    program = ("kernel.", "storage.sqlite.", "session.", "exec.")
    assert {
        name: value
        for name, value in traced["first_pass_counts"].items()
        if name.startswith(program)
    } == {
        name: value
        for name, value in untraced["first_pass_counts"].items()
        if name.startswith(program)
    }


def test_every_declared_metric_is_reported(three_runs):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, ((_, _, untraced), _, (_, _, traced)) = three_runs
    assert set(untraced["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in declared["per_layer"]}
    for entry in declared["end_to_end"]:
        assert untraced["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert untraced["metrics"][entry["name"]]["value"] > 0


def test_stream_counts_rejected_upserts(three_runs):
    name, ((_, details, result), _, (_, _, traced)) = three_runs
    if name != "stream":
        pytest.skip("stream only")
    assert result["metrics"]["accepted_ratio"]["value"] < 1
    assert details["samples"]["errors"].get("MassFunctionError", 0) > 0
    assert traced["metrics"]["stream.events_rejected"]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, _, result = run(
        "stream", cwd=tmp_path, script=tmp_path / HERE.name / "run.py"
    )
    assert code != 0
    assert result is None


def test_check_same_relation_spots_a_different_mass():
    config = SyntheticConfig(n_tuples=20, exact=False, seed=1)
    left, _ = synthetic_pair(config)
    other, _ = synthetic_pair(SyntheticConfig(n_tuples=20, exact=False, seed=2))
    check_same_relation(left, synthetic_pair(config)[0], "same")
    with pytest.raises(CheckFailed):
        check_same_relation(left, other, "different")


def test_canonical_digest_depends_on_content_only():
    config = SyntheticConfig(n_tuples=20, exact=False, seed=1)
    left, right = synthetic_pair(config)
    assert canonical_digest(left) == canonical_digest(synthetic_pair(config)[0])
    assert canonical_digest(left) != canonical_digest(right)
