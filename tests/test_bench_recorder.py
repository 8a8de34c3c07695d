"""The benchmark harness's results file is append-only: a bench session
adds its records after the earlier ones and changes no byte of them.
Each new record carries the host class it ran on: cpu, nproc, python."""

import importlib.util
import json
import platform
from pathlib import Path

import pytest

CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


@pytest.fixture
def bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OLD_RECORDS = [
    # Written before revision stamping: no ``rev`` at all.
    {"bench": "bench_old", "metric": "seconds", "value": 0.25},
    # Stamped by the recorder, which writes ``rev`` after ``value``.
    {
        "bench": "bench_new",
        "metric": "ratio",
        "value": 1.0000000000000002,
        "rev": "abc1234",
        "nproc": 2,
        "python": "3.11.7",
    },
    {
        "bench": "bench_new",
        "metric": "speedup",
        "value": None,
        "rev": "abc1234",
        "nproc": 2,
        "python": "3.11.7",
        "status": "skipped",
        "reason": "needs 4 cores",
    },
]


def test_session_leaves_earlier_records_byte_identical(
    bench_conftest, tmp_path, monkeypatch
):
    path = tmp_path / "BENCH_RESULTS.json"
    old_text = json.dumps(OLD_RECORDS, indent=2) + "\n"
    path.write_text(old_text)
    monkeypatch.setenv("BENCH_RESULTS_PATH", str(path))
    bench_conftest.BenchRecorder("bench_session")("metric", 3)

    bench_conftest.pytest_sessionfinish(session=None, exitstatus=0)

    new_text = path.read_text()
    assert new_text.startswith(old_text[: old_text.rindex("}") + 1])
    stored = json.loads(new_text)
    assert [list(record.items()) for record in stored[:3]] == [
        list(record.items()) for record in OLD_RECORDS
    ]
    assert [(r["bench"], r["value"]) for r in stored[3:]] == [("bench_session", 3.0)]
    assert stored[3]["cpu"] == bench_conftest.host_cpu()
    # Earlier records gain no ``cpu`` field.
    assert all("cpu" not in record for record in stored[:3])
    # Readers still see ``rev`` on every record.
    assert bench_conftest.read_results(path)[0]["rev"] is None



def test_records_carry_the_host_class(bench_conftest, tmp_path, monkeypatch):
    path = tmp_path / "BENCH_RESULTS.json"
    monkeypatch.setenv("BENCH_RESULTS_PATH", str(path))
    monkeypatch.setattr(bench_conftest, "_CPU", None)
    monkeypatch.setattr(bench_conftest, "host_cpu", lambda: "Test CPU @ 1.00GHz")
    recorder = bench_conftest.BenchRecorder("bench_host")
    recorder("seconds", 0.5)
    recorder.skipped("speedup", "needs 4 cores")

    bench_conftest.pytest_sessionfinish(session=None, exitstatus=0)

    stored = json.loads(path.read_text())
    assert [list(record)[:7] for record in stored] == [
        ["bench", "metric", "value", "rev", "nproc", "python", "cpu"]
    ] * 2
    assert {record["cpu"] for record in stored} == {"Test CPU @ 1.00GHz"}
    assert stored[1]["status"] == "skipped"


def test_cpu_is_the_cpuinfo_model_name(bench_conftest, tmp_path):
    cpuinfo = tmp_path / "cpuinfo"
    cpuinfo.write_text(
        "processor\t: 0\nvendor_id\t: Test\n"
        "model name\t: Test CPU @ 1.00GHz\nprocessor\t: 1\n"
        "model name\t: Test CPU @ 1.00GHz\n"
    )
    assert bench_conftest.host_cpu(cpuinfo) == "Test CPU @ 1.00GHz"
    fallback = bench_conftest.host_cpu(tmp_path / "missing")
    assert fallback == (platform.processor() or platform.machine())
