"""End-to-end benchmark of the integrate -> persist -> stream -> query loop.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload integrate --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 30
    python3 e2ebench/run.py --workload stream --steadiness 5 --seconds 30

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer breakdown of a traced run.  Every time is host-normalized
(see :mod:`hostclock`).  Human-readable lines come first; a ``details:``
line carries provenance, raw wall-clock diagnostics, sample counts and
first-pass counter deltas; the last line is the JSON result.  The exit
code is 1, with no result printed, when an output check fails, and 2
when the program cannot be imported.  ``--workload all`` runs each
workload in its own process, and ``--steadiness N`` runs each N times
with seeds ``seed .. seed+N-1`` and prints each end-to-end metric's
spread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("integrate", "stream", "query")

#: Operations every untraced run measures at least, so that the 90th
#: percentile has at least ten samples above it.
MIN_OPS = 100

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steadiness",
        type=int,
        default=0,
        metavar="N",
        help="run each workload N times with consecutive seeds and "
        "report the spread of every end-to-end metric",
    )
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path and import the
    benchmark modules (which import the program)."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {source}")
    sys.path.insert(0, str(source))
    import layers
    import workloads
    from hostclock import HostClock

    return layers, workloads, HostClock


def provenance(seed: int) -> dict:
    """Where and on what the numbers were measured."""
    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "rev": revision,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "seed": seed,
    }


def p90(values) -> float:
    """The 90th percentile, interpolated between closest ranks."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def busy_segments(clock, indices=None):
    """Operation and overhead segments (optionally restricted)."""
    return [
        segment
        for index, segment in enumerate(clock.segments)
        if segment.kind in ("op", "busy") and (indices is None or index in indices)
    ]


def run_untraced(workload, ctx, seconds: float):
    """Set up, then measure passes for *seconds* (and at least
    :data:`MIN_OPS` operations).  Returns the first pass's counts and the
    segment range of every complete pass."""
    for rep in range(workload.setup_reps):
        workload.setup(ctx, rep)
    ctx.deadline = time.perf_counter() + seconds
    ctx.min_ops = MIN_OPS
    first_counts = None
    complete = []
    pass_index = 0
    while not ctx.stop():
        ctx.begin_pass()
        start, done = len(ctx.clock.segments), ctx.passes_done
        workload.run_pass(ctx, pass_index)
        if ctx.passes_done > done:
            complete.append((start, len(ctx.clock.segments)))
        if first_counts is None:
            first_counts = ctx.pass_counts()
        pass_index += 1
    return first_counts, complete


def run_traced(workload, ctx, seconds: float, layers):
    """Alternate a traced and an untraced pass of the same work until
    *seconds* have passed; returns the first traced pass's counts and the
    segment indices of each kind of pass, and the number of pairs."""
    from repro.obs import tracing_scope

    if workload.setup_reps:
        workload.setup(ctx, 0)
    deadline = time.perf_counter() + seconds
    traced, untraced = set(), set()
    first_counts = None
    pairs = 0
    while True:
        start = len(ctx.clock.segments)
        ctx.begin_pass()
        with layers.Tracer() as tracer, tracing_scope(True):
            ctx.tracer = tracer
            try:
                workload.run_pass(ctx, 0)
                counts = ctx.pass_counts()
            finally:
                ctx.tracer = None
        if first_counts is None:
            first_counts = counts
        middle = len(ctx.clock.segments)
        workload.run_pass(ctx, 0)
        traced.update(range(start, middle))
        untraced.update(range(middle, len(ctx.clock.segments)))
        pairs += 1
        if time.perf_counter() >= deadline:
            return first_counts, traced, untraced, pairs


def timed_figures(ctx, passes, seconds) -> dict:
    """Throughput and latency, with *seconds* mapping a segment to its
    duration (normalized or raw).  Throughput and the 90th percentile
    are medians over complete passes, so a stretch of a run in which the
    host misbehaves moves them less; the median latency pools every
    operation."""
    clock = ctx.clock
    per_pass = []
    for start, end in passes:
        busy = sum(
            seconds(segment)
            for segment in clock.segments[start:end]
            if segment.kind in ("op", "busy")
        )
        ops = [(index, units) for index, units in ctx.samples if start <= index < end]
        per_pass.append(
            (
                sum(units for _, units in ops) / busy,
                p90([seconds(clock.segments[i]) * 1000 for i, _ in ops]),
            )
        )
    setups: dict[int, float] = {}
    for segment in clock.of_kind("setup"):
        setups[segment.group] = setups.get(segment.group, 0.0) + seconds(segment)
    return {
        "throughput_per_s": statistics.median(tp for tp, _ in per_pass),
        "latency_p50_ms": statistics.median(
            seconds(clock.segments[i]) * 1000 for i, _ in ctx.samples
        ),
        "latency_p90_ms": statistics.median(p90 for _, p90 in per_pass),
        "setup_s": statistics.median(setups.values()),
    }


def end_to_end_metrics(workload, ctx, passes) -> tuple[dict, dict]:
    """The gated metrics and the raw wall-clock diagnostics beside them."""
    clock = ctx.clock
    metrics = timed_figures(ctx, passes, clock.normalized)
    metrics.update(
        {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "accepted_ratio": 1 - ctx.items_rejected / ctx.items_attempted,
            "stored_bytes_per_row": workload.stored_bytes / workload.stored_rows,
        }
    )
    raw = timed_figures(ctx, passes, lambda segment: segment.raw_s)
    raw["wall_busy_s"] = sum(segment.raw_s for segment in busy_segments(clock))
    raw["ref_ms_median"] = statistics.median(clock.refs) * 1000
    samples = {
        "operations": len(ctx.samples),
        "complete_passes": len(passes),
        "work_units": sum(units for _, units in ctx.samples),
        "unit": workload.unit,
        "setup_samples": len({segment.group for segment in clock.of_kind("setup")}),
        "items_attempted": ctx.items_attempted,
        "items_rejected": ctx.items_rejected,
        "failed_ratio": ctx.items_rejected / ctx.items_attempted,
        "errors": dict(ctx.errors),
    }
    return metrics, {"raw": raw, "samples": samples}


def layer_metrics(ctx, layers, counts, traced, untraced, passes) -> dict:
    """Per-layer self times (normalized seconds per traced pass), the
    first traced pass's counts, the tracing overhead and host facts."""
    clock = ctx.clock
    times: dict[str, float] = {name: 0.0 for name in layers.TIME_METRICS}
    for index, raw_times in ctx.layer_times:
        factor = clock.factor(clock.segments[index])
        for name, seconds in raw_times.items():
            times[name] = times.get(name, 0.0) + seconds * factor
    times.update(layers.layer_totals(times))
    metrics = {name: value / passes for name, value in sorted(times.items())}
    for name in layers.COUNT_METRICS:
        source = (
            layers.REGISTRY_COUNTS.get(name)
            or layers.INSTANCE_COUNTS.get(name)
            or name
        )
        metrics[name] = counts.get(source, 0)
    queries = counts.get("session.queries", 0)
    metrics["session.result_cache_hit_ratio"] = (
        counts.get("session.result_cache_hits", 0) / queries if queries else 0.0
    )
    traced_norm = sum(clock.normalized(s) for s in busy_segments(clock, traced))
    untraced_norm = sum(clock.normalized(s) for s in busy_segments(clock, untraced))
    metrics["trace.overhead_ratio"] = traced_norm / untraced_norm
    metrics["host.ref_ms"] = statistics.median(clock.refs) * 1000
    metrics["host.wall_busy_s"] = (
        sum(s.raw_s for s in busy_segments(clock, traced)) / passes
    )
    return metrics


def run_one(args) -> int:
    try:
        layers, workloads, HostClock = import_program()
    except ImportError as exc:
        print(f"e2ebench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from checks import CheckFailed

    workdir = ROOT / ".e2ebench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        clock = HostClock()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ctx = workloads.Context(clock)
        if args.trace:
            counts, traced, untraced, passes = run_traced(
                workload, ctx, args.seconds, layers
            )
        else:
            counts, passes = run_untraced(workload, ctx, args.seconds)
        clock.close()
        checks = workload.check()
    except CheckFailed as exc:
        print(f"e2ebench: output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = declared["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        metrics = layer_metrics(ctx, layers, counts, traced, untraced, passes)
        units = {name: layers.unit_of(name) for name in metrics}
        details: dict = {"traced_passes": passes}
    else:
        metrics, details = end_to_end_metrics(workload, ctx, passes)
        units = {entry["name"]: entry["unit"] for entry in reported}
    details.update(
        checks=checks,
        first_pass_counts=counts,
        metrics=metrics,
        provenance=provenance(args.seed),
    )
    print(f"e2ebench {args.workload} (trace {args.trace}), seed {args.seed}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    print("details: " + json.dumps(details, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": ctx.ops,
                "failed": ctx.failed_ops,
                "metrics": {
                    entry["name"]: {
                        "value": metrics[entry["name"]],
                        "unit": entry["unit"],
                    }
                    for entry in reported
                },
            }
        )
    )
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all" or args.steadiness:
        return run_children(args)
    return run_one(args)


def spread(values) -> dict:
    """Median, quartiles, IQR and largest deviation (as shares of the
    median) of one metric over repeated runs."""
    middle = statistics.median(values)
    low, _, high = statistics.quantiles(values, n=4) if len(values) > 1 else (
        values[0], None, values[0]
    )
    scale = abs(middle) or 1.0
    return {
        "median": middle,
        "q1": low,
        "q3": high,
        "iqr_share": (high - low) / scale,
        "max_dev_share": max(abs(value - middle) for value in values) / scale,
    }


def run_children(args) -> int:
    """Run workloads in child processes: each once (``--workload all``)
    or ``--steadiness`` times with consecutive seeds."""
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    repeats = max(1, args.steadiness)
    correct, attempted, failed = True, 0, 0
    summary: dict = {}
    for name in names:
        runs = []
        for index in range(repeats):
            seed = args.seed + index
            completed = subprocess.run(
                [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                ],
                capture_output=True,
                text=True,
                timeout=900,
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                correct = False
                sys.stdout.write(completed.stdout)
                sys.stderr.write(completed.stderr)
                continue
            result = json.loads(lines[-1])
            details = json.loads(
                next(line for line in lines if line.startswith("details: "))[9:]
            )
            attempted += result["attempted"]
            failed += result["failed"]
            runs.append((result["metrics"], details.get("raw", {})))
            if args.steadiness:
                values = " ".join(
                    f"{metric}={entry['value']:.6g}"
                    for metric, entry in result["metrics"].items()
                )
                print(f"{name} seed {seed}: {values}", flush=True)
            else:
                sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if not runs:
            continue
        for metric, entry in runs[0][0].items():
            values = [metrics[metric]["value"] for metrics, _ in runs]
            summary[f"{name}.{metric}"] = {
                "value": statistics.median(values),
                "unit": entry["unit"],
            }
            if args.steadiness:
                stats = spread(values)
                line = (
                    f"  {name:<9} {metric:<30} median {stats['median']:>12.6g}  "
                    f"q1 {stats['q1']:>12.6g}  q3 {stats['q3']:>12.6g}  "
                    f"iqr {stats['iqr_share']:7.2%}  "
                    f"max dev {stats['max_dev_share']:7.2%}"
                )
                raw = [diag[metric] for _, diag in runs if metric in diag]
                if len(raw) == len(runs):
                    raw_stats = spread(raw)
                    line += (
                        f"  | raw wall: iqr {raw_stats['iqr_share']:7.2%}  "
                        f"max dev {raw_stats['max_dev_share']:7.2%}"
                    )
                print(line, flush=True)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": summary,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
