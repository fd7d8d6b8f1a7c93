"""The treehopf benchmark: one run of one workload.

    python3 perfbench/run.py --workload axioms|realize|elements --seed N --seconds S --trace 0|1

Every job runs in a fresh interpreter (``child.py``), so the library's
global caches start empty, as they do on every CLI call.  Jobs run one
after another (one client, no threads) until the next would end past
``--seconds``; there is always at least one.

``--trace 0`` first times a few set-ups alone, then the untraced jobs, and
reports the end-to-end metrics as medians over the jobs.  ``--trace 1``
alternates untraced and traced jobs, writes the spans of the last traced
job to ``perfbench/out/``, then sweeps the layers, each workload's in one
more fresh interpreter (every layer metric is measured on the inputs of
its home workload, ``metrics.LAYER``), and reports the per-layer metrics
with the tracing overhead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status: 0 when every op passed its check,
1 when some failed (the result is still printed), 2 on bad arguments or a
missing library, 3 when a child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))

from metrics import END_TO_END, LAYER, tail  # noqa: E402
from plans import WORKLOADS  # noqa: E402

SETUP_RUNS = 9
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, trace_file: Path | None = None) -> dict:
    """Run one child to completion and return its JSON report."""
    env = dict(os.environ, PYTHONHASHSEED="0")  # same dict layouts in every child
    extra = [str(trace_file)] if trace_file is not None else []
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode, repr(time.monotonic())] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child for {workload} timed out after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child for {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: float, modes: tuple[str, ...]) -> list[list[dict]]:
    """Rounds of jobs, one child per mode, until the next round would end
    past the deadline (judged by the last round's length)."""
    trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    start = time.monotonic()
    rounds = []
    while True:
        t0 = time.monotonic()
        rounds.append([spawn(workload, seed, mode, trace_file if mode == "traced" else None) for mode in modes])
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            return rounds


def wall(job: dict) -> float:
    return sum(job["durations"])


def end_to_end(setups: list[float], jobs: list[dict]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups + [j["setup_s"] for j in jobs]),
        "wall_s": statistics.median(wall(j) for j in jobs),
        "op_p50_ms": statistics.median(d for j in jobs for d in j["durations"]) * 1e3,
        "op_tail_ms": tail([j["durations"] for j in jobs]) * 1e3,
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
    }


def per_layer(untraced: list[dict], traced: list[dict], layers: dict) -> dict[str, float]:
    m = dict(layers)
    m["trace.untraced_wall_s"] = statistics.median(wall(j) for j in untraced)
    m["trace.traced_wall_s"] = statistics.median(wall(j) for j in traced)
    m["trace.overhead"] = m["trace.traced_wall_s"] / m["trace.untraced_wall_s"]
    return m


def measure(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, list[dict]]:
    """Metrics by name, and every job report the metrics came from."""
    if traced:
        rounds = run_rounds(workload, seed, seconds, ("job", "traced"))
        untraced_jobs = [r[0] for r in rounds]
        traced_jobs = [r[1] for r in rounds]
        layers = {}
        for home in WORKLOADS:  # each layer metric is swept on its home workload's inputs
            layers.update(spawn(home, seed, "sweep")["layers"])
        return per_layer(untraced_jobs, traced_jobs, layers), untraced_jobs + traced_jobs
    setups = [spawn(workload, seed, "setup")["setup_s"] for _ in range(SETUP_RUNS)]
    jobs = [r[0] for r in run_rounds(workload, seed, seconds, ("job",))]
    return end_to_end(setups, jobs), jobs


def result_line(metrics: dict[str, float], jobs: list[dict], traced: bool) -> dict:
    units = LAYER if traced else END_TO_END
    attempted = sum(len(j["durations"]) for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one workload of the treehopf benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "treehopf" / "__init__.py").is_file():
        sys.stderr.write(f"error: no treehopf sources under {ROOT / 'src'}\n")
        return 2
    try:
        metrics, jobs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    for job in jobs:
        for failure in job["failures"]:
            sys.stderr.write(f"FAILED {args.workload}: {failure}\n")
    result = result_line(metrics, jobs, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
