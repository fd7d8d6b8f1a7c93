"""Print every metric of every workload, by name and with its unit.

    python3 perfbench/report.py [--trace]

Runs ``run.py`` once per workload (axioms, realize, elements), with seed 1
and the ``run_seconds`` of ``BENCHMARK.json``, and prints one table per
workload, with ``error_rate`` (failed ops over attempted ops).  With
``--trace`` it prints the per-layer metrics instead, each with the
workload it is measured on and the end-to-end metric it should move.
Exits 1 if any op failed or any run did not produce a result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1
sys.path.insert(0, str(HERE))

from metrics import LAYER  # noqa: E402
from plans import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run every workload and print its metrics.")
    parser.add_argument("--trace", action="store_true", help="print the per-layer metrics")
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stdout.write(f"{workload}: no result (exit {proc.returncode})\n")
            status = 1
            continue
        result = json.loads(lines[-1])
        error_rate = result["failed"] / result["attempted"]
        status |= 0 if result["correct"] else 1
        sys.stdout.write(f"== {workload}: {result['attempted']} ops attempted, {result['failed']} failed\n")
        sys.stdout.write(f"  {'error_rate':34} {error_rate:14.6g} ratio\n")
        for name, entry in result["metrics"].items():
            moves = f"  [{LAYER[name][2]}] -> {LAYER[name][3]}" if args.trace else ""
            sys.stdout.write(f"  {name:34} {entry['value']:14.6g} {entry['unit']}{moves}\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
