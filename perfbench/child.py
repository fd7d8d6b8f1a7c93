"""One fresh interpreter of a benchmark run: set up, then one job or sweep.

    python3 perfbench/child.py WORKLOAD SEED MODE SPAWNED [TRACE_FILE]

MODE is ``setup`` (set up only), ``job`` (untraced job), ``traced`` (job
with spans, written to TRACE_FILE) or ``sweep`` (per-layer sweep).  SPAWNED
is the parent's ``time.monotonic()`` just before it started this process,
so the reported set-up time covers interpreter start, the library import
and input generation.  Prints one JSON object on stdout.  Every child
starts with the library's global caches empty, as a CLI call does.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_library():
    sys.path.insert(0, str(SRC))
    import treehopf

    if Path(treehopf.__file__).resolve().parent != SRC / "treehopf":
        raise SystemExit(f"imported treehopf from {treehopf.__file__}, not from {SRC}")


def main(argv: list[str]) -> int:
    workload, seed, mode, spawned = argv[0], int(argv[1]), argv[2], float(argv[3])
    _import_library()
    sys.path.insert(0, str(HERE))
    from jobs import materialize, run_job
    from plans import PLANS
    from tracing import Tracer

    items = materialize(workload, PLANS[workload](seed))
    out: dict = {"setup_s": time.monotonic() - spawned}
    if mode == "sweep":
        from sweep import sweep

        out["layers"] = sweep(workload, items)
    elif mode in ("job", "traced"):
        tracer = Tracer(f"{workload}:{seed}:{mode}", enabled=mode == "traced")
        out.update(run_job(workload, items, tracer))
        if mode == "traced":
            tracer.write(Path(argv[4]))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
