"""One-off report: regenerate the ROADMAP baseline rows by name.

    python3 perfbench/baseline.py            # every row, about three minutes

Not a workload: each row is one fixed call, timed once in its own fresh
interpreter.  The func rank row runs under an address-space cap
(RLIMIT_AS, set by that child on itself only), so running out of memory
shows as a failed row instead of the OS killing the process.  Prints one
line per row, then one JSON line with every row.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

RANK_CAP_MB = 1024
ROW_TIMEOUT_S = 600


def _wqsym_4x4():
    from treehopf.structures import PackedWord
    from treehopf.words import wqsym_product

    out = wqsym_product(PackedWord.parse("1 2 3 1"), PackedWord.parse("2 1 1 2"))
    return len(out.terms) == 25, f"{len(out.terms)} terms"


def _pi_image_deg7():
    from treehopf.realization import pi_image
    from treehopf.structures import OrderedForest

    out = pi_image(OrderedForest.parse("0 1 1 2 2 3 3"))
    return bool(out.terms), f"{len(out.terms)} terms"


def _ho_antipode(degree: int):
    from treehopf.algebra import antipode_key
    from treehopf.structures import enumerate_ordered_forests

    keys = enumerate_ordered_forests(degree)
    terms = sum(len(antipode_key("ho", k).terms) for k in keys)
    return True, f"{len(keys)} keys, {terms} terms"


def _func_doubling():
    from treehopf.structures import enumerate_endofunctions
    from treehopf.verify import doubling_transport_ok

    keys = [k for d in range(4) for k in enumerate_endofunctions(d)]
    bad = sum(not doubling_transport_ok("func", k, 8) for k in keys)
    return bad == 0, f"{len(keys)} keys, {bad} failures"


def _func_rank_deg4():
    from treehopf.realization import rank_check, realizer_for
    from treehopf.structures import enumerate_endofunctions

    report = rank_check(enumerate_endofunctions(4), realizer_for("func"), 10)
    return report.full, report.summary()


# name -> (what the ROADMAP row measures, call, address-space cap in MB or None)
ROWS = {
    "wqsym_product_4x4": ("wqsym_product, length-4 word by length-4 word", _wqsym_4x4, None),
    "pi_image_deg7": ("pi_image of one degree-7 forest", _pi_image_deg7, None),
    "ho_antipode_deg5": ("antipode of every ho key of degree 5", lambda: _ho_antipode(5), None),
    "ho_antipode_deg6": ("antipode of every ho key of degree 6", lambda: _ho_antipode(6), None),
    "func_doubling_deg0-3_N8": ("doubling check, func, degrees 0-3, N=8", _func_doubling, None),
    "func_rank_check_deg4_N10": ("rank_check, func, degree 4, N=10", _func_rank_deg4, RANK_CAP_MB),
}


def run_row(name: str) -> dict:
    """Run one row in this process (the child side)."""
    _, call, cap_mb = ROWS[name]
    if cap_mb is not None:
        cap = cap_mb * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        ok, detail = call()
    except MemoryError:
        ok, detail = False, f"MemoryError under RLIMIT_AS={cap_mb} MB"
    return {"row": name, "seconds": time.perf_counter() - t0, "ok": ok, "detail": detail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def spawn_row(name: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", name]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=ROW_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"row": name, "seconds": float(ROW_TIMEOUT_S), "ok": False, "detail": "timed out"}
    if proc.returncode != 0:
        return {"row": name, "seconds": None, "ok": False,
                "detail": f"exited {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the ROADMAP baseline rows.")
    parser.add_argument("--child", choices=sorted(ROWS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        sys.stdout.write(json.dumps(run_row(args.child)) + "\n")
        return 0
    rows = []
    for name in ROWS:
        row = spawn_row(name)
        rows.append(row)
        seconds = "-" if row["seconds"] is None else f"{row['seconds']:.2f} s"
        status = "ok" if row["ok"] else "FAILED"
        sys.stdout.write(f"{name:26} {seconds:>10}  {status:6}  {ROWS[name][0]}: {row['detail']}\n")
        sys.stdout.flush()
    sys.stdout.write(json.dumps({"rows": rows}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
