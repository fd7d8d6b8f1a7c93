"""Every metric the benchmark emits, with its unit, and the statistics.

``LAYER`` also records the workload whose inputs each layer metric is
measured on, and which end-to-end metric it should move.  Units ending in
``computed`` mark numbers derived from input sizes (tuples or candidates a
routine scans by construction), not measured.
"""

from __future__ import annotations

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

KERNEL_MODULES = {"ck": "forests", "nck": "forests", "ho": "forests", "wqsym": "words",
                  "sgsym": "endo", "efsym": "endo"}

_KERNEL_MOVES = "wall_s on axioms; op_tail_ms on elements"
_ALGEBRA_MOVES = "op_p50_ms on elements; wall_s on axioms"
_REALIZE_MOVES = "wall_s and op_tail_ms on realize"

# name -> (unit, better, home, end-to-end metric it should move).  A layer
# metric is measured on the inputs its home workload feeds that layer,
# whichever workload the traced run is for; "run" marks the traced run's
# own workload.
LAYER = {
    "structures.enumerate_s": ("s", "lower", "axioms", "wall_s on axioms"),
    "structures.keys": ("count", "lower", "axioms", "wall_s on axioms"),
    "structures.cuts_s": ("s", "lower", "axioms", "wall_s on axioms"),
    "structures.cuts": ("count", "lower", "axioms", "wall_s on axioms"),
    **{
        f"{module}.{tag}.{what}": (unit, "lower", "axioms", _KERNEL_MOVES)
        for tag, module in KERNEL_MODULES.items()
        for what, unit in (("product_s", "s"), ("product_calls", "count"),
                           ("coproduct_s", "s"), ("coproduct_terms", "count"))
    },
    "words.wqsym.product_yield": ("terms/computed", "higher", "axioms", _KERNEL_MOVES),
    "algebra.product_elements_s": ("s", "lower", "elements", _ALGEBRA_MOVES),
    "algebra.coproduct_element_s": ("s", "lower", "elements", _ALGEBRA_MOVES),
    "algebra.tensor_product_s": ("s", "lower", "axioms", "wall_s on axioms"),
    "algebra.antipode_s": ("s", "lower", "elements", _ALGEBRA_MOVES),
    "algebra.json_decode_s": ("s", "lower", "elements", "op_p50_ms on elements"),
    "algebra.json_encode_s": ("s", "lower", "elements", "op_p50_ms on elements"),
    "algebra.terms_out": ("count", "lower", "elements", "op_p50_ms on elements"),
    "algebra.antipode_cache_size": ("count", "lower", "elements", _ALGEBRA_MOVES),
    "realization.words": ("count", "lower", "realize", "wall_s, op_tail_ms and peak_rss_mb on realize"),
    "realization.words_per_s": ("1/s", "higher", "realize", _REALIZE_MOVES),
    "realization.realize_s": ("s", "lower", "realize", _REALIZE_MOVES),
    "realization.poly_mul_s": ("s", "lower", "realize", _REALIZE_MOVES),
    "realization.doubled_words": ("count", "lower", "realize", "wall_s, op_tail_ms and peak_rss_mb on realize"),
    "realization.doubling_s": ("s", "lower", "realize", _REALIZE_MOVES),
    "realization.rank_s": ("s", "lower", "realize", "wall_s, op_tail_ms and peak_rss_mb on realize"),
    "realization.rank_rows": ("count", "lower", "realize", "peak_rss_mb on realize"),
    "realization.rank_cols": ("count", "lower", "realize", "peak_rss_mb on realize"),
    "bases.to_r_s": ("s", "lower", "elements", "op_tail_ms on elements"),
    "bases.to_s_s": ("s", "lower", "elements", "op_tail_ms on elements"),
    "bases.r_product_s": ("s", "lower", "elements", "op_tail_ms on elements"),
    "bases.candidates": ("count_computed", "lower", "elements", "op_tail_ms on elements"),
    "bases.yield": ("terms/computed", "higher", "elements", "op_tail_ms on elements"),
    "morphisms.pi_s": ("s", "lower", "elements", "op_tail_ms on elements"),
    "morphisms.pi_yield": ("terms/computed", "higher", "elements", "op_tail_ms on elements"),
    "morphisms.f_F_s": ("s", "lower", "elements", "op_tail_ms on elements"),
    "morphisms.ck_s": ("s", "lower", "elements", "op_tail_ms on elements"),
    "morphisms.faa_di_bruno_s": ("s", "lower", "elements", "op_tail_ms on elements"),
    "verify.cases": ("count", "higher", "realize", "wall_s on realize"),
    "verify.multiplicativity_s": ("s", "lower", "realize", "wall_s on realize"),
    "verify.doubling_s": ("s", "lower", "realize", "wall_s on realize"),
    "trace.untraced_wall_s": ("s", "lower", "run", "tracing overhead"),
    "trace.traced_wall_s": ("s", "lower", "run", "tracing overhead"),
    "trace.overhead": ("ratio", "lower", "run", "tracing overhead"),
}


TAIL_BEYOND = 10


def tail(jobs: list[list[float]]) -> float:
    """The op time at one job's tail level, over the ops of every job.

    The level is the highest percentile of one job's ops with at least ten
    ops beyond it (p75 of 40 ops, p96 of 266).  Every job of a run runs the
    same plan, so the pooled ops hold ten ops per job beyond that level.
    Pooling lets a run's many jobs fix one quantile; a median of per-job
    tails swung between two neighbouring checks on axioms, where only a few
    ops of similar cost sit near the tail."""
    per_job = len(jobs[0])
    k = per_job - TAIL_BEYOND if per_job > TAIL_BEYOND else per_job
    pooled = sorted(d for durations in jobs for d in durations)
    return pooled[k * len(jobs) - 1]
