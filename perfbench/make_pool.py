"""Regenerate pool.json, the request pool of the ``elements`` workload.

    python3 perfbench/make_pool.py

The pool is drawn from a fixed master seed with the benchmark's own key
samplers.  For every op without a cheap independent identity it stores the
digest of the canonical JSON output, so run it only on a commit whose
outputs are known to be right: the digests are the reference later commits
are checked against.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from plans import POOL_PATH, is_acyclic_parent, vector_text  # noqa: E402

MASTER_SEED = 20100913
VARIANTS = 9

# (op, algebra, input basis, degree profile of x, of y), each drawn VARIANTS
# times.  A profile lists the degrees of an element's terms; the costly
# scans (wqsym products, pi, R products) sit at fixed degrees in every
# variant.
STRATA = (
    *(("product", tag, "S", (3, 2, 2, 1), (3, 2, 1)) for tag in ("ck", "nck", "ho", "sgsym", "efsym")),
    ("product", "wqsym", "M", (3, 2, 1), (3, 2)),
    *(("coproduct", tag, "S", (5, 4, 3, 2), None) for tag in ("ck", "nck", "ho", "sgsym", "efsym")),
    ("coproduct", "wqsym", "M", (5, 4, 3, 2), None),
    *(("antipode", tag, "S", (5, 4, 3), None) for tag in ("ck", "nck", "ho", "sgsym", "efsym")),
    ("antipode", "wqsym", "M", (4, 3, 2), None),
    *(("to_r_basis", tag, "S", (5, 4, 3), None) for tag in ("ho", "efsym", "ck")),
    *(("to_s_basis", tag, "R", (5, 4, 3), None) for tag in ("ho", "efsym", "ck")),
    ("r_product_forest", "ho", "R", (3, 2), (2, 1)),
    ("r_product_endo", "efsym", "R", (3, 2), (2, 1)),
    ("pi", "ho", "S", (6, 5, 4, 3), None),
    ("f_F", "ho", "S", (6, 5, 4, 3), None),
    ("ck_projection", "ho", "S", (6, 5, 4, 3), None),
)
# Degrees at which the Faa di Bruno identity is checked.
FAA_DEGREES = (1, 2, 3, 4, 5)


def random_parent(rng: random.Random, n: int) -> tuple[int, ...]:
    while True:
        parent = tuple(rng.choice([w for w in range(n + 1) if w != v]) for v in range(1, n + 1))
        if is_acyclic_parent(parent):
            return parent


def _paren(parent, sort_children: bool) -> str:
    kids = {v: [] for v in range(0, len(parent) + 1)}
    for v, p in enumerate(parent, start=1):
        kids[p].append(v)

    def rec(v):
        parts = [rec(c) for c in kids[v]]
        return "(" + "".join(sorted(parts) if sort_children else parts) + ")"

    trees = [rec(r) for r in kids[0]]
    return " ".join(sorted(trees) if sort_children else trees)


def random_key(rng: random.Random, tag: str, n: int) -> str:
    if tag == "ho":
        return vector_text(random_parent(rng, n))
    if tag == "nck":
        return _paren(random_parent(rng, n), sort_children=False)
    if tag == "ck":
        return _paren(random_parent(rng, n), sort_children=True)
    if tag == "wqsym":
        m = rng.randint(1, n)
        letters = list(range(1, m + 1)) + [rng.randint(1, m) for _ in range(n - m)]
        rng.shuffle(letters)
        return vector_text(letters)
    if tag == "sgsym":
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        return vector_text(perm)
    return vector_text(rng.randint(1, n) for _ in range(n))


def random_element(rng: random.Random, tag: str, basis: str, profile) -> dict:
    keys: list[str] = []
    for n in profile:
        key = random_key(rng, tag, n)
        while key in keys:
            key = random_key(rng, tag, n)
        keys.append(key)
    coeffs = [rng.choice([c for c in range(-9, 10) if c]) for _ in keys]
    return {"algebra": tag, "basis": basis, "terms": [{"coeff": str(c), "key": k} for c, k in zip(coeffs, keys)]}


def build_pool() -> dict:
    from jobs import DIGEST_OPS, ELEMENT_OPS, canonical_digest
    from tracing import Tracer

    rng = random.Random(MASTER_SEED)
    tracer = Tracer("make_pool", enabled=False)
    requests = []
    for op, tag, basis, xprof, yprof in STRATA:
        for v in range(VARIANTS):
            req = {"id": f"{op}/{tag}/{v}", "op": op, "x": random_element(rng, tag, basis, xprof)}
            if yprof is not None:
                req["y"] = random_element(rng, tag, basis, yprof)
            if op in DIGEST_OPS:
                _, encoded = ELEMENT_OPS[op](tracer, req)
                req["digest"] = canonical_digest(encoded)
            requests.append(req)
    requests.extend({"id": f"faa_di_bruno/{n}", "op": "faa_di_bruno", "n": n} for n in FAA_DEGREES)
    return {"master_seed": MASTER_SEED, "requests": requests}


if __name__ == "__main__":
    with open(POOL_PATH, "w") as fh:
        json.dump(build_pool(), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
