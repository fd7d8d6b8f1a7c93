"""Seeded inputs for the three workloads.

A plan is plain JSON data made from the seed alone: the same seed gives the
same bytes.  Keys are generated here, independently of the library's
enumerators, and reach the library only through its text formats, so a
change to the library's enumeration order cannot change a plan.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

TAGS = ("ck", "nck", "ho", "wqsym", "sgsym", "efsym")

AXIOM_CHECK_NAMES = ("coassociativity", "bialgebra_compat", "antipode")


# Each check runs at every degree from AXIOM_MIN_DEGREE up to its top
# degree, so one op is one check call and the op timings show how each check
# grows with degree.  A check at degree d covers every degree up to d; the
# calls at degrees 1 and 2 last about a millisecond, so timing noise would
# decide their order and move the median op.
AXIOM_MIN_DEGREE = 3


# Coassociativity also runs at degree 5 where that is cheap.  On ho and
# efsym it is not: their 1296 and 3125 degree-5 keys took three quarters
# of the job, which left room for only one or two jobs per run, too few for
# a steady median.
COASSOC_DEGREE_5 = ("ck", "nck", "wqsym", "sgsym")


def axiom_top_degree(check: str, tag: str) -> int:
    return 5 if check == "coassociativity" and tag in COASSOC_DEGREE_5 else 4

REALIZE_N = 5
MULT_MAX_DEGREE = 4
DOUBLING_MAX_DEGREE = 3
RANK_VERSIONS = ("v1", "v2", "func")
RANK_MAX_DEGREE = 3

POOL_PATH = Path(__file__).with_name("pool.json")

WORKLOADS = ("axioms", "realize", "elements")


# ---------------------------------------------------------------------------
# Key generators (independent of the library)
# ---------------------------------------------------------------------------

def is_acyclic_parent(parent) -> bool:
    for v in range(1, len(parent) + 1):
        seen = set()
        while v:
            if v in seen:
                return False
            seen.add(v)
            v = parent[v - 1]
    return True


def ordered_forests(n: int) -> list[tuple[int, ...]]:
    """Parent vectors of all ordered forests on {1..n}, lexicographic."""
    return [p for p in itertools.product(range(n + 1), repeat=n) if is_acyclic_parent(p)]


def endofunctions(n: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(1, n + 1), repeat=n))


def permutations(n: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(1, n + 1)))


def vector_text(vec) -> str:
    return " ".join(str(v) for v in vec)


# version -> (algebra tag of its keys, key generator)
FAMILIES = {
    "v1": ("ho", ordered_forests),
    "v2": ("ho", ordered_forests),
    "func": ("efsym", endofunctions),
    "perm": ("sgsym", permutations),
}


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

def axioms_plan(seed: int) -> list[dict]:
    """Every (check, algebra) chain, degrees rising in a chain.

    The checks are exhaustive, so there is nothing for the seed to draw, and
    the order is fixed: shuffling the chains by seed moved the median op by
    up to a quarter, because it moved which checks pay for filling the
    library's caches and for the collector's full passes."""
    return [
        {"check": check, "tag": tag, "degree": d}
        for check in AXIOM_CHECK_NAMES
        for tag in TAGS
        for d in range(AXIOM_MIN_DEGREE, axiom_top_degree(check, tag) + 1)
    ]


def realize_plan(seed: int) -> list[dict]:
    """Multiplicativity on every key pair up to total degree 4, doubling on
    every key up to degree 3 (both at N=5), and exact rank at N=2d+2; the
    seed orders the checks."""
    ops: list[dict] = []
    for version, (_, keys) in FAMILIES.items():
        for total in range(2, MULT_MAX_DEGREE + 1):
            for d1 in range(1, total):
                for a in keys(d1):
                    for b in keys(total - d1):
                        ops.append({"op": "multiplicativity", "version": version, "left": vector_text(a),
                                    "right": vector_text(b), "N": REALIZE_N})
        for d in range(DOUBLING_MAX_DEGREE + 1):
            for k in keys(d):
                ops.append({"op": "doubling", "version": version, "key": vector_text(k), "N": REALIZE_N})
    for version in RANK_VERSIONS:
        keys = FAMILIES[version][1]
        for d in range(1, RANK_MAX_DEGREE + 1):
            ops.append({"op": "rank", "version": version, "keys": [vector_text(k) for k in keys(d)],
                        "N": 2 * d + 2})
    random.Random(seed).shuffle(ops)
    return ops


def load_pool() -> dict:
    with open(POOL_PATH) as fh:
        return json.load(fh)


def elements_plan(seed: int) -> list[dict]:
    """Every request of the pool, in seeded order.  The seed orders the
    stream and so decides which requests find the antipode cache warm; it
    does not choose the requests, because drawing a subset moved the median
    op time by about 10% from seed to seed."""
    stream = list(load_pool()["requests"])
    random.Random(seed).shuffle(stream)
    return stream


PLANS = {"axioms": axioms_plan, "realize": realize_plan, "elements": elements_plan}
