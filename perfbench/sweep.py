"""Per-layer sweep: each lower layer's public functions, timed from outside,
on exactly the inputs one workload fed that layer.

Every layer metric has one home workload (``metrics.LAYER``): the workload
that reaches the layer and whose end-to-end metrics it should move.  A
sweep of a workload measures the metrics homed there, so no metric is read
off a layer its workload never calls.  Each sweep runs in a fresh
interpreter, so the library's caches start empty as in the job, and each
function runs in its own timed loop.  Inputs are distinct: a key the
workload checked in several calls is swept once.
"""

from __future__ import annotations

import time

from treehopf import algebra, bases, morphisms
from treehopf.algebra import (
    FreeElement,
    antipode,
    coproduct_element,
    element_from_json,
    element_to_json,
    get_algebra,
    product_elements,
    tensor_product,
    tensor_to_json,
)
from treehopf.endo import ideals
from treehopf.realization import (
    group_doubled,
    iter_endofunction_words,
    iter_forest_words,
    iter_permutation_words,
    oplus_double,
    rank_of_rows,
    realizer_for,
)
from treehopf.structures import enumerate_admissible_cuts, plane_to_ordered
from treehopf.verify import doubling_transport_ok, multiplicativity_ok

from jobs import f_F, r_product
from metrics import KERNEL_MODULES
from plans import FAMILIES

WORD_ITERS = {
    "v1": lambda key, size: iter_forest_words(key, "v1", size),
    "v2": lambda key, size: iter_forest_words(key, "v2", size),
    "func": iter_endofunction_words,
    "perm": iter_permutation_words,
}

R_RULES = {"r_product_forest": bases.r_product_forest, "r_product_endo": bases.r_product_endo}


def _distinct(items: list) -> list:
    return list(dict.fromkeys(items))


def _timed(fn, arg_lists: list) -> tuple[float, list]:
    results = []
    t0 = time.perf_counter()
    for args in arg_lists:
        results.append(fn(*args))
    return time.perf_counter() - t0, results


def _terms(results) -> int:
    return sum(len(r.terms) for r in results)


# ---------------------------------------------------------------------------
# axioms: structures, the six product/coproduct kernels, tensor products
# ---------------------------------------------------------------------------

def _cuts(tag: str, key) -> list:
    return ideals(key) if tag in ("sgsym", "efsym") else enumerate_admissible_cuts(key)


def _kernel_product(tag: str, a, b):
    return get_algebra(tag).product(a, b)


def _kernel_coproduct(tag: str, key):
    return get_algebra(tag).coproduct(key)


def _sweep_axioms(plan: list[dict]) -> dict[str, float]:
    """Enumeration, cuts and coproducts on the keys of the coassociativity
    checks; products and tensor products on the pairs of the bialgebra
    checks."""
    enumerations, coproducts, cut_keys, products, tensors = [], [], [], [], []
    top: dict[tuple[str, str], int] = {}
    for op in plan:
        top[op["check"], op["tag"]] = max(top.get((op["check"], op["tag"]), 0), op["degree"])
    for (check, tag), degree in sorted(top.items()):
        ops = get_algebra(tag)
        if check == "coassociativity":
            for n in range(degree + 1):
                enumerations.append((tag, n))
                for key in ops.keys_of_degree(n):
                    coproducts.append((tag, key))
                    if tag != "wqsym":  # value thresholds, no cuts or ideals
                        cut_keys.append((tag, plane_to_ordered(key) if tag == "nck" else key))
        elif check == "bialgebra_compat":
            for total in range(degree + 1):
                for da in range(total + 1):
                    for a in ops.keys_of_degree(da):
                        for b in ops.keys_of_degree(total - da):
                            products.append((tag, a, b))
                            tensors.append((ops.coproduct(a), ops.coproduct(b)))

    m: dict[str, float] = {}
    m["structures.enumerate_s"], found = _timed(lambda tag, n: get_algebra(tag).keys_of_degree(n), enumerations)
    m["structures.keys"] = sum(len(keys) for keys in found)
    m["structures.cuts_s"], found = _timed(_cuts, cut_keys)
    m["structures.cuts"] = sum(len(cuts) for cuts in found)
    for tag, module in KERNEL_MODULES.items():
        pairs = [p for p in products if p[0] == tag]
        keys = [k for k in coproducts if k[0] == tag]
        m[f"{module}.{tag}.product_s"], prods = _timed(_kernel_product, pairs)
        m[f"{module}.{tag}.product_calls"] = len(pairs)
        m[f"{module}.{tag}.coproduct_s"], coprods = _timed(_kernel_coproduct, keys)
        m[f"{module}.{tag}.coproduct_terms"] = _terms(coprods)
        if tag == "wqsym":  # the product scans (|u|+|v|)^(|u|+|v|) tuples
            scanned = sum((a.n + b.n) ** (a.n + b.n) for _, a, b in pairs)
            m["words.wqsym.product_yield"] = _terms(prods) / scanned
    m["algebra.tensor_product_s"], _ = _timed(tensor_product, tensors)
    return m


# ---------------------------------------------------------------------------
# realize: word iteration, realizations, doubling, rank, verify
# ---------------------------------------------------------------------------

def _single_key(x: FreeElement):
    (key,) = x.terms
    return key


def _count_words(version: str, key, size: int) -> int:
    return sum(1 for _ in WORD_ITERS[version](key, size))


def _realize(version: str, key, size: int):
    return realizer_for(version)(key, size)


def _poly_mul(p, q):
    return p * q


def _double_and_group(version: str, key, size: int) -> int:
    poly = oplus_double(key, version, size)
    group_doubled(poly)
    return len(poly)


def _sweep_realize(items: list) -> dict[str, float]:
    """Realizations of every key a check realized (the keys of a pair and
    of their product, a doubled key's coproduct factors, the rank keys)."""
    realizations, poly_pairs, doublings, ranks, mults = [], [], [], [], []
    for op, args in items:
        version, size = op["version"], op["N"]
        ops = get_algebra(FAMILIES[version][0])
        if op["op"] == "multiplicativity":
            a, b = args
            poly_pairs.append((version, a, b, size))
            mults.append((version, a, b, size))
            ab = _single_key(ops.product(a, b))
            realizations.extend([(version, a, size), (version, b, size), (version, ab, size)])
        elif op["op"] == "doubling":
            (key,) = args
            doublings.append((version, key, size))
            for left, right in ops.coproduct(key).terms:
                realizations.extend([(version, left, size), (version, right, size)])
        else:
            ranks.append((version, args[0], size))
            realizations.extend((version, k, size) for k in args[0])
    realizations = _distinct(realizations)

    m: dict[str, float] = {}
    words_s, counts = _timed(_count_words, realizations)
    m["realization.words"] = sum(counts)
    m["realization.words_per_s"] = m["realization.words"] / words_s
    m["realization.realize_s"], _ = _timed(_realize, realizations)
    polys = [(_realize(v, a, n), _realize(v, b, n)) for v, a, b, n in poly_pairs]
    m["realization.poly_mul_s"], _ = _timed(_poly_mul, polys)
    del polys
    m["realization.doubling_s"], counts = _timed(_double_and_group, doublings)
    m["realization.doubled_words"] = sum(counts)
    rows = [[_realize(v, k, n).terms for k in keys] for v, keys, n in ranks]
    m["realization.rank_s"], _ = _timed(rank_of_rows, [(r,) for r in rows])
    m["realization.rank_rows"] = sum(len(r) for r in rows)
    m["realization.rank_cols"] = sum(len({w for row in r for w in row}) for r in rows)
    del rows
    m["verify.cases"] = len(mults) + len(doublings)
    m["verify.multiplicativity_s"], _ = _timed(multiplicativity_ok, mults)
    m["verify.doubling_s"], _ = _timed(doubling_transport_ok, doublings)
    return m


# ---------------------------------------------------------------------------
# elements: element-level algebra, JSON, bases, morphisms
# ---------------------------------------------------------------------------

def _sweep_elements(plan: list[dict]) -> dict[str, float]:
    """Each request's decoded inputs, fed to the function its op calls."""
    by_op: dict[str, list] = {}
    decodes = []
    for req in plan:
        op = req["op"]
        if op == "faa_di_bruno":
            by_op.setdefault(op, []).append((req["n"],))
            continue
        args = [element_from_json(req[side])[0] for side in ("x", "y") if side in req]
        decodes.extend((req[side],) for side in ("x", "y") if side in req)
        if op in R_RULES:
            args = [R_RULES[op], *args]
            op = "r_product"
        by_op.setdefault(op, []).append(tuple(args))

    m: dict[str, float] = {}
    encode: list[tuple] = []  # (output, basis) of every op that returns an element
    m["algebra.antipode_s"], outs = _timed(antipode, by_op["antipode"])
    m["algebra.antipode_cache_size"] = len(algebra._ANTIPODE_CACHE)
    terms_out = _terms(outs)
    encode.extend((x, None) for x in outs)
    m["algebra.product_elements_s"], outs = _timed(product_elements, by_op["product"])
    terms_out += _terms(outs)
    encode.extend((x, None) for x in outs)
    m["algebra.coproduct_element_s"], tensors = _timed(coproduct_element, by_op["coproduct"])
    m["algebra.terms_out"] = terms_out + _terms(tensors)
    m["algebra.json_decode_s"], _ = _timed(element_from_json, decodes)

    m["bases.to_r_s"], outs = _timed(bases.to_r_basis, by_op["to_r_basis"])
    encode.extend((x, "R") for x in outs)
    m["bases.to_s_s"], outs = _timed(bases.to_s_basis, by_op["to_s_basis"])
    encode.extend((x, "S") for x in outs)
    m["bases.r_product_s"], outs = _timed(r_product, by_op["r_product"])
    encode.extend((x, "R") for x in outs)
    candidates = 0  # the R products scan every forest or endofunction of the target degree
    for rule, x, y in by_op["r_product"]:
        for a in x.terms:
            for b in y.terms:
                n = a.n + b.n
                candidates += (n + 1) ** (n - 1) if rule is bases.r_product_forest else n**n
    m["bases.candidates"] = candidates
    m["bases.yield"] = _terms(outs) / candidates

    m["morphisms.pi_s"], outs = _timed(morphisms.pi_hopf, by_op["pi"])
    encode.extend((x, "M") for x in outs)
    scanned = sum(key.n**key.n for (x,) in by_op["pi"] for key in x.terms)  # pi scans n^n tuples
    m["morphisms.pi_yield"] = _terms(outs) / scanned
    m["morphisms.f_F_s"], outs = _timed(f_F, by_op["f_F"])
    encode.extend((x, "S") for x in outs)
    m["morphisms.ck_s"], outs = _timed(morphisms.ck_projection, by_op["ck_projection"])
    encode.extend((x, "S") for x in outs)
    m["morphisms.faa_di_bruno_s"], _ = _timed(morphisms.check_faa_di_bruno, by_op["faa_di_bruno"])

    encode_s, _ = _timed(element_to_json, encode)
    tensor_s, _ = _timed(tensor_to_json, [(t,) for t in tensors])
    m["algebra.json_encode_s"] = encode_s + tensor_s
    return m


SWEEPS = {"axioms": _sweep_axioms, "realize": _sweep_realize, "elements": _sweep_elements}


def sweep(workload: str, items: list) -> dict[str, float]:
    """The layer metrics homed at ``workload``, on its materialized plan."""
    return SWEEPS[workload](items)
