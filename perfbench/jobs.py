"""The three timed jobs and their correctness gate.

A job runs its plan one op after another in one process: a closed loop
with one client and no threads.  Each op is timed on its own; the checks
of the outputs run after the last op, outside every timed region.  A
failed check, a wrong output or an exception counts as one failed op.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback

from treehopf import bases, morphisms
from treehopf.algebra import (
    FreeElement,
    antipode,
    check_antipode,
    check_bialgebra_compat,
    check_coassociativity,
    coproduct_element,
    counit,
    element_from_json,
    element_to_json,
    get_algebra,
    product_elements,
    tensor_from_json,
    tensor_to_json,
    unit_element,
)
from treehopf.realization import rank_check, realizer_for
from treehopf.verify import doubling_transport_ok, multiplicativity_ok

from plans import FAMILIES
from tracing import Tracer

# Graded dimensions up to degree 5 (OEIS A000081 shifted, Catalan,
# (n+1)^(n-1), Fubini, n!, n^n): the case count every check must report.
DIMS = {
    "ck": (1, 1, 2, 4, 9, 20),
    "nck": (1, 1, 2, 5, 14, 42),
    "ho": (1, 1, 3, 16, 125, 1296),
    "wqsym": (1, 1, 3, 13, 75, 541),
    "sgsym": (1, 1, 2, 6, 24, 120),
    "efsym": (1, 1, 4, 27, 256, 3125),
}

AXIOM_CHECKS = {
    "coassociativity": check_coassociativity,
    "bialgebra_compat": check_bialgebra_compat,
    "antipode": check_antipode,
}

MAX_REPORTED_FAILURES = 5


def expected_cases(check: str, tag: str, degree: int) -> int:
    dims = DIMS[tag]
    if check == "coassociativity":
        return sum(dims[: degree + 1])
    if check == "antipode":
        return sum(dims[1 : degree + 1])
    return sum(dims[da] * dims[t - da] for t in range(degree + 1) for da in range(t + 1))


def canonical_digest(encoded) -> str:
    text = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Set-up: turn a plan into the arguments the timed ops take
# ---------------------------------------------------------------------------

def materialize(workload: str, plan: list[dict]) -> list:
    """Parse the keys a realize op needs; other plans are used as they are
    (element requests are decoded inside the timed op, as the CLI does)."""
    if workload != "realize":
        return plan
    out = []
    for op in plan:
        parse = get_algebra(FAMILIES[op["version"]][0]).parse_key
        if op["op"] == "multiplicativity":
            args = (parse(op["left"]), parse(op["right"]))
        elif op["op"] == "doubling":
            args = (parse(op["key"]),)
        else:
            args = ([parse(k) for k in op["keys"]],)
        out.append((op, args))
    return out


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

def _axiom_op(tr: Tracer, op: dict):
    with tr.span(f"algebra.check_{op['check']}"):
        return AXIOM_CHECKS[op["check"]](op["tag"], op["degree"])


def _axiom_failure(op: dict, report) -> str | None:
    want = expected_cases(op["check"], op["tag"], op["degree"])
    if not report.ok:
        return f"{report.summary()}: {report.failures[:3]}"
    if report.checked != want:
        return f"{report.summary()}: expected {want} cases"
    return None


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------

def _realize_op(tr: Tracer, item):
    op, args = item
    version, size = op["version"], op["N"]
    if op["op"] == "multiplicativity":
        with tr.span("verify.multiplicativity_ok"):
            return multiplicativity_ok(version, *args, size)
    if op["op"] == "doubling":
        with tr.span("verify.doubling_transport_ok"):
            return doubling_transport_ok(version, *args, size)
    with tr.span("realization.rank_check"):
        return rank_check(args[0], realizer_for(version), size, label=f"{version} N={size}")


def _realize_failure(item, result) -> str | None:
    op, args = item
    if op["op"] == "rank":
        if result.full and result.keys == len(args[0]):
            return None
        return result.summary()
    if result is True:
        return None
    return f"{op['op']}[{op['version']}] {op.get('left', op.get('key'))} {op.get('right', '')} failed"


# ---------------------------------------------------------------------------
# elements: decode, one operation, encode -- what the CLI does per call
# ---------------------------------------------------------------------------

def _decode(tr: Tracer, data: dict) -> FreeElement:
    with tr.span("algebra.element_from_json"):
        return element_from_json(data)[0]


def _encode(tr: Tracer, x: FreeElement, basis: str | None) -> dict:
    with tr.span("algebra.element_to_json"):
        return element_to_json(x, basis=basis)


def _product(tr, req):
    x, y = _decode(tr, req["x"]), _decode(tr, req["y"])
    with tr.span("algebra.product_elements"):
        out = product_elements(x, y)
    return out, _encode(tr, out, None)


def _coproduct(tr, req):
    x = _decode(tr, req["x"])
    with tr.span("algebra.coproduct_element"):
        out = coproduct_element(x)
    with tr.span("algebra.tensor_to_json"):
        return out, tensor_to_json(out)


def _map_op(span: str, fn, basis: str | None):
    def run(tr, req):
        x = _decode(tr, req["x"])
        with tr.span(span):
            out = fn(x)
        return out, _encode(tr, out, basis)

    return run


def r_product(rule, x: FreeElement, y: FreeElement) -> FreeElement:
    """Linear extension of an R-basis product rule, as ``treehopf product
    --basis R`` computes it."""
    out = FreeElement(x.algebra)
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            out = out + (ca * cb) * rule(a, b)
    return out


def _r_product(rule):
    span = f"bases.{rule.__name__}"

    def run(tr, req):
        x, y = _decode(tr, req["x"]), _decode(tr, req["y"])
        with tr.span(span):
            out = r_product(rule, x, y)
        return out, _encode(tr, out, "R")

    return run


def f_F(x: FreeElement) -> FreeElement:
    """The f_F map of ``treehopf morphism --map f_F``."""
    return x.map_keys(morphisms.forest_to_endo, algebra="efsym")


def _faa(tr, req):
    with tr.span("morphisms.check_faa_di_bruno"):
        out = morphisms.check_faa_di_bruno(req["n"])
    return out, {"ok": out}


ELEMENT_OPS = {
    "product": _product,
    "coproduct": _coproduct,
    "antipode": _map_op("algebra.antipode", antipode, None),
    "to_r_basis": _map_op("bases.to_r_basis", bases.to_r_basis, "R"),
    "to_s_basis": _map_op("bases.to_s_basis", bases.to_s_basis, "S"),
    "r_product_forest": _r_product(bases.r_product_forest),
    "r_product_endo": _r_product(bases.r_product_endo),
    "pi": _map_op("morphisms.pi_hopf", morphisms.pi_hopf, "M"),
    "f_F": _map_op("morphisms.f_F", f_F, "S"),
    "ck_projection": _map_op("morphisms.ck_projection", morphisms.ck_projection, "S"),
    "faa_di_bruno": _faa,
}

# Ops without a cheap independent identity are checked against the digest
# of their canonical JSON, recorded in pool.json at the seed commit.  The
# R -> S -> R round trip of to_s_basis took longer than every other check
# of a job together, so it left room for fewer jobs in a run.
DIGEST_OPS = {"product", "coproduct", "to_s_basis", "r_product_forest", "r_product_endo", "pi", "f_F",
              "ck_projection"}


def _antipode_identity(x: FreeElement, out: FreeElement) -> bool:
    """m(id (x) S)Delta(x) = counit(x).1, with S(x) = out for the 1 (x) x
    part of the coproduct.  The library computes S by the other-sided
    recursion S(x) = -x - sum S(x')x'', so this identity is not one of its
    steps, and a wrong ``out``, a wrong lower-degree antipode or a wrong
    kernel breaks it."""
    unit_key = get_algebra(x.algebra).unit_key
    conv = out
    for (a, b), c in coproduct_element(x).terms.items():
        if a != unit_key:
            conv = conv + c * product_elements(FreeElement.from_key(x.algebra, a),
                                               antipode(FreeElement.from_key(x.algebra, b)))
    return conv == counit(x) * unit_element(x.algebra)


def element_failure(req: dict, out, encoded: dict) -> str | None:
    """Why an elements output is wrong, or None when every check passes."""
    op = req["op"]
    if op == "faa_di_bruno":
        return None if out is True and encoded == {"ok": True} else "Faa di Bruno identity fails"
    if op == "coproduct":
        if tensor_from_json(encoded) != out:
            return "tensor JSON round trip differs"
    elif element_from_json(encoded)[0] != out:
        return "element JSON round trip differs"
    if op in DIGEST_OPS:
        return None if canonical_digest(encoded) == req["digest"] else "digest differs from the seed commit"
    x = element_from_json(req["x"])[0]
    if op == "antipode":
        return None if _antipode_identity(x, out) else "antipode convolution identity fails"
    if op == "to_r_basis":
        return None if bases.to_s_basis(out) == x else "S -> R -> S round trip differs"
    return f"no check for op {op!r}"


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------

def _last_line() -> str:
    return traceback.format_exc(limit=2).strip().splitlines()[-1]


def _describe(workload: str, item) -> str:
    if workload == "realize":
        item = item[0]
    return json.dumps(item, sort_keys=True)[:160]


def _run_op(workload: str, tracer: Tracer, item):
    if workload == "axioms":
        return _axiom_op(tracer, item)
    if workload == "realize":
        return _realize_op(tracer, item)
    return ELEMENT_OPS[item["op"]](tracer, item)


def _failure(workload: str, item, result) -> str | None:
    if workload == "axioms":
        return _axiom_failure(item, result)
    if workload == "realize":
        return _realize_failure(item, result)
    return element_failure(item, *result)


def run_job(workload: str, items: list, tracer: Tracer) -> dict:
    """Run every op of a materialized plan, then check every output; returns
    the op durations and the failed ops.

    The checks call the library too, so they run after the last timed op:
    a check cannot fill a cache that a later timed op would read."""
    durations: list[float] = []
    outcomes: list[tuple[object, str | None]] = []  # (result, reason it raised)
    with tracer.span(f"job.{workload}"):
        for item in items:
            t0 = time.perf_counter()
            try:
                with tracer.span("op"):
                    outcomes.append((_run_op(workload, tracer, item), None))
            except Exception:  # an op that raises is a failed op; keep going
                outcomes.append((None, _last_line()))
            durations.append(time.perf_counter() - t0)
        failures: list[str] = []
        failed = 0
        with tracer.span("check"):
            for i, (item, (result, reason)) in enumerate(zip(items, outcomes)):
                if reason is None:
                    try:
                        reason = _failure(workload, item, result)
                    except Exception:  # a check that raises fails its op
                        reason = _last_line()
                if reason is not None:
                    failed += 1
                    if len(failures) < MAX_REPORTED_FAILURES:
                        failures.append(f"op {i} {_describe(workload, item)}: {reason}")
    return {
        "durations": durations,
        "failed": failed,
        "failures": failures,
    }
