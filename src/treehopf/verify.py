"""Brute-force verification suites and the worked-example replay.

Every suite yields its (label, ok, detail) triples as its checks end, so the
CLI prints each line as it comes and the acceptance tests share one engine;
a failed check names up to three failing cases.  The golden files under
``golden/`` hold the stored worked examples in the element JSON schema;
replay failures print a term-level diff.

The realization checks touch each word a fixed number of times: the product
check matches the words of S^{x.y} against the concatenations of S^x and S^y
one row at a time, as the engine streams them, and sorts the three lists only
when that fails; the doubling check compares the doubled blocks (one
rectangle of sorted A- and B-subwords per closed set) with the coproduct's
rectangles, counting word pairs only when the two multisets differ.
"""

from __future__ import annotations

import itertools
import json
from functools import cache, partial
from importlib import resources
from typing import Callable, Iterable, Iterator

from . import bases, morphisms
from .algebra import (
    check_antipode,
    check_bialgebra_compat,
    check_coassociativity,
    get_algebra,
    keys_up_to,
    tensor_to_json,
    element_to_json,
)
from .endo import ideals
from .forests import nwarrow
from .realization import FAMILIES, code_base, family, pi_image, rank_check
from .structures import Endofunction, OrderedForest, PlaneForest, RootedForest, plane_to_ordered

Outcome = tuple[str, bool, str]

CHECK_ALGEBRAS = ("ck", "nck", "ho", "wqsym", "sgsym", "efsym")


# suite name -> the check it runs on each algebra up to a degree
AXIOM_CHECKS: dict[str, Callable] = {
    "coassoc": check_coassociativity,
    "compat": lambda tag, d: check_bialgebra_compat(tag, d, sample_degree=4),
    "antipode": check_antipode,
}


def _with_cases(detail: str, failed: list[str]) -> str:
    """``detail``, followed on a failure by the first three failing cases."""
    return f"{detail}: {'; '.join(failed[:3])}" if failed else detail


def suite_axiom(name: str, max_degree: int = 3) -> Iterator[Outcome]:
    for tag in CHECK_ALGEBRAS:
        rep = AXIOM_CHECKS[name](tag, max_degree)
        yield (f"{name}[{tag}] deg<={max_degree}", rep.ok, _with_cases(rep.summary(), rep.failures))


# ---------------------------------------------------------------------------
# Realization suite
# ---------------------------------------------------------------------------

def _concatenations_match(target: Iterable[int], firsts: list, seconds: list, shift: int) -> bool:
    """``target`` yields w1 + w2 * shift for w2 in ``seconds`` for w1 in
    ``firsts`` and nothing more; it is read one row of len(firsts) at a time."""
    target, width, end = iter(target), len(firsts), object()
    return all(
        list(itertools.islice(target, width)) == [w1 + offset for w1 in firsts]
        for offset in [w2 * shift for w2 in seconds]
    ) and next(target, end) is end


def multiplicativity_ok(version: str, left, right, size: int) -> bool:
    """S^x S^y = S^{x.y}.

    When x.y is one key with coefficient 1 (in every family it is the shifted
    concatenation), S^x S^y is the set of concatenations w1 + w2 * base^|x|.
    The engine yields the words of S^{x.y} in that order (see
    ``realization._steps``), so they are compared with the concatenations
    as they stream, one row of |S^x| words at a time: a match is exact.
    Otherwise the three lists, deduplicated and sorted, are compared again:
    in (w2, w1) order the concatenations of sorted lists come out sorted.
    No polynomial product is built.  Other products compare the realized
    polynomials."""
    fam = family(version)
    product = fam.ops.product(left, right)
    if list(product.terms.values()) != [1]:
        return fam.realize(left, size) * fam.realize(right, size) == fam.realize(product, size)
    (key,) = product.terms
    firsts, seconds = (list(fam.words(x, size)) for x in (left, right))
    shift = code_base(size) ** left.n
    if _concatenations_match(fam.words(key, size), firsts, seconds, shift):
        return True
    return _concatenations_match(sorted(set(fam.words(key, size))), sorted(set(firsts)), sorted(set(seconds)), shift)


def _pair_counts_ok(blocks: Iterable[tuple[int, list, list]], terms: dict, realized: Callable) -> bool:
    """Doubled words counted by (A-subword, B-subword) against the coproduct
    terms' pairs of words, counted with their coefficients."""
    grouped: dict = {}
    for _, a_codes, b_codes in blocks:
        for pair in itertools.product(a_codes, b_codes):
            grouped[pair] = grouped.get(pair, 0) + 1
    expected: dict = {}
    for (a, b), coeff in terms.items():
        for pair in itertools.product(realized(a), realized(b)):
            expected[pair] = expected.get(pair, 0) + coeff
    return grouped == expected


def _blocks_match(blocks: Iterable[tuple[int, list, list]], expected: dict) -> bool:
    """Take each block's rectangle, its sorted A- and B-subwords, out of
    ``expected``: true when every block finds one and none is left over.
    The expected rectangles hold distinct words, so a block that repeats a
    word finds none."""
    for _, a_codes, b_codes in blocks:
        rectangle = (tuple(sorted(a_codes)), tuple(sorted(b_codes)))
        if all(rectangle):  # an empty side holds no word pairs
            if expected.get(rectangle, 0) < 1:
                return False
            expected[rectangle] -= 1
    return not any(expected.values())


def doubling_transport_ok(version: str, key, size: int) -> bool:
    """Grouping S^x(A+B) by sides reproduces the coproduct term by term.

    Each closed set gives one block, the rectangle of its A-subwords times
    its B-subwords; each coproduct term x' (x) x'' with coefficient c gives c
    copies of the rectangle S^x' x S^x''.  A rectangle is keyed by its two
    sorted word lists.  Equal multisets of rectangles give equal counts of
    word pairs, so the check compares rectangles and touches each word a
    fixed number of times.  When they differ it counts the pairs, so the
    verdict is exact."""
    fam = family(version)
    terms = fam.ops.coproduct(key).terms

    @cache
    def realized(x) -> tuple:
        return tuple(sorted(set(fam.words(x, size))))

    expected: dict = {}
    for (a, b), coeff in terms.items():
        rectangle = (realized(a), realized(b))
        if all(rectangle):
            expected[rectangle] = expected.get(rectangle, 0) + coeff
    blocks = partial(fam.words, key, size, True)
    return _blocks_match(blocks(), expected) or _pair_counts_ok(blocks(), terms, realized)


# truncation N of the product and doubling checks
REALIZATION_SIZE = 8


def _counted(label: str, unit: str, checks: Iterable[tuple[str, bool]]) -> Outcome:
    """One outcome for a stream of (case, verdict) pairs: cases and failures."""
    cases, failed = 0, []
    for case, ok in checks:
        cases += 1
        if not ok:
            failed.append(case)
    return (label, not failed, _with_cases(f"{cases} {unit}, {len(failed)} failures", failed))


def suite_realization(max_degree: int = 3) -> Iterator[Outcome]:
    size = REALIZATION_SIZE
    for version, fam in FAMILIES.items():
        keys = keys_up_to(fam.ops, max_degree)
        pairs = (
            (a, b)
            for total in range(2, max_degree + 1)
            for d1 in range(1, total)
            for a in keys[d1]
            for b in keys[total - d1]
        )
        where = f"[{version}] deg<={max_degree} N={size}"
        products = ((f"{a.render()} | {b.render()}", multiplicativity_ok(version, a, b, size)) for a, b in pairs)
        doublings = ((key.render(), doubling_transport_ok(version, key, size)) for degree in keys for key in degree)
        yield _counted(f"realize-product{where}", "pairs", products)
        yield _counted(f"realize-doubling{where}", "keys", doublings)
    for version, fam in FAMILIES.items():
        if fam.internal:
            continue
        for d in range(1, max_degree + 1):
            rep = rank_check(fam.ops.keys_of_degree(d), fam, 2 * d + 2, label=f"{version} deg {d}")
            yield (f"realize-rank[{version}] deg {d} N={2 * d + 2}", rep.full, rep.summary())


# ---------------------------------------------------------------------------
# Golden example replay
# ---------------------------------------------------------------------------

def _diff_terms(expected: list[dict], got: list[dict]) -> str:
    exp = {tuple(sorted(t.items())) for t in expected}
    act = {tuple(sorted(t.items())) for t in got}
    missing = exp - act
    extra = act - exp
    bits = []
    if missing:
        bits.append("missing: " + "; ".join(str(dict(t)) for t in sorted(missing)))
    if extra:
        bits.append("unexpected: " + "; ".join(str(dict(t)) for t in sorted(extra)))
    return " | ".join(bits) or "exact match"


def _key(case: dict, field: str = "key"):
    return get_algebra(case["algebra"]).parse_key(case[field])


def _coproduct_terms(case: dict) -> list[dict]:
    return tensor_to_json(get_algebra(case["algebra"]).coproduct(_key(case)))["terms"]


def _r_from_s_terms(case: dict) -> list[dict]:
    return element_to_json(bases.R_BASES[case["algebra"]].r_from_s(_key(case)))["terms"]


def _r_product_terms(case: dict) -> list[dict]:
    product = bases.R_BASES[case["algebra"]].r_product(_key(case, "left"), _key(case, "right"))
    return element_to_json(product, basis="R")["terms"]


def _r_commutative_terms(case: dict) -> list[dict]:
    return element_to_json(bases.r_commutative(RootedForest.parse(case["key"])))["terms"]


def _doubling_matches(case: dict) -> bool:
    fam = family(case["version"])
    return doubling_transport_ok(fam.version, fam.ops.parse_key(case["object"]), case["indices"])


def _quoted(expected, got) -> str:
    return f"expected {expected!r}, got {got!r}"


def _transport(expected, got) -> str:
    return "doubling matches coproduct" if got else "doubling DIFFERS from coproduct"


# op -> (compute the result from the case, describe expected vs. result)
_REPLAY: dict[str, tuple[Callable[[dict], object], Callable[[object, object], str]]] = {
    "coproduct": (_coproduct_terms, _diff_terms),
    "nwarrow": (
        lambda c: nwarrow(OrderedForest.parse(c["left"]), OrderedForest.parse(c["right"])).render(),
        _quoted,
    ),
    "plane_to_ordered": (lambda c: plane_to_ordered(PlaneForest.parse(c["key"])).render(), _quoted),
    "pi": (lambda c: element_to_json(pi_image(OrderedForest.parse(c["key"])))["terms"], _diff_terms),
    "forest_to_endo": (lambda c: morphisms.forest_to_endo(OrderedForest.parse(c["key"])).render(), _quoted),
    "ideals": (lambda c: [sorted(i) for i in ideals(Endofunction.parse(c["key"]))], _quoted),
    "r_from_s": (_r_from_s_terms, _diff_terms),
    "r_product": (_r_product_terms, _diff_terms),
    "r_commutative": (_r_commutative_terms, _diff_terms),
    "oplus_transport": (_doubling_matches, _transport),
}


def _replay_case(case: dict) -> Outcome:
    try:
        compute, describe = _REPLAY[case["op"]]
    except KeyError:
        raise ValueError(f"unknown golden op {case['op']!r}") from None
    got = compute(case)
    # A doubling case stores no result: it asserts the identity holds.
    expected = case.get("expected", True)
    return (case["name"], got == expected, describe(expected, got))


def suite_examples() -> Iterator[Outcome]:
    for entry in sorted(resources.files("treehopf.golden").iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            yield from map(_replay_case, json.loads(entry.read_text())["cases"])


SUITES: dict[str, Callable[[int], Iterator[Outcome]]] = {
    **{name: partial(suite_axiom, name) for name in AXIOM_CHECKS},
    "realization": suite_realization,
    "examples": lambda d: suite_examples(),
}
# "all" chains the suites registered above, in order, so it never chains itself.
SUITES["all"] = partial(
    lambda suites, d: (outcome for suite in suites for outcome in suite(d)), tuple(SUITES.values())
)
