"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; the same checks back the CLI's ``verify`` command.
"""

import time

from oracles import pi_plane_ranks, product_key
from treehopf.algebra import (
    TensorElement,
    FreeElement,
    get_algebra,
    check_antipode,
    check_bialgebra_compat,
    check_coassociativity,
    coproduct_element,
    product_elements,
)
from treehopf.bases import (
    quotient_r,
    r_from_s_endo,
    r_product_endo,
    r_product_forest,
)
from treehopf.endo import (
    is_acyclic,
    is_burnside,
    is_idempotent,
    is_nondecreasing,
    is_nondecreasing_parking,
    is_permutation,
)
from treehopf.morphisms import (
    b_plus,
    check_faa_di_bruno,
    f_w_preimage,
    forest_to_endo,
    minimal_admissible_word,
)
from treehopf.realization import (
    commutative_image,
    family,
    pi_image,
    rank_check,
    realizer_for,
)
from treehopf.structures import (
    Endofunction,
    canonicalize,
    enumerate_endofunctions,
    enumerate_ordered_forests,
    enumerate_packed_words,
    enumerate_plane_forests,
)
from treehopf.verify import (
    doubling_transport_ok,
    multiplicativity_ok,
    suite_examples,
)
from treehopf.words import b_endomorphism

ALGEBRAS = ("ck", "nck", "ho", "wqsym", "sgsym", "efsym")


def report(number, name, budget_seconds=None):
    """Decorator printing one PASS/FAIL line per criterion."""

    def wrap(fn):
        def inner():
            start = time.time()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} {name}: FAIL")
                raise
            elapsed = time.time() - start
            print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)")
            if budget_seconds is not None:
                assert elapsed < budget_seconds, f"budget {budget_seconds}s exceeded: {elapsed:.1f}s"

        inner.__name__ = fn.__name__
        return inner

    return wrap


@report(1, "dimension sequences", budget_seconds=10)
def test_criterion_1_dimension_sequences():
    assert [len(enumerate_ordered_forests(n)) for n in range(6)] == [1, 1, 3, 16, 125, 1296]
    assert [len(enumerate_plane_forests(n)) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    assert [len(enumerate_endofunctions(n)) for n in range(6)] == [1, 1, 4, 27, 256, 3125]


@report(2, "worked-example replay", budget_seconds=30)
def test_criterion_2_worked_example_replay():
    outcomes = suite_examples()
    failures = [f"{name}: {detail}" for name, ok, detail in outcomes if not ok]
    assert not failures, "\n".join(failures)
    assert len(outcomes) >= 40  # the full stored example set


@report(3, "Hopf axioms by brute force", budget_seconds=300)
def test_criterion_3_hopf_axioms():
    for tag in ALGEBRAS:
        assert check_coassociativity(tag, 3).ok, tag
        assert check_bialgebra_compat(tag, 3, sample_degree=4).ok, tag
        assert check_antipode(tag, 3).ok, tag


@report(4, "realization theorems at truncation", budget_seconds=300)
def test_criterion_4_realization_theorems():
    for version in ("v1", "v2", "func", "perm"):
        for total in (2, 3):
            for d1 in range(1, total):
                for a in family(version).ops.keys_of_degree(d1):
                    for b in family(version).ops.keys_of_degree(total - d1):
                        assert multiplicativity_ok(version, a, b, 8), (version, a, b)
        for degree in range(4):
            for key in family(version).ops.keys_of_degree(degree):
                assert doubling_transport_ok(version, key, 8), (version, key)


@report(5, "linear independence of realized bases")
def test_criterion_5_linear_independence():
    for version in ("v1", "v2", "func"):
        for degree in (1, 2, 3):
            rep = rank_check(
                family(version).ops.keys_of_degree(degree),
                realizer_for(version),
                2 * degree + 2,
                label=f"{version} degree {degree}",
            )
            assert rep.full, rep.summary()


@report(6, "morphism suite")
def test_criterion_6_morphism_suite():
    forests_by_degree = {n: enumerate_ordered_forests(n) for n in range(4)}
    # pi is an algebra and coalgebra morphism
    for n1 in (1, 2):
        for a in forests_by_degree[n1]:
            for b in forests_by_degree[3 - n1]:
                assert pi_image(product_key("ho", a, b)) == product_elements(pi_image(a), pi_image(b))
    for n in range(4):
        for forest in forests_by_degree[n]:
            mapped = {}
            for (x, y), c in get_algebra("ho").coproduct(forest).terms.items():
                for u, cu in pi_image(x).terms.items():
                    for v, cv in pi_image(y).terms.items():
                        mapped[(u, v)] = mapped.get((u, v), 0) + c * cu * cv
            assert TensorElement("wqsym", mapped) == coproduct_element(pi_image(forest))
            # pi . B+ = b . pi
            assert pi_image(b_plus(forest)) == b_endomorphism(pi_image(forest))
    # rank of pi on plane images is Catalan through degree 4
    assert pi_plane_ranks(4) == {1: (1, 1, 1), 2: (2, 2, 2), 3: (5, 5, 5), 4: (14, 14, 14)}
    # the embedding into endofunctions is injective and Hopf
    for n in range(4):
        images = [forest_to_endo(f) for f in forests_by_degree[n]]
        assert len(set(images)) == len(images)
        for forest in forests_by_degree[n]:
            mapped = {
                (forest_to_endo(x), forest_to_endo(y)): c
                for (x, y), c in get_algebra("ho").coproduct(forest).terms.items()
            }
            assert TensorElement("efsym", mapped) == get_algebra("efsym").coproduct(forest_to_endo(forest))
    for n1 in (1, 2):
        for a in forests_by_degree[n1]:
            for b in forests_by_degree[3 - n1]:
                endo_ab = product_key("efsym", forest_to_endo(a), forest_to_endo(b))
                assert forest_to_endo(product_key("ho", a, b)) == endo_ab
    # commutative image realizes the commutative forest algebra with the right kernel
    for n in (1, 2, 3):
        keys = forests_by_degree[n]
        for version in ("v1", "v2"):
            images = {f: commutative_image(family(version).realize(f, 2 * n + 2)) for f in keys}
            for f in keys:
                for g in keys:
                    assert (images[f] == images[g]) == (canonicalize(f) == canonicalize(g))
    # minimal-word property of the preimages
    for n in (1, 2, 3):
        for w in enumerate_packed_words(n):
            assert minimal_admissible_word(f_w_preimage(w)) == w


@report(7, "noncommutative Faa di Bruno identity", budget_seconds=60)
def test_criterion_7_faa_di_bruno():
    for n in range(5):
        assert check_faa_di_bruno(n), n


@report(8, "ideal and quotient suite")
def test_criterion_8_ideals_and_quotients():
    # the span of non-acyclic S keys is a Hopf ideal in degree <= 3
    for n in range(4):
        for f in enumerate_endofunctions(n):
            if is_acyclic(f):
                continue
            for (a, b), _ in get_algebra("efsym").coproduct(f).terms.items():
                assert not is_acyclic(a) or not is_acyclic(b)
    # the span of non-acyclic R elements is an ideal under the R product
    keys = [f for n in (1, 2) for f in enumerate_endofunctions(n)]
    for a in keys:
        for b in keys:
            if a.n + b.n > 3 or (is_acyclic(a) and is_acyclic(b)):
                continue
            for term in r_product_endo(a, b).terms:
                assert not is_acyclic(term)
    # the two ideals differ in degree 2
    r21 = r_from_s_endo(Endofunction((2, 1)))
    assert set(r21.terms) == {
        Endofunction((2, 1)),
        Endofunction((1, 1)),
        Endofunction((2, 2)),
        Endofunction((1, 2)),
    }
    # quotient product table matches the forest R product through the embedding
    pool = [f for n in (1, 2) for f in enumerate_ordered_forests(n)]
    for a in pool:
        for b in pool:
            if a.n + b.n > 3:
                continue
            forest_side = FreeElement("efsym")
            for g, c in r_product_forest(a, b).terms.items():
                forest_side = forest_side + FreeElement.from_key("efsym", forest_to_endo(g), c)
            assert forest_side == quotient_r(r_product_endo(forest_to_endo(a), forest_to_endo(b)))


@report(9, "subalgebra closures")
def test_criterion_9_subalgebra_closures():
    families = {
        "permutations": is_permutation,
        "acyclic": is_acyclic,
        "nondecreasing": is_nondecreasing,
        "nondecreasing parking": is_nondecreasing_parking,
        "burnside(2,4)": lambda f: is_burnside(f, 2, 4),
        "idempotent": is_idempotent,
    }
    for name, member in families.items():
        keys = [f for n in range(4) for f in enumerate_endofunctions(n) if member(f)]
        for f in keys:
            for g in keys:
                assert member(product_key("efsym", f, g)), (name, f, g)
            for (a, b), _ in get_algebra("efsym").coproduct(f).terms.items():
                assert member(a) and member(b), (name, f)
