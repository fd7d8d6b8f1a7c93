import itertools
import random

import pytest

from oracles import product_key
from treehopf.algebra import TensorElement, check_bialgebra_compat, get_algebra
from treehopf.forests import nwarrow
from treehopf.structures import (
    OrderedForest,
    PlaneForest,
    RootedForest,
    StructureError,
    canonicalize,
    enumerate_ordered_forests,
    enumerate_plane_forests,
)

EMPTY = OrderedForest(())
TD1 = OrderedForest((0,))


def tensor(tag, triples):
    return TensorElement(tag, {(a, b): c for a, b, c in triples})


# ---------------------------------------------------------------------------
# Ordered product
# ---------------------------------------------------------------------------

def test_ho_product_shifts_the_second_factor():
    chain = OrderedForest.parse("0 1")
    assert product_key("ho", TD1, chain).render() == "0 0 2"
    assert product_key("ho", chain, TD1).render() == "0 1 0"
    assert product_key("ho", chain, EMPTY) == chain


def test_ho_product_associative_degree_3_exhaustive():
    keys = [EMPTY, TD1] + enumerate_ordered_forests(2)
    for a, b, c in itertools.product(keys, repeat=3):
        assert product_key("ho", product_key("ho", a, b), c) == product_key("ho", a, product_key("ho", b, c))


def test_ho_product_associative_degree_4_randomized():
    rng = random.Random(7)
    pool = enumerate_ordered_forests(1) + enumerate_ordered_forests(2) + enumerate_ordered_forests(3)
    for _ in range(200):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert product_key("ho", product_key("ho", a, b), c) == product_key("ho", a, product_key("ho", b, c))


# ---------------------------------------------------------------------------
# Coproducts
# ---------------------------------------------------------------------------

def test_ho_coproduct_examples():
    assert get_algebra("ho").coproduct(TD1) == tensor("ho", [(EMPTY, TD1, 1), (TD1, EMPTY, 1)])
    chain = OrderedForest.parse("2 0")
    assert get_algebra("ho").coproduct(chain) == tensor(
        "ho", [(chain, EMPTY, 1), (EMPTY, chain, 1), (TD1, TD1, 1)]
    )
    forked = get_algebra("ho").coproduct(OrderedForest.parse("4 0 2 2"))
    assert sum(forked.terms.values()) == 7 and len(forked.terms) == 7


def test_ck_product_is_commutative_and_canonical():
    vertex = RootedForest.parse("()")
    chain = RootedForest.parse("(())")
    assert product_key("ck", vertex, chain) == product_key("ck", chain, vertex) == RootedForest.parse("(()) ()")
    assert product_key("ck", vertex, RootedForest.parse("")) == vertex
    assert product_key("ck", vertex, vertex) == RootedForest.parse("() ()")


def test_ck_product_associative_and_commutative():
    from treehopf.structures import enumerate_rooted_forests

    keys = [k for n in range(4) for k in enumerate_rooted_forests(n)]
    for a, b in itertools.product(keys, repeat=2):
        if a.n + b.n > 3:
            continue
        assert product_key("ck", a, b) == product_key("ck", b, a)
        for c in keys:
            if a.n + b.n + c.n > 3:
                continue
            assert product_key("ck", product_key("ck", a, b), c) == product_key("ck", a, product_key("ck", b, c))
    rng = random.Random(11)
    pool = [k for n in (1, 2, 3) for k in enumerate_rooted_forests(n)]
    for _ in range(200):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert product_key("ck", a, b) == product_key("ck", b, a)
        assert product_key("ck", product_key("ck", a, b), c) == product_key("ck", a, product_key("ck", b, c))


def test_ck_coproduct_merges_symmetric_cuts():
    two = RootedForest.parse("() ()")
    vertex = RootedForest.parse("()")
    empty = RootedForest.parse("")
    assert get_algebra("ck").coproduct(two) == tensor(
        "ck", [(two, empty, 1), (empty, two, 1), (vertex, vertex, 2)]
    )


def test_ck_is_cocommutative_up_to_degree_2_but_not_3():
    # The first asymmetric coproduct appears at degree 3 (the cherry).
    def flip(t):
        return TensorElement(t.algebra, {(b, a): c for (a, b), c in t.terms.items()})

    for n in range(3):
        from treehopf.structures import enumerate_rooted_forests

        for key in enumerate_rooted_forests(n):
            assert flip(get_algebra("ck").coproduct(key)) == get_algebra("ck").coproduct(key)
    cherry = RootedForest.parse("(()())")
    assert flip(get_algebra("ck").coproduct(cherry)) != get_algebra("ck").coproduct(cherry)


def test_ho_coproduct_multiplicative_degree_4():
    report = check_bialgebra_compat("ho", 4)
    assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# Label forgetting intertwines everything
# ---------------------------------------------------------------------------

def test_canonicalize_intertwines_products_and_coproducts():
    keys = [EMPTY, TD1] + enumerate_ordered_forests(2) + enumerate_ordered_forests(3)
    for f in keys:
        for g in keys:
            if f.n + g.n > 4:
                continue
            assert canonicalize(product_key("ho", f, g)) == product_key("ck", canonicalize(f), canonicalize(g))
    for f in enumerate_ordered_forests(4):
        projected = {}
        for (a, b), c in get_algebra("ho").coproduct(f).terms.items():
            pair = (canonicalize(a), canonicalize(b))
            projected[pair] = projected.get(pair, 0) + c
        assert TensorElement("ck", projected) == get_algebra("ck").coproduct(canonicalize(f))


# ---------------------------------------------------------------------------
# Plane forests
# ---------------------------------------------------------------------------

def test_nck_product_is_concatenation_and_noncommutative():
    single = PlaneForest.parse("()")
    chain = PlaneForest.parse("(())")
    assert product_key("nck", PlaneForest(()), single) == single
    assert product_key("nck", single, chain) != product_key("nck", chain, single)
    assert product_key("nck", single, chain).render() == "() (())"


def test_nck_coproduct_of_the_chain():
    chain = PlaneForest.parse("(())")
    single = PlaneForest.parse("()")
    empty = PlaneForest(())
    assert get_algebra("nck").coproduct(chain) == tensor(
        "nck", [(chain, empty, 1), (empty, chain, 1), (single, single, 1)]
    )


def test_nck_coproduct_closes_on_plane_images_degree_5():
    # every cut factor of a canonically labelled plane forest reads back
    for n in range(6):
        for plane in enumerate_plane_forests(n):
            get_algebra("nck").coproduct(plane)  # raises StructureError on readback failure


# ---------------------------------------------------------------------------
# nwarrow
# ---------------------------------------------------------------------------

def test_nwarrow_examples():
    assert nwarrow(OrderedForest.parse("0 1"), OrderedForest.parse("0 0")).render() == "0 1 2 2"
    assert nwarrow(OrderedForest.parse("2 0"), OrderedForest.parse("0 0")).render() == "2 0 2 2"
    assert nwarrow(TD1, TD1).render() == "0 1"
    with pytest.raises(StructureError):
        nwarrow(EMPTY, TD1)


def test_nwarrow_associative_total_degree_4():
    pool = enumerate_ordered_forests(1) + enumerate_ordered_forests(2)
    for a, b, c in itertools.product(pool, repeat=3):
        if a.n + b.n + c.n > 4:
            continue
        assert nwarrow(nwarrow(a, b), c) == nwarrow(a, nwarrow(b, c))
