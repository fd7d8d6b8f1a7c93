import pytest

from oracles import moved_points
from treehopf.algebra import AlgebraTagError, FreeElement, product_elements
from treehopf.bases import (
    ck_s_in_r,
    endo_leq,
    forest_leq,
    quotient_r,
    r_commutative,
    r_from_s_endo,
    r_from_s_forest,
    r_product_endo,
    r_product_forest,
    s_in_r_endo,
    s_in_r_forest,
    to_r_basis,
    to_s_basis,
)
from treehopf.endo import is_acyclic
from treehopf.morphisms import forest_to_endo
from treehopf.structures import (
    Endofunction,
    EnumerationBoundError,
    OrderedForest,
    PlaneForest,
    RootedForest,
    canonicalize,
    enumerate_endofunctions,
    enumerate_ordered_forests,
    enumerate_rooted_forests,
)


def F(text):
    return OrderedForest.parse(text)


def E(text):
    return Endofunction.parse(text)


# ---------------------------------------------------------------------------
# The two partial orders
# ---------------------------------------------------------------------------

def test_forest_order_axioms_degree_3():
    keys = enumerate_ordered_forests(3)
    for a in keys:
        assert forest_leq(a, a)
        for b in keys:
            if forest_leq(a, b) and forest_leq(b, a):
                assert a == b
            for c in keys:
                if forest_leq(a, b) and forest_leq(b, c):
                    assert forest_leq(a, c)


def test_endo_order_axioms_degree_3():
    keys = enumerate_endofunctions(3)
    for a in keys:
        assert endo_leq(a, a)
        for b in keys:
            if endo_leq(a, b) and endo_leq(b, a):
                assert a == b
            for c in keys:
                if endo_leq(a, b) and endo_leq(b, c):
                    assert endo_leq(a, c)


def test_orders_compare_only_keys_of_one_size():
    assert not forest_leq(F("0 0"), F("0")) and not forest_leq(F("0"), F("0 0"))
    assert not endo_leq(E("1 1"), E("1")) and not endo_leq(E("1"), E("1 1"))


def test_endo_hasse_diagram_degree_2():
    # bottom (21), middle (11) and (22), top (12)
    assert endo_leq(E("2 1"), E("1 1")) and endo_leq(E("2 1"), E("2 2"))
    assert endo_leq(E("1 1"), E("1 2")) and endo_leq(E("2 2"), E("1 2"))
    assert not endo_leq(E("1 1"), E("2 2"))
    assert not endo_leq(E("1 2"), E("2 1"))


def test_order_embedding_of_forests_degree_3():
    for n in (1, 2, 3):
        keys = enumerate_ordered_forests(n)
        for a in keys:
            for b in keys:
                assert forest_leq(a, b) == endo_leq(forest_to_endo(a), forest_to_endo(b))


# ---------------------------------------------------------------------------
# R from S and back
# ---------------------------------------------------------------------------

def test_r_of_a_single_vertex():
    assert r_from_s_forest(F("0")) == FreeElement("ho", {F("0"): 1})
    assert r_from_s_endo(E("1")) == FreeElement("efsym", {E("1"): 1})


def test_r_expansion_of_chain_plus_isolated_vertex():
    got = r_from_s_forest(F("0 1 0"))
    assert got == FreeElement(
        "ho", {F("0 1 0"): 1, F("0 1 1"): -1, F("0 1 2"): -1, F("3 1 0"): -1}
    )


def test_transposition_r_expansion_has_four_terms():
    assert r_from_s_endo(E("2 1")) == FreeElement(
        "efsym", {E("2 1"): 1, E("1 1"): -1, E("2 2"): -1, E("1 2"): 1}
    )


def test_endo_signs_agree_with_edge_count_signs_on_acyclic_keys():
    # Fix-difference signs equal edge-count signs under edges <-> moved points
    for n in (1, 2, 3):
        for forest in enumerate_ordered_forests(n):
            f = forest_to_endo(forest)
            for g, coeff in r_from_s_endo(f).terms.items():
                assert is_acyclic(g)
                edges_of_g = len(moved_points(g))
                assert coeff == (-1) ** (len(forest.edges()) - edges_of_g)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mobius_roundtrip_forests(n):
    for forest in enumerate_ordered_forests(n):
        expanded = FreeElement("ho")
        for g, c in s_in_r_forest(forest).terms.items():
            expanded = expanded + c * r_from_s_forest(g)
        assert expanded == FreeElement("ho", {forest: 1})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mobius_roundtrip_endofunctions(n):
    for f in enumerate_endofunctions(n):
        expanded = FreeElement("efsym")
        for g, c in s_in_r_endo(f).terms.items():
            expanded = expanded + c * r_from_s_endo(g)
        assert expanded == FreeElement("efsym", {f: 1})


def test_r_bound_is_enforced():
    with pytest.raises(EnumerationBoundError):
        r_from_s_forest(OrderedForest((0,) * 6))
    with pytest.raises(EnumerationBoundError):
        r_product_forest(OrderedForest((0, 0, 0)), OrderedForest((0, 1, 1)))
    with pytest.raises(EnumerationBoundError):
        r_product_endo(Endofunction((1, 2, 3)), Endofunction((2, 1, 3)))
    with pytest.raises(EnumerationBoundError):
        r_from_s_endo(Endofunction((1,) * 6))
    with pytest.raises(EnumerationBoundError):
        s_in_r_endo(Endofunction((2, 3, 4, 5, 6, 1)))


# ---------------------------------------------------------------------------
# R products
# ---------------------------------------------------------------------------

def test_forest_r_product_unit():
    empty = OrderedForest(())
    assert r_product_forest(empty, F("0 1")) == FreeElement("ho", {F("0 1"): 1})


def test_forest_r_product_reexpands_to_the_s_product():
    pool = [
        f
        for n in range(1, 4)
        for f in enumerate_ordered_forests(n)
    ]
    for a in pool:
        for b in pool:
            if a.n + b.n > 4:
                continue
            in_s = FreeElement("ho")
            for g, c in r_product_forest(a, b).terms.items():
                in_s = in_s + c * r_from_s_forest(g)
            lhs = product_elements(r_from_s_forest(a), r_from_s_forest(b))
            assert lhs == in_s, (a, b)


def test_endo_r_product_value_constraints():
    got = r_product_endo(E("1 2"), E("1"))
    expected = {
        Endofunction((f1, f2, f3))
        for f1 in (1, 3)
        for f2 in (2, 3)
        for f3 in (1, 2, 3)
    }
    assert set(got.terms) == expected and all(c == 1 for c in got.terms.values())
    # (1+k2)^fix(left) * (1+k1)^fix(right) terms: two and three fixed points
    assert len(r_product_endo(E("1 2"), E("1 2 3")).terms) == 4**2 * 3**3


# ---------------------------------------------------------------------------
# Commutative R basis
# ---------------------------------------------------------------------------

def test_rhat_well_defined_over_all_labellings_degree_4():
    for n in range(1, 5):
        for shape in enumerate_rooted_forests(n):
            reference = r_commutative(shape)
            for labelled in enumerate_ordered_forests(n):
                if canonicalize(labelled) != shape:
                    continue
                image = FreeElement("ck")
                for g, c in r_from_s_forest(labelled).terms.items():
                    image = image + FreeElement.from_key("ck", canonicalize(g), c)
                assert image == reference, (shape, labelled)


def test_rhat_table_spot_values():
    tun, tdeux = RootedForest.parse("()"), RootedForest.parse("(())")
    assert r_commutative(tun) == FreeElement("ck", {tun: 1})
    assert r_commutative(tdeux) == FreeElement("ck", {tdeux: 1})
    assert r_commutative(RootedForest.parse("() ()")) == FreeElement(
        "ck", {RootedForest.parse("() ()"): 1, tdeux: -2}
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ck_basis_change_roundtrip(n):
    for shape in enumerate_rooted_forests(n):
        x = FreeElement("ck", {shape: 1})
        assert to_s_basis(to_r_basis(x)) == x
        expanded = FreeElement("ck")
        for g, c in ck_s_in_r(shape).terms.items():
            expanded = expanded + c * r_commutative(g)
        assert expanded == x


@pytest.mark.parametrize("algebra,keys", [
    ("ho", enumerate_ordered_forests(3)),
    ("efsym", enumerate_endofunctions(3)),
])
def test_basis_change_roundtrip(algebra, keys):
    for key in keys:
        x = FreeElement(algebra, {key: 1})
        assert to_s_basis(to_r_basis(x)) == x
        assert to_r_basis(to_s_basis(x)) == x


@pytest.mark.parametrize("rewrite", [to_r_basis, to_s_basis])
def test_basis_change_needs_an_algebra_with_an_r_basis(rewrite):
    x = FreeElement("nck", {PlaneForest.parse("(())"): 1})
    with pytest.raises(AlgebraTagError, match="no R basis for algebra 'nck'"):
        rewrite(x)


# ---------------------------------------------------------------------------
# The cyclic R ideal and the quotient
# ---------------------------------------------------------------------------

def test_cyclic_r_ideal_membership():
    assert quotient_r(FreeElement("efsym", {E("2 1"): 1})).is_zero()
    assert not quotient_r(FreeElement("efsym", {E("1 1"): 1})).is_zero()


def test_the_two_cyclic_ideals_differ_in_degree_2():
    # the S-span of cyclic keys in degree 2 is one-dimensional; R of the
    # transposition carries three extra acyclic terms
    r21_in_s = r_from_s_endo(E("2 1"))
    assert set(r21_in_s.terms) != {E("2 1")}
    assert r21_in_s.terms[E("2 1")] == 1 and len(r21_in_s.terms) == 4


def test_cyclic_r_span_is_an_ideal_under_the_r_product_degree_3():
    keys = [f for n in (1, 2) for f in enumerate_endofunctions(n)]
    for a in keys:
        for b in keys:
            if a.n + b.n > 3:
                continue
            for bad, good in ((a, b), (b, a)):
                if is_acyclic(bad):
                    continue
                for term in r_product_endo(bad, good).terms:
                    assert not is_acyclic(term)
                for term in r_product_endo(good, bad).terms:
                    assert not is_acyclic(term)


def test_quotient_product_table_matches_forests_degree_3():
    pool = [f for n in (1, 2) for f in enumerate_ordered_forests(n)]
    for a in pool:
        for b in pool:
            if a.n + b.n > 3:
                continue
            forest_side = FreeElement("efsym")
            for g, c in r_product_forest(a, b).terms.items():
                forest_side = forest_side + FreeElement.from_key("efsym", forest_to_endo(g), c)
            endo_side = quotient_r(r_product_endo(forest_to_endo(a), forest_to_endo(b)))
            assert forest_side == endo_side, (a, b)


def test_quotient_kills_exactly_the_cyclic_keys():
    x = FreeElement("efsym", {E("2 1"): 5, E("1 1"): 2})
    assert quotient_r(x) == FreeElement("efsym", {E("1 1"): 2})
