import pytest

from oracles import pi_plane_ranks, product_key
from treehopf.algebra import (
    FreeElement,
    TensorElement,
    coproduct_element,
    get_algebra,
    product_elements,
)
from treehopf.endo import is_acyclic, is_nondecreasing_parking
from treehopf.morphisms import (
    MAPS,
    b_plus,
    check_faa_di_bruno,
    ck_projection,
    endo_to_forest,
    f_w_preimage,
    faa_di_bruno_z,
    forest_to_endo,
    minimal_admissible_word,
    pi_hopf,
    plane_to_parking,
    z_power_component,
)
from treehopf.realization import pi_image
from treehopf.structures import (
    Endofunction,
    OrderedForest,
    PackedWord,
    PlaneForest,
    StructureError,
    canonicalize,
    enumerate_endofunctions,
    enumerate_ordered_forests,
    enumerate_packed_words,
    enumerate_plane_forests,
    enumerate_rooted_forests,
    plane_to_ordered,
)
from treehopf.words import b_endomorphism


def F(text):
    return OrderedForest.parse(text)


# ---------------------------------------------------------------------------
# Canonical labelling and B+
# ---------------------------------------------------------------------------

def test_plane_labelling_examples():
    assert plane_to_ordered(PlaneForest.parse("()")).render() == "0"
    assert plane_to_ordered(PlaneForest.parse("(())")).render() == "0 1"
    assert (
        plane_to_ordered(PlaneForest.parse("(()(())) ((())())")).render()
        == "0 1 1 3 0 5 6 5"
    )


def test_b_plus_examples():
    assert b_plus(OrderedForest(())) == F("0")
    assert b_plus(F("0 0")) == F("0 1 1")
    assert b_plus(PlaneForest.parse("() ()")) == PlaneForest.parse("(()())")
    with pytest.raises(StructureError):
        b_plus(Endofunction((1,)))


def test_pi_intertwines_b_plus_with_b_degree_3():
    for n in range(4):
        for forest in enumerate_ordered_forests(n):
            lhs = pi_image(b_plus(forest))
            rhs = b_endomorphism(pi_image(forest))
            assert lhs == rhs, forest


# ---------------------------------------------------------------------------
# pi as a Hopf morphism
# ---------------------------------------------------------------------------

def test_pi_is_an_algebra_morphism_degree_3():
    pool = [f for n in (1, 2) for f in enumerate_ordered_forests(n)]
    for a in pool:
        for b in pool:
            if a.n + b.n > 3:
                continue
            lhs = pi_image(product_key("ho", a, b))
            rhs = product_elements(pi_image(a), pi_image(b))
            assert lhs == rhs, (a, b)


def _pi_both_sides_agree(forest):
    mapped = {}
    for (a, b), c in get_algebra("ho").coproduct(forest).terms.items():
        for u, cu in pi_image(a).terms.items():
            for v, cv in pi_image(b).terms.items():
                pair = (u, v)
                mapped[pair] = mapped.get(pair, 0) + c * cu * cv
    return TensorElement("wqsym", mapped) == coproduct_element(pi_image(forest))


def test_pi_is_a_coalgebra_morphism_degree_3():
    for n in range(4):
        for forest in enumerate_ordered_forests(n):
            assert _pi_both_sides_agree(forest)


def test_pi_transports_the_seven_term_ordered_coproduct():
    # applying the projection to both sides of the degree-4 worked coproduct
    assert _pi_both_sides_agree(F("4 0 2 2"))


def test_pi_hopf_rejects_other_algebras():
    with pytest.raises(StructureError):
        pi_hopf(FreeElement("ck", {}))


def test_map_registry_pairs_sources_with_targets():
    assert {name: (m.source, m.target) for name, m in MAPS.items()} == {
        "pi": ("ho", "wqsym"),
        "f_F": ("ho", "efsym"),
        "ck": ("ho", "ck"),
        "plane": ("nck", "ho"),
    }
    chain = FreeElement("ho", {F("0 1"): 2})
    assert pi_hopf(chain) == MAPS["pi"].apply(chain) == 2 * pi_image(F("0 1"))
    assert MAPS["f_F"].apply(chain) == FreeElement("efsym", {Endofunction((1, 1)): 2})
    assert ck_projection(chain) == MAPS["ck"].apply(chain)
    plane = FreeElement("nck", {PlaneForest.parse("(()) ()"): 1})
    assert MAPS["plane"].apply(plane) == FreeElement("ho", {F("0 1 0"): 1})
    with pytest.raises(StructureError, match="f_F maps ho elements, not nck"):
        MAPS["f_F"].apply(plane)


# ---------------------------------------------------------------------------
# F_w
# ---------------------------------------------------------------------------

def test_f_w_base_cases():
    assert f_w_preimage(PackedWord((1,))) == F("0")
    assert f_w_preimage(PackedWord((1, 1))) == F("0 0")
    assert f_w_preimage(PackedWord((1, 2))) == F("0 1")


def test_f_w_minimal_word_property_length_4():
    for n in range(1, 5):
        for w in enumerate_packed_words(n):
            assert minimal_admissible_word(f_w_preimage(w)) == w, w


def test_pi_surjects_onto_wqsym_degree_3():
    # the preimages witness surjectivity degree by degree
    for n in range(1, 4):
        span = set()
        for w in enumerate_packed_words(n):
            span.update(pi_image(f_w_preimage(w)).terms)
        assert span == set(enumerate_packed_words(n))


# ---------------------------------------------------------------------------
# Forests inside endofunctions
# ---------------------------------------------------------------------------

def test_forest_to_endo_worked_values():
    assert forest_to_endo(F("0")) == Endofunction((1,))
    assert forest_to_endo(F("0 0")) == Endofunction((1, 2))
    assert forest_to_endo(F("0 1")) == Endofunction((1, 1))
    assert forest_to_endo(F("2 0")) == Endofunction((2, 2))


def test_forest_to_endo_is_injective_with_acyclic_image_degree_3():
    for n in range(4):
        images = [forest_to_endo(f) for f in enumerate_ordered_forests(n)]
        assert len(set(images)) == len(images)
        assert set(images) == {f for f in enumerate_endofunctions(n) if is_acyclic(f)}
        for f in enumerate_ordered_forests(n):
            assert endo_to_forest(forest_to_endo(f)) == f


def test_endo_to_forest_rejects_cycles():
    with pytest.raises(StructureError):
        endo_to_forest(Endofunction((2, 1)))


def test_forest_to_endo_is_a_hopf_morphism_degree_3():
    pool = [f for n in (1, 2) for f in enumerate_ordered_forests(n)]
    for a in pool:
        for b in pool:
            if a.n + b.n > 3:
                continue
            assert forest_to_endo(product_key("ho", a, b)) == product_key("efsym", forest_to_endo(a), forest_to_endo(b))
    for n in range(4):
        for forest in enumerate_ordered_forests(n):
            mapped = {
                (forest_to_endo(a), forest_to_endo(b)): c
                for (a, b), c in get_algebra("ho").coproduct(forest).terms.items()
            }
            assert TensorElement("efsym", mapped) == get_algebra("efsym").coproduct(forest_to_endo(forest))


def test_quotient_by_io_matches_the_acyclic_subalgebra_degree_3():
    # killing the non-acyclic keys in a coproduct of an acyclic key changes nothing
    for n in range(4):
        for forest in enumerate_ordered_forests(n):
            for (a, b), _ in get_algebra("efsym").coproduct(forest_to_endo(forest)).terms.items():
                assert is_acyclic(a) and is_acyclic(b)


def test_plane_forests_and_nondecreasing_parking_functions():
    # level-order labelling gives the bijection; the depth-first labelling
    # leaves the ndpf family at n = 4
    for n in range(6):
        planes = enumerate_plane_forests(n)
        images = {plane_to_parking(p) for p in planes}
        assert len(images) == len(planes)
        assert images == {
            f for f in enumerate_endofunctions(n) if is_nondecreasing_parking(f)
        }
    bad = [
        p.render()
        for p in enumerate_plane_forests(4)
        if not is_nondecreasing_parking(forest_to_endo(plane_to_ordered(p)))
    ]
    assert bad == ["((())())"]


# ---------------------------------------------------------------------------
# Projection onto the commutative algebra
# ---------------------------------------------------------------------------

def test_ck_projection_examples_and_surjectivity():
    x = FreeElement("ho", {F("0 1"): 1, F("2 0"): 1})
    from treehopf.structures import RootedForest

    assert ck_projection(x) == FreeElement("ck", {RootedForest.parse("(())"): 2})
    for n in range(5):
        hit = {canonicalize(f) for f in enumerate_ordered_forests(n)}
        assert hit == set(enumerate_rooted_forests(n))


def test_ck_projection_intertwines_the_coproducts():
    forked = F("4 0 2 2")
    mapped = {}
    for (a, b), c in get_algebra("ho").coproduct(forked).terms.items():
        pair = (canonicalize(a), canonicalize(b))
        mapped[pair] = mapped.get(pair, 0) + c
    assert TensorElement("ck", mapped) == get_algebra("ck").coproduct(canonicalize(forked))


# ---------------------------------------------------------------------------
# Faa di Bruno
# ---------------------------------------------------------------------------

def test_z_components():
    empty = PlaneForest(())
    single = PlaneForest.parse("()")
    assert faa_di_bruno_z(0) == FreeElement("nck", {empty: 1})
    assert faa_di_bruno_z(1) == FreeElement("nck", {single: 2})
    z2 = faa_di_bruno_z(2)
    assert z2.terms[PlaneForest.parse("(())")] == 2
    assert z2.terms[PlaneForest.parse("() ()")] == 3
    assert z_power_component(1, 2) == z2
    assert z_power_component(3, 0) == FreeElement("nck", {empty: 1})


def test_faa_di_bruno_coproduct_identity_through_degree_4():
    for n in range(5):
        assert check_faa_di_bruno(n), n


# ---------------------------------------------------------------------------
# Injectivity of pi on plane images
# ---------------------------------------------------------------------------

def test_pi_restricted_rank_is_catalan():
    assert pi_plane_ranks(4) == {1: (1, 1, 1), 2: (2, 2, 2), 3: (5, 5, 5), 4: (14, 14, 14)}
