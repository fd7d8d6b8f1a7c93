import pytest
from hypothesis import given, strategies as st

from oracles import product_key
from treehopf.algebra import TensorElement, get_algebra
from treehopf.endo import (
    burnside_graphical,
    ideals,
    is_acyclic,
    is_burnside,
    is_idempotent,
    is_nondecreasing,
    is_nondecreasing_parking,
    is_permutation,
)
from treehopf.structures import (
    Endofunction,
    Permutation,
    StructureError,
    enumerate_endofunctions,
    enumerate_permutations,
    restrict_image,
)


def E(text):
    return Endofunction.parse(text)


# ---------------------------------------------------------------------------
# Product and ideals
# ---------------------------------------------------------------------------

def test_shifted_concat_examples():
    assert product_key("efsym", E("1 1"), Endofunction(())) == E("1 1")
    assert product_key("efsym", E("1 1"), E("1")) == E("1 1 3")
    assert product_key("efsym", E("1 2"), E("2 1")) == E("1 2 4 3")


def test_ideals_of_the_worked_example():
    got = [sorted(i) for i in ideals(E("2 3 2 3 4"))]
    assert got == [[], [1], [5], [1, 5], [4, 5], [1, 4, 5], [1, 2, 3, 4, 5]]


def test_ideals_of_identity_and_cycle():
    assert len(ideals(E("1 2 3"))) == 8
    assert [sorted(i) for i in ideals(E("2 3 1"))] == [[], [1, 2, 3]]


@given(st.integers(1, 4), st.data())
def test_ideals_form_a_lattice(n, data):
    image = tuple(data.draw(st.integers(1, n)) for _ in range(n))
    f = Endofunction(image)
    members = ideals(f)
    for a in members:
        for b in members:
            assert (a | b) in members and (a & b) in members


# ---------------------------------------------------------------------------
# Standardized restriction
# ---------------------------------------------------------------------------

def test_std_restrict_examples_from_the_seven_term_coproduct():
    f = E("2 3 2 3 4")

    def std(*part):  # std(f^I) for the vertex set I
        return restrict_image(f, sum(1 << (v - 1) for v in part))

    assert std(1, 2, 3, 4, 5) == f
    assert std(4, 5) == E("1 1")
    assert std(1, 5) == E("1 2")
    assert std(1) == E("1")
    assert std(2, 3, 4, 5) == E("2 1 2 3")
    assert std(1, 2, 3, 4) == E("2 3 2 3")
    assert std(2, 3, 4) == E("2 1 2")
    assert std(1, 2, 3) == E("2 3 2")
    assert std(2, 3) == E("2 1")
    assert std(1, 4, 5) == E("1 2 2")


def test_efsym_coproduct_counts_ideals():
    f = E("2 3 2 3 4")
    cop = get_algebra("efsym").coproduct(f)
    assert sum(cop.terms.values()) == 7
    unit = Endofunction(())
    assert cop.terms[(f, unit)] == 1 and cop.terms[(unit, f)] == 1


def test_sgsym_coproduct_splits_cycles():
    s = Permutation.parse("2 4 5 1 3")
    cop = get_algebra("sgsym").coproduct(s)
    assert len(cop.terms) == 4
    assert cop.terms[(Permutation.parse("2 3 1"), Permutation.parse("2 1"))] == 1


def test_sgsym_is_cocommutative_degree_4():
    for n in range(5):
        for s in enumerate_permutations(n):
            cop = get_algebra("sgsym").coproduct(s)
            flipped = TensorElement("sgsym", {(b, a): c for (a, b), c in cop.terms.items()})
            assert flipped == cop


def test_sgsym_coproduct_multiplicity_is_two_to_the_cycles():
    for n in range(1, 5):
        for s in enumerate_permutations(n):
            assert sum(get_algebra("sgsym").coproduct(s).terms.values()) == 2 ** len(s.cycles())


def test_ideals_of_a_permutation_are_cycle_unions():
    import itertools as it

    for n in range(1, 5):
        for s in enumerate_permutations(n):
            cycles = s.cycles()
            unions = set()
            for k in range(len(cycles) + 1):
                for chosen in it.combinations(cycles, k):
                    unions.add(frozenset(v for cyc in chosen for v in cyc))
            assert set(ideals(s)) == unions


# ---------------------------------------------------------------------------
# Membership filters
# ---------------------------------------------------------------------------

def test_filter_examples():
    identity2 = E("1 2")
    assert is_permutation(identity2) and is_acyclic(identity2) and is_idempotent(identity2)
    f = E("2 3 2 3 4")
    assert not is_acyclic(f)  # 2 <-> 3 is a two-cycle
    g = E("1 1")
    assert is_idempotent(g) and is_nondecreasing_parking(g)
    assert is_burnside(E("2 1"), 2, 4)
    assert not is_burnside(E("2 1"), 1, 2)
    with pytest.raises(StructureError):
        is_burnside(g, -1, 2)


def test_burnside_graphical_characterization_matches_composition():
    exponent_pairs = [(0, 2), (1, 2), (2, 4), (1, 4), (2, 3), (3, 5), (2, 2)]
    for n in range(5):
        for f in enumerate_endofunctions(n):
            for p, q in exponent_pairs:
                assert is_burnside(f, p, q) == burnside_graphical(f, p, q), (f, p, q)


FAMILIES = {
    "permutation": is_permutation,
    "acyclic": is_acyclic,
    "nondecreasing": is_nondecreasing,
    "nondecreasing parking": is_nondecreasing_parking,
    "burnside(2,4)": lambda f: is_burnside(f, 2, 4),
    "idempotent": is_idempotent,
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_closed_under_product_and_coproduct(name):
    member = FAMILIES[name]
    keys = [f for n in range(4) for f in enumerate_endofunctions(n) if member(f)]
    for f in keys:
        for g in keys:
            assert member(product_key("efsym", f, g))
        for (a, b), _ in get_algebra("efsym").coproduct(f).terms.items():
            assert member(a) and member(b)


def test_cyclic_span_is_a_hopf_ideal_degree_3():
    # every coproduct term of a non-acyclic key has a non-acyclic factor
    for n in range(4):
        for f in enumerate_endofunctions(n):
            if is_acyclic(f):
                continue
            for (a, b), _ in get_algebra("efsym").coproduct(f).terms.items():
                assert not is_acyclic(a) or not is_acyclic(b)
