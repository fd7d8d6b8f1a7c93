import itertools

import pytest

import oracles
from treehopf.algebra import AlgebraTagError, FreeElement, accumulate
from treehopf.realization import (
    FAMILIES,
    NCPolynomial,
    commutative_image,
    family,
    pi_image,
    polynomial_to_json,
    project_second_subscript,
    rank_check,
    rank_of_rows,
    realizer_for,
)
from treehopf.structures import (
    Endofunction,
    OrderedForest,
    Permutation,
    StructureError,
    canonicalize,
    enumerate_endofunctions,
    enumerate_ordered_forests,
)
from treehopf.verify import doubling_transport_ok, multiplicativity_ok
from treehopf.words import wqsym_realize


def A(i, j):
    return ("A", i, j)


# ---------------------------------------------------------------------------
# Frozen letter patterns from the worked realizations
# ---------------------------------------------------------------------------

def test_single_vertex_v2():
    assert family("v2").realize(OrderedForest((0,)), 2).terms == {(A(1, 1),): 1, (A(2, 2),): 1}


def test_six_vertex_forest_v2_matches_its_constraint_sum():
    forest = OrderedForest.parse("4 3 0 0 6 4")
    size = 4
    expected = {}
    rng = range(1, size + 1)
    for i1, i2, i3, i4, i5, i6 in itertools.product(rng, repeat=6):
        if i3 < i2 and i4 < i1 and i4 < i6 < i5:
            word = (A(i4, i1), A(i3, i2), A(i3, i3), A(i4, i4), A(i6, i5), A(i4, i6))
            expected[word] = 1
    assert family("v2").realize(forest, size).terms == expected


def test_six_vertex_forest_v1_has_free_virtual_subscripts():
    forest = OrderedForest.parse("4 3 0 0 6 4")
    size = 3
    expected = {}
    rng = range(1, size + 1)
    for i1, i2, i3, i4, i5, i6 in itertools.product(rng, repeat=6):
        for x3 in range(size):
            for x4 in range(size):
                if x3 < i3 < i2 and x4 < i4 < i1 and i4 < i6 < i5:
                    word = (A(i4, i1), A(i3, i2), A(x3, i3), A(x4, i4), A(i6, i5), A(i4, i6))
                    expected[word] = 1
    assert family("v1").realize(forest, size).terms == expected


def test_single_fixed_point_func():
    assert family("func").realize(Endofunction((1,)), 3).terms == {
        (A(i, j),): 1 for i in (1, 2, 3) for j in (1, 2, 3) if i != j
    }


def test_endofunction_24352_matches_its_constraint_sum():
    f = Endofunction.parse("2 4 3 5 2")
    size = 3
    expected = {}
    rng = range(1, size + 1)
    for i, j, k, l, m, n in itertools.product(rng, repeat=6):
        if i not in (k, j, n) and k != n and l != m:
            expected[(A(i, j), A(k, i), A(l, m), A(n, k), A(i, n))] = 1
    assert family("func").realize(f, size).terms == expected


def test_endofunction_23234_matches_its_constraint_sum():
    f = Endofunction.parse("2 3 2 3 4")
    size = 3
    expected = {}
    rng = range(1, size + 1)
    for i, j, k, l, m in itertools.product(rng, repeat=5):
        if j not in (i, k) and l not in (k, m):
            expected[(A(j, i), A(k, j), A(j, k), A(k, l), A(l, m))] = 1
    assert family("func").realize(f, size).terms == expected


def test_permutation_24513_matches_its_subscript_pattern():
    sigma = Permutation.parse("2 4 5 1 3")
    size = 2
    expected = {}
    for i1, i2, i3, i4, i5 in itertools.product(range(1, size + 1), repeat=5):
        expected[(A(i4, i1), A(i1, i2), A(i5, i3), A(i2, i4), A(i3, i5))] = 1
    assert family("perm").realize(sigma, size).terms == expected


def test_identity_permutation_realizes_as_loops():
    assert family("perm").realize(Permutation((1,)), 2).terms == {(A(1, 1),): 1, (A(2, 2),): 1}


def test_truncation_must_be_positive():
    with pytest.raises(StructureError):
        family("v2").realize(OrderedForest((0,)), 0)
    with pytest.raises(StructureError):
        family("v7").realize(OrderedForest((0,)), 3)


def test_family_registry_pairs_versions_with_algebras():
    assert {v: fam.algebra for v, fam in FAMILIES.items()} == {
        "v1": "ho", "v2": "ho", "func": "efsym", "perm": "sgsym",
    }
    with pytest.raises(StructureError, match="unknown realization version 'v7'"):
        family("v7")


def test_realize_is_linear_over_elements():
    fam = family("v2")
    a, b = OrderedForest((0,)), OrderedForest((0, 1))
    x = FreeElement("ho", {a: 2, b: -1})
    expected = {}
    accumulate(expected, fam.realize(a, 3).codes, 2)
    accumulate(expected, fam.realize(b, 3).codes, -1)
    assert fam.realize(x, 3) == NCPolynomial(expected, 3)
    with pytest.raises(AlgebraTagError):
        fam.realize(FreeElement("efsym", {Endofunction((1,)): 1}), 3)


def test_realize_rejects_a_key_of_another_algebra():
    cases = [
        ("v1", Endofunction((1,))),
        ("func", OrderedForest((0,))),
        ("perm", Endofunction((1, 1))),  # not a bijection
    ]
    for version, key in cases:
        with pytest.raises(AlgebraTagError, match=f"{version} realizes"):
            family(version).realize(key, 3)


# ---------------------------------------------------------------------------
# Multiplicativity and doubling at module scale
# ---------------------------------------------------------------------------

def test_words_are_distinct_plain_and_within_each_doubled_block():
    # multiplicativity_ok and doubling_transport_ok compare word lists as
    # sets; a repeated word sends them down their slower exact paths.
    for version, fam in FAMILIES.items():
        for d in range(5):
            for key in fam.ops.keys_of_degree(d):
                words = fam.words(key, 4)
                assert len(set(words)) == len(words), (version, key)
                for mask, a_codes, b_codes in fam.words(key, 4, True):
                    assert len(set(a_codes)) == len(a_codes), (version, key, mask)
                    assert len(set(b_codes)) == len(b_codes), (version, key, mask)


@pytest.mark.parametrize("version", ["v1", "v2", "func", "perm"])
def test_multiplicativity_total_degree_3_at_n5(version):
    for d1 in (1, 2):
        for a in family(version).ops.keys_of_degree(d1):
            for b in family(version).ops.keys_of_degree(3 - d1):
                assert multiplicativity_ok(version, a, b, 5)


@pytest.mark.parametrize("version", ["v1", "v2", "func", "perm"])
def test_doubling_transport_degree_2_at_n5(version):
    for d in (0, 1, 2):
        for key in family(version).ops.keys_of_degree(d):
            assert doubling_transport_ok(version, key, 5)


@pytest.mark.slow
@pytest.mark.parametrize("version", ["v1", "v2", "func", "perm"])
def test_multiplicativity_total_degree_4_at_n8(version):
    for total in (2, 3, 4):
        for d1 in range(1, total):
            for a in family(version).ops.keys_of_degree(d1):
                for b in family(version).ops.keys_of_degree(total - d1):
                    assert multiplicativity_ok(version, a, b, 8), (version, a, b)


# ---------------------------------------------------------------------------
# Commutative image
# ---------------------------------------------------------------------------

def test_commutative_image_of_one_word():
    poly = NCPolynomial({oracles.encode_word((A(2, 3), A(1, 2)), 3): 1}, 3)
    assert commutative_image(poly) == {(A(1, 2), A(2, 3)): 1}


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_commutative_image_kernel_is_shape_equality(version):
    for n in (1, 2, 3):
        size = 2 * n + 2
        forests = enumerate_ordered_forests(n)
        images = {f: commutative_image(family(version).realize(f, size)) for f in forests}
        for f in forests:
            for g in forests:
                same_shape = canonicalize(f) == canonicalize(g)
                assert (images[f] == images[g]) == same_shape, (version, f, g)


# ---------------------------------------------------------------------------
# Rank
# ---------------------------------------------------------------------------

def test_rank_of_rows_on_known_matrices():
    assert rank_of_rows([{1: 1, 2: 1}, {2: 1}, {1: 1}]) == 2
    assert rank_of_rows([{1: 2, 2: 4}, {1: 1, 2: 2}]) == 1
    assert rank_of_rows([]) == 0
    assert rank_of_rows([{}, {1: 1}]) == 1
    # needs the general elimination fallback: no singleton columns
    rows = [{1: 1, 2: 1}, {2: 1, 3: 1}, {1: 1, 3: 1}, {1: 1, 2: 1, 3: 1}]
    assert rank_of_rows(rows) == 3


def test_rank_check_families_degree_2():
    rep = rank_check(enumerate_ordered_forests(2), realizer_for("v2"), 6, label="v2 deg 2")
    assert rep.full and rep.rank == 3
    rep = rank_check(enumerate_endofunctions(2), realizer_for("func"), 6, label="func deg 2")
    assert rep.full and rep.rank == 4


def test_rank_check_accepts_a_generator_of_keys():
    fam = family("v2")
    rep = rank_check((k for k in fam.ops.keys_of_degree(2)), fam.realize, 6)
    assert rep.summary() == "N=6: rank 3 of 3 (independent)"


# ---------------------------------------------------------------------------
# pi and the ordered-alphabet consistency
# ---------------------------------------------------------------------------

def test_pi_image_reproduces_the_six_worked_values():
    assert sorted(m.render() for m in pi_image(OrderedForest.parse("0 1 1")).terms) == [
        "1 2 2",
        "1 2 3",
        "1 3 2",
    ]


def test_pi_commutes_with_the_letter_projection_at_n6():
    for n in (1, 2, 3):
        for forest in enumerate_ordered_forests(n):
            lhs = project_second_subscript(family("v2").realize(forest, 6))
            rhs = wqsym_realize(pi_image(forest), 6)
            assert lhs == rhs, forest


# ---------------------------------------------------------------------------
# JSON dump
# ---------------------------------------------------------------------------

def test_polynomial_json_shape():
    payload = polynomial_to_json(family("v2").realize(OrderedForest((0,)), 2), "v2")
    assert payload == {
        "version": "V2",
        "N": 2,
        "terms": [
            {"coeff": "1", "word": [["A", 1, 1]]},
            {"coeff": "1", "word": [["A", 2, 2]]},
        ],
    }
