"""The output-sensitive constructions against their brute-force oracles."""

import json
import random

import pytest

import oracles
from treehopf.algebra import get_algebra
from treehopf.bases import forest_down_set, r_product_endo, r_product_forest
from treehopf.cli import main
from treehopf.endo import ideals
from treehopf.realization import (
    NCPolynomial,
    decode_word,
    encode_word,
    family,
    group_doubled,
    iter_endofunction_words,
    iter_forest_words,
    iter_permutation_words,
    pi_image,
)
from treehopf.structures import (
    EnumerationBoundError,
    Endofunction,
    OrderedForest,
    PackedWord,
    PlaneForest,
    Permutation,
    RootedForest,
    StructureError,
    enumerate_admissible_cuts,
    enumerate_packed_words,
)
from treehopf.words import wqsym_product


def pairs(keys, total):
    return [(a, b) for da in range(total + 1) for a in keys(da) for b in keys(total - da)]


def test_packed_words_match_the_oracle_in_order():
    for n in range(7):
        assert enumerate_packed_words(n) == list(oracles.packed_words(n)), n


@pytest.mark.parametrize("total", range(6))
def test_wqsym_product_matches_the_oracle(total):
    for u, v in pairs(oracles.packed_words, total):
        assert wqsym_product(u, v) == oracles.wqsym_product(u, v), (u, v)


@pytest.mark.parametrize("n", range(6))
def test_pi_image_matches_the_oracle(n):
    for forest in oracles.ordered_forests(n):
        assert pi_image(forest) == oracles.pi_image(forest), forest


@pytest.mark.parametrize("n", range(6))
def test_forest_down_set_matches_the_oracle_in_order(n):
    for forest in oracles.ordered_forests(n):
        assert forest_down_set(forest) == oracles.forest_down_set(forest), forest


@pytest.mark.parametrize("total", range(5))
def test_r_products_match_the_oracle(total):
    for a, b in pairs(oracles.ordered_forests, total):
        assert r_product_forest(a, b) == oracles.r_product_forest(a, b), (a, b)
    for a, b in pairs(oracles.endofunctions, total):
        assert r_product_endo(a, b) == oracles.r_product_endo(a, b), (a, b)


def test_r_products_match_the_oracle_on_a_degree_5_sample():
    rng = random.Random(5)
    for a, b in rng.sample(pairs(oracles.ordered_forests, 5), 12):
        assert r_product_forest(a, b) == oracles.r_product_forest(a, b), (a, b)
    for a, b in rng.sample(pairs(oracles.endofunctions, 5), 12):
        assert r_product_endo(a, b) == oracles.r_product_endo(a, b), (a, b)


@pytest.mark.parametrize("tag", sorted(oracles.COPRODUCTS))
@pytest.mark.parametrize("n", range(6))
def test_cut_coproducts_match_the_oracle(tag, n):
    ops = get_algebra(tag)
    for key in ops.keys_of_degree(n):
        assert ops.coproduct(key) == oracles.COPRODUCTS[tag](key), key


@pytest.mark.parametrize("n", range(6))
def test_ideals_and_cuts_match_the_oracle_in_order(n):
    for f in oracles.endofunctions(n):
        assert [i.members for i in ideals(f)] == oracles.closed_sets(f.image), f
    for forest in oracles.ordered_forests(n):
        assert [c.vertices for c in enumerate_admissible_cuts(forest)] == oracles.admissible_cuts(forest), forest


NINE_VERTEX_KEYS = {
    "ho": OrderedForest((0,) * 9),
    "ck": RootedForest(" ".join(["()"] * 9)),
    "nck": PlaneForest(((),) * 9),
    "efsym": Endofunction(tuple(range(1, 10))),
    "sgsym": Permutation(tuple(range(1, 10))),
}


@pytest.mark.parametrize("tag", sorted(NINE_VERTEX_KEYS))
def test_cut_coproducts_keep_the_enumeration_bound(tag, capsys, tmp_path):
    key = NINE_VERTEX_KEYS[tag]
    with pytest.raises(EnumerationBoundError, match="at size 9 exceeds bound 8"):
        get_algebra(tag).coproduct(key)
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"algebra": tag, "basis": "S", "terms": [{"coeff": "1", "key": key.render()}]}))
    code = main(["coproduct", "--algebra", tag, str(x)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "exceeds bound 8" in err


def test_wqsym_product_and_pi_image_keep_the_enumeration_bound():
    # total length 9 and 9 vertices: one past DEFAULT_ENUMERATION_BOUND
    with pytest.raises(EnumerationBoundError):
        wqsym_product(PackedWord((1, 2, 3, 4)), PackedWord((1, 2, 3, 4, 5)))
    with pytest.raises(EnumerationBoundError):
        pi_image(OrderedForest((0,) * 9))


# ---------------------------------------------------------------------------
# Compatible words: the coded enumerator against the letter-tuple oracles
# ---------------------------------------------------------------------------

WORD_ORACLES = {
    "v1": lambda key, size, doubled: oracles.iter_forest_words(key, "v1", size, doubled),
    "v2": lambda key, size, doubled: oracles.iter_forest_words(key, "v2", size, doubled),
    "func": oracles.iter_endofunction_words,
    "perm": oracles.iter_permutation_words,
}

WORD_DECODERS = {
    "v1": lambda key, size, doubled: iter_forest_words(key, "v1", size, doubled),
    "v2": lambda key, size, doubled: iter_forest_words(key, "v2", size, doubled),
    "func": iter_endofunction_words,
    "perm": iter_permutation_words,
}


def coded_cases(max_degree, size):
    for version in WORD_ORACLES:
        for d in range(max_degree + 1):
            for key in family(version).ops.keys_of_degree(d):
                for doubled in (False, True):
                    yield version, key, size, doubled


@pytest.mark.parametrize("max_degree, size", [(3, 3), (4, 2)])
def test_decoded_words_match_the_oracle(max_degree, size):
    for version, key, size, doubled in coded_cases(max_degree, size):
        got = list(WORD_DECODERS[version](key, size, doubled))
        want = sorted(WORD_ORACLES[version](key, size, doubled))
        assert len(set(got)) == len(got), (version, key, doubled)
        assert sorted(got) == want, (version, key, doubled)
        for word in want:
            assert decode_word(encode_word(word, size), size) == word


@pytest.mark.parametrize("max_degree, size", [(3, 3), (4, 2)])
def test_doubled_triples_split_the_oracle_words_by_side(max_degree, size):
    for version, key, size, doubled in coded_cases(max_degree, size):
        if not doubled:
            continue
        triples = list(family(version).words(key, size, True))
        got = sorted(
            (decode_word(a, size), tuple(("B", i, j) for _, i, j in decode_word(b, size)))
            for _, a, b in triples
        )
        assert got == sorted(
            (tuple(l for l in w if l[0] == "A"), tuple(l for l in w if l[0] == "B"))
            for w in WORD_ORACLES[version](key, size, True)
        )
        counts = {}
        for pair in got:
            counts[pair] = counts.get(pair, 0) + 1
        assert group_doubled(family(version).realize(key, size, True)) == counts
        for mask, a, b in triples:
            assert mask.bit_count() == len(decode_word(b, size)) == key.n - len(decode_word(a, size))


def polynomial_sum(p, q):
    out = dict(p)
    for w, c in q.items():
        out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def polynomial_product(p, q):
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def test_mixed_size_polynomials_agree_with_their_decoded_terms():
    fam = family("v2")
    small = fam.realize(OrderedForest((0, 1)), 2)
    large = fam.realize(OrderedForest((0, 1)), 4)
    recoded = NCPolynomial.from_codes({encode_word(w, 4): c for w, c in small.terms.items()}, 4)
    rebuilt = NCPolynomial(small.terms)
    mixed = 2 * small + (-1) * fam.realize(OrderedForest((0,)), 3)  # words of lengths 1 and 2
    assert [p.size for p in (small, large, recoded, rebuilt, mixed)] == [2, 4, 4, 2, 3]
    polys = [small, large, recoded, rebuilt, mixed, NCPolynomial()]
    for p in polys:
        for q in polys:
            assert (p == q) == (p.terms == q.terms), (p.size, q.size)
            if p == q:
                assert hash(p) == hash(q)
            assert (p + q).terms == polynomial_sum(p.terms, q.terms)
            assert (p * q).terms == polynomial_product(p.terms, q.terms)
    assert small == recoded == rebuilt and small != large
    assert mixed + (-1) * mixed == NCPolynomial()


def test_letters_outside_the_alphabet_are_rejected():
    for letter in (("C", 1, 2), ("A", 1, 0), ("A", -1, 2)):
        with pytest.raises(StructureError):
            NCPolynomial({(letter,): 1})
