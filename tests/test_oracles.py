"""The output-sensitive constructions against their brute-force oracles."""

import dataclasses
import json
import random

import pytest

import oracles
from treehopf import verify
from treehopf.algebra import ALGEBRAS, FreeElement, TensorElement, get_algebra
from treehopf.bases import forest_down_set, r_product_endo, r_product_forest
from treehopf.cli import main
from treehopf.endo import ideals
from treehopf.realization import (
    FAMILIES,
    NCPolynomial,
    decode_word,
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
    cycle_vertices,
    enumerate_admissible_cuts,
    enumerate_ordered_forests,
    enumerate_packed_words,
)
from treehopf.words import wqsym_product, wqsym_realize


def pairs(keys, total):
    return [(a, b) for da in range(total + 1) for a in keys(da) for b in keys(total - da)]


def test_packed_words_match_the_oracle_in_order():
    for n in range(7):
        assert enumerate_packed_words(n) == list(oracles.packed_words(n)), n


def test_ordered_forests_match_the_oracle_in_order():
    for n in range(7):
        assert enumerate_ordered_forests(n) == list(oracles.ordered_forests(n)), n


def test_wqsym_realize_matches_the_oracle():
    for n in range(6):
        for u in oracles.packed_words(n):
            x = FreeElement("wqsym", {u: 2})
            for size in range(1, 6):
                assert wqsym_realize(x, size) == oracles.wqsym_realize(x, size), (u, size)
    x = FreeElement("wqsym", {PackedWord((1, 2)): 1, PackedWord((2, 1)): 1, PackedWord((1, 1)): 1})
    assert wqsym_realize(x, 4) == oracles.wqsym_realize(x, 4)


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
        assert ideals(f) == oracles.closed_sets(f.image), f
    for forest in oracles.ordered_forests(n):
        assert enumerate_admissible_cuts(forest) == oracles.admissible_cuts(forest), forest


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
            assert decode_word(oracles.encode_word(word, size), size) == word


@pytest.mark.parametrize("max_degree, size", [(3, 3), (4, 2)])
def test_doubled_triples_split_the_oracle_words_by_side(max_degree, size):
    for version, key, size, doubled in coded_cases(max_degree, size):
        if not doubled:
            continue
        blocks = list(family(version).words(key, size, True))
        got = sorted(
            (decode_word(a, size), tuple(("B", i, j) for _, i, j in decode_word(b, size)))
            for _, a_codes, b_codes in blocks
            for a in a_codes
            for b in b_codes
        )
        assert got == sorted(
            (tuple(l for l in w if l[0] == "A"), tuple(l for l in w if l[0] == "B"))
            for w in WORD_ORACLES[version](key, size, True)
        )
        counts = {}
        for pair in got:
            counts[pair] = counts.get(pair, 0) + 1
        assert group_doubled(family(version).realize(key, size, True)) == counts
        for mask, a_codes, b_codes in blocks:
            for a in a_codes:
                assert len(decode_word(a, size)) == key.n - mask.bit_count()
            for b in b_codes:
                assert len(decode_word(b, size)) == mask.bit_count()


# ---------------------------------------------------------------------------
# Realization checks: sorted words and rectangles against the oracle checks
# ---------------------------------------------------------------------------

def check_verdicts(size, max_degree):
    """(case, library verdict, oracle verdict) for multiplicativity on every
    pair of total degree <= max_degree and doubling on every key of degree
    <= max_degree, in every family."""
    out = []
    for version in FAMILIES:
        keys = family(version).ops.keys_of_degree
        degrees = range(max_degree + 1)
        cases = [("multiplicativity_ok", pair) for total in degrees for pair in pairs(keys, total)]
        cases += [("doubling_transport_ok", (key,)) for d in degrees for key in keys(d)]
        for check, args in cases:
            got = getattr(verify, check)(version, *args, size)
            out.append(((version, check, args, size), got, getattr(oracles, check)(version, *args, size)))
    return out


@pytest.fixture
def pair_counts(monkeypatch):
    """The verdicts of the doubling checks that fell back to counting word
    pairs."""
    verdicts = []
    count_pairs = verify._pair_counts_ok

    def spy(*args):
        verdicts.append(count_pairs(*args))
        return verdicts[-1]

    monkeypatch.setattr(verify, "_pair_counts_ok", spy)
    return verdicts


@pytest.mark.parametrize("size", [1, 2, 3])
def test_realization_checks_match_the_oracle_checks(size, pair_counts):
    for case, got, want in check_verdicts(size, 3):
        assert got is want is True, case
    assert not pair_counts


def spoil_the_coproduct(spoil):
    def broken(ops):
        def coproduct(key):
            return TensorElement(ops.tag, spoil(list(ops.coproduct(key).terms.items())))

        return dataclasses.replace(ops, coproduct=coproduct)

    return broken


BROKEN_KERNELS = {
    "coproduct term dropped": spoil_the_coproduct(lambda terms: dict(terms[1:])),
    "coproduct term doubled": spoil_the_coproduct(
        lambda terms: dict([(t, 2 * c) for t, c in terms[:1]] + terms[1:])
    ),
    "product scaled by 2": lambda ops: dataclasses.replace(ops, product=lambda a, b: 2 * ops.product(a, b)),
    "product factors swapped": lambda ops: dataclasses.replace(ops, product=lambda a, b: ops.product(b, a)),
}


@pytest.mark.parametrize("broken", BROKEN_KERNELS)
def test_realization_checks_match_the_oracle_on_broken_kernels(broken, monkeypatch, pair_counts):
    for tag in {fam.algebra for fam in FAMILIES.values()}:
        monkeypatch.setitem(ALGEBRAS, tag, BROKEN_KERNELS[broken](get_algebra(tag)))
    verdicts = check_verdicts(3, 3)
    for case, got, want in verdicts:
        assert got is want, case
    assert not all(want for _, _, want in verdicts)
    assert bool(pair_counts) == broken.startswith("coproduct")


# a fault in one key's word list, applied to every plain list and to the
# A-subwords of every doubled block
WORD_FAULTS = {
    "a repeated word": lambda key, words: words + words[:1],
    "an extra word above degree 1": (
        lambda key, words: words + [max(words) + 1] if key.n > 1 and words else words
    ),
}


@pytest.mark.parametrize("fault", WORD_FAULTS)
def test_realization_checks_match_the_oracle_on_faulty_word_lists(fault, monkeypatch, pair_counts):
    spoil = WORD_FAULTS[fault]

    def spoiled(words):
        def faulty(key, size, doubled=False):
            found = words(key, size, doubled)
            if doubled:
                return [(mask, spoil(key, a_codes), b_codes) for mask, a_codes, b_codes in found]
            return spoil(key, found)

        return faulty

    for version, fam in list(FAMILIES.items()):
        monkeypatch.setitem(FAMILIES, version, fam._replace(words=spoiled(fam.words)))
    verdicts = check_verdicts(3, 3)
    for case, got, want in verdicts:
        assert got is want, case
    assert not all(want for _, _, want in verdicts)
    assert pair_counts


def polynomial_product(p, q):
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def test_mixed_size_polynomials_agree_with_their_decoded_terms():
    fam = family("v2")
    one = fam.realize(OrderedForest((0, 1)), 3)
    rebuilt = NCPolynomial({oracles.encode_word(w, 3): c for w, c in one.terms.items()}, 3)
    # words of lengths 1 and 2: the product takes its general path
    mixed = fam.realize(FreeElement("ho", {OrderedForest((0, 1)): 2, OrderedForest((0,)): -1}), 3)
    polys = [one, rebuilt, mixed, fam.realize(OrderedForest((0,)), 3), NCPolynomial({}, 3)]
    for p in polys:
        for q in polys:
            assert (p == q) == (p.terms == q.terms)
            assert (p * q).terms == polynomial_product(p.terms, q.terms)
    assert one == rebuilt
    with pytest.raises(TypeError):
        hash(one)
    # the same letter words at two truncations
    small = fam.realize(OrderedForest((0,)), 1)
    recoded = NCPolynomial({oracles.encode_word(w, 2): c for w, c in small.terms.items()}, 2)
    assert small.terms == recoded.terms and small != recoded
    with pytest.raises(StructureError, match="truncated at 1 and 2"):
        small * recoded


def test_letters_outside_the_alphabet_are_rejected():
    for letter in (("C", 1, 2), ("A", 1, 0), ("A", -1, 2), ("A", 1, 3)):
        with pytest.raises(StructureError):
            oracles.encode_word((letter,), 2)


def test_cycle_vertices_match_the_oracle():
    for n in range(7):
        for f in oracles.endofunctions(n):
            assert cycle_vertices(f) == oracles.cycle_vertices(f), f
