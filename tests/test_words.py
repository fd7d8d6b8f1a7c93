import itertools

from treehopf.algebra import FreeElement, TensorElement, product_elements
from treehopf.structures import PackedWord, enumerate_packed_words, pack
from treehopf.words import (
    b_endomorphism,
    b_word,
    wqsym_coproduct,
    wqsym_product,
    wqsym_realize,
)


def W(text):
    return PackedWord.parse(text)


def M(*texts):
    return FreeElement("wqsym", {W(t): 1 for t in texts})


def test_product_of_two_letters():
    assert wqsym_product(W("1"), W("1")) == M("1 1", "1 2", "2 1")


def test_product_with_unit():
    u = W("2 1 2")
    assert wqsym_product(u, PackedWord(())) == FreeElement("wqsym", {u: 1})
    assert wqsym_product(PackedWord(()), u) == FreeElement("wqsym", {u: 1})


def test_product_against_brute_force_over_length_3():
    got = wqsym_product(W("1"), W("1 2"))
    expected = {
        w
        for w in enumerate_packed_words(3)
        if pack(w.letters[:1]) == W("1") and pack(w.letters[1:]) == W("1 2")
    }
    assert set(got.terms) == expected and all(c == 1 for c in got.terms.values())


def test_product_associative_total_length_4():
    keys = [PackedWord(())] + enumerate_packed_words(1) + enumerate_packed_words(2)
    for u, v, w in itertools.product(keys, repeat=3):
        if u.n + v.n + w.n > 4:
            continue
        left = product_elements(wqsym_product(u, v), FreeElement("wqsym", {w: 1}))
        right = product_elements(FreeElement("wqsym", {u: 1}), wqsym_product(v, w))
        assert left == right


def test_coproduct_examples():
    empty = PackedWord(())
    assert wqsym_coproduct(W("1")) == TensorElement(
        "wqsym", {(W("1"), empty): 1, (empty, W("1")): 1}
    )
    assert wqsym_coproduct(W("1 2")) == TensorElement(
        "wqsym",
        {(W("1 2"), empty): 1, (W("1"), W("1")): 1, (empty, W("1 2")): 1},
    )
    assert wqsym_coproduct(W("1 1")) == TensorElement(
        "wqsym", {(W("1 1"), empty): 1, (empty, W("1 1")): 1}
    )


def test_coproduct_matches_ordinal_sum_doubling():
    # realize M_u over the ordinal sum of two ordered alphabets (every A
    # letter below every B letter) and group words by sides: this must
    # reproduce the value-splitting coproduct term by term
    size = 3
    alphabet = [("A", i) for i in range(1, size + 1)] + [("B", i) for i in range(1, size + 1)]
    rank = {letter: pos for pos, letter in enumerate(alphabet, start=1)}
    for n in range(4):
        for u in enumerate_packed_words(n):
            grouped = {}
            for word in itertools.product(alphabet, repeat=n):
                if pack([rank[l] for l in word]) != u:
                    continue
                pair = (
                    tuple(i for s, i in word if s == "A"),
                    tuple(i for s, i in word if s == "B"),
                )
                grouped[pair] = grouped.get(pair, 0) + 1
            expected = {}
            for (u1, u2), c in wqsym_coproduct(u).terms.items():
                left = wqsym_realize(FreeElement("wqsym", {u1: 1}), size)
                right = wqsym_realize(FreeElement("wqsym", {u2: 1}), size)
                for w1 in left:
                    for w2 in right:
                        expected[(w1, w2)] = expected.get((w1, w2), 0) + c
            assert grouped == expected, u


def test_b_endomorphism():
    assert b_word(W("2 1 3 1")) == W("1 3 2 4 2")
    assert b_word(PackedWord(())) == W("1")
    assert b_word(W("1 1")) == W("1 2 2")
    x = M("2 1 3 1") + 2 * M("1")
    assert b_endomorphism(x) == M("1 3 2 4 2") + 2 * M("1 2")


def test_graded_dimensions_are_ordered_bell():
    assert [len(enumerate_packed_words(n)) for n in range(7)] == [1, 1, 3, 13, 75, 541, 4683]


def test_realization_over_an_ordered_alphabet():
    # M_u = sum of words packing to u; the product then matches polynomial product
    for u in enumerate_packed_words(1):
        for v in enumerate_packed_words(2):
            lhs = wqsym_realize(wqsym_product(u, v), 4)
            left = wqsym_realize(FreeElement("wqsym", {u: 1}), 4)
            right = wqsym_realize(FreeElement("wqsym", {v: 1}), 4)
            prod = {}
            for w1, c1 in left.items():
                for w2, c2 in right.items():
                    prod[w1 + w2] = prod.get(w1 + w2, 0) + c1 * c2
            assert lhs == prod
