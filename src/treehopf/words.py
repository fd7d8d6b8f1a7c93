"""WQSym in the monomial basis M, plus the b endomorphism.

The product is the quasi-shuffle of the two value alphabets: M_u M_v sums
M_w over the ways of merging the values {1..max u} and {1..max v} into one
chain {1..r}, where a value of u and a value of v may also coincide.  The
coproduct splits the value range of a packed word (the polynomial shadow
of doubling an ordered alphabet).  Both are validated elsewhere against the
quotient map from ordered forests.
"""

from __future__ import annotations

import itertools

from .algebra import AlgebraOps, FreeElement, TensorElement, register_algebra
from .structures import PackedWord, _check_bound, enumerate_packed_words


def wqsym_product(u: PackedWord, v: PackedWord) -> FreeElement:
    """M_u M_v = sum of M_w over packed w whose length-|u| prefix packs to u
    and whose suffix packs to v.

    Such a w is alpha(u) . beta(v) for one pair of strictly increasing maps
    alpha: {1..max u} -> {1..r}, beta: {1..max v} -> {1..r} whose images
    together cover {1..r} (Hoffman's quasi-shuffle).  For each r, alpha is
    any max u values of {1..r}; beta takes the other r - max u values and
    max u + max v - r of alpha's.  Every coefficient is 1.
    """
    _check_bound(u.n + v.n, "packed word enumeration")
    p, q = u.max_letter(), v.max_letter()
    words: list[tuple[int, ...]] = []
    for r in range(max(p, q), p + q + 1):
        values = range(1, r + 1)
        for alpha in itertools.combinations(values, p):
            prefix = tuple([alpha[a - 1] for a in u.letters])
            rest = [k for k in values if k not in alpha]
            for shared in itertools.combinations(alpha, p + q - r):
                beta = sorted(rest + list(shared)) if shared else rest
                words.append(prefix + tuple([beta[b - 1] for b in v.letters]))
    words.sort()
    return FreeElement("wqsym", dict.fromkeys(map(PackedWord._of, words), 1))


def wqsym_coproduct(u: PackedWord) -> TensorElement:
    """Split the values of u at each threshold k, packing the upper part:
    the letters above k are k+1..max u, so subtracting k packs them."""
    terms: dict = {}
    for k in range(u.max_letter() + 1):
        low = PackedWord._of([a for a in u if a <= k])
        high = PackedWord._of([a - k for a in u if a > k])
        pair = (low, high)
        terms[pair] = terms.get(pair, 0) + 1
    return TensorElement("wqsym", terms)


def b_word(u: PackedWord) -> PackedWord:
    """1 . u[1]: shift the letters of u by one, then prepend a 1."""
    return PackedWord._of((1,) + tuple(a + 1 for a in u.letters))


def b_endomorphism(x: FreeElement) -> FreeElement:
    return x.map_keys(b_word)


def wqsym_realize(x: FreeElement, size: int) -> dict[tuple[int, ...], int]:
    """Realization over the ordered alphabet a_1 < ... < a_size:
    M_u = sum of words packing to u.  Words are tuples of letters.

    The words packing to u are alpha(u) for the strictly increasing maps
    alpha: {1..max u} -> {1..size}, one per choice of max u letters.
    """
    out: dict[tuple[int, ...], int] = {}
    for u, coeff in x.terms.items():
        for alpha in itertools.combinations(range(1, size + 1), u.max_letter()):
            word = tuple(alpha[a - 1] for a in u.letters)
            out[word] = out.get(word, 0) + coeff
    return {w: c for w, c in out.items() if c}


register_algebra(
    AlgebraOps(
        tag="wqsym",
        key_type=PackedWord,
        keys_of_degree=enumerate_packed_words,
        product=wqsym_product,
        coproduct=wqsym_coproduct,
        default_basis="M",
    )
)
