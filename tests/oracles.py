"""Brute-force oracles for the output-sensitive constructions.

Each function states its result by definition: scan every object of the
target degree and keep the ones that satisfy the defining condition.  The
library builds the same results term by term; ``test_oracles.py`` checks
that the two agree.  The oracles are slow on purpose and live only here.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from treehopf.algebra import FreeElement
from treehopf.endo import std_restrict
from treehopf.structures import (
    Endofunction,
    OrderedForest,
    PackedWord,
    enumerate_endofunctions,
    enumerate_ordered_forests,
    pack,
    restrict_forest,
)


@lru_cache(maxsize=None)
def packed_words(n: int) -> tuple[PackedWord, ...]:
    """All packed words of length n: every n-tuple over {1..n} whose values
    form an initial segment, in lexicographic order."""
    if n == 0:
        return (PackedWord(()),)
    out = []
    for letters in itertools.product(range(1, n + 1), repeat=n):
        m = max(letters)
        if set(letters) == set(range(1, m + 1)):
            out.append(PackedWord(letters))
    return tuple(out)


@lru_cache(maxsize=None)
def ordered_forests(n: int) -> tuple[OrderedForest, ...]:
    return tuple(enumerate_ordered_forests(n))


@lru_cache(maxsize=None)
def endofunctions(n: int) -> tuple[Endofunction, ...]:
    return tuple(enumerate_endofunctions(n))


def wqsym_product(u: PackedWord, v: PackedWord) -> FreeElement:
    """M_u M_v: packed w whose length-|u| prefix packs to u and whose suffix
    packs to v."""
    cut = u.n
    terms = {}
    for w in packed_words(u.n + v.n):
        if pack(w.letters[:cut]) == u and pack(w.letters[cut:]) == v:
            terms[w] = 1
    return FreeElement("wqsym", terms)


def pi_image(forest: OrderedForest) -> FreeElement:
    """pi(S^F): packed words with parent value strictly below child value."""
    edges = forest.edges()
    terms = {}
    for m in packed_words(forest.n):
        if all(m.letters[p - 1] < m.letters[v - 1] for (v, p) in edges):
            terms[m] = 1
    return FreeElement("wqsym", terms)


def forest_down_set(forest: OrderedForest) -> list[OrderedForest]:
    """Forests on the same vertices whose edge set contains the given one."""
    needed = set(forest.edges())
    return [g for g in ordered_forests(forest.n) if needed <= set(g.edges())]


def r_product_forest(left: OrderedForest, right: OrderedForest) -> FreeElement:
    """Forests whose restrictions to the two label intervals are the factors."""
    k1, k2 = left.n, right.n
    block1 = range(1, k1 + 1)
    block2 = range(k1 + 1, k1 + k2 + 1)
    terms = {}
    for f in ordered_forests(k1 + k2):
        if restrict_forest(f, block1) == left and restrict_forest(f, block2) == right:
            terms[f] = 1
    return FreeElement("ho", terms)


def r_product_endo(left: Endofunction, right: Endofunction) -> FreeElement:
    """Endofunctions standardizing to the factors on the two blocks."""
    k1, k2 = left.n, right.n
    block1 = range(1, k1 + 1)
    block2 = range(k1 + 1, k1 + k2 + 1)
    terms = {}
    for f in endofunctions(k1 + k2):
        if std_restrict(f, block1) == left and std_restrict(f, block2) == right:
            terms[f] = 1
    return FreeElement("efsym", terms)
