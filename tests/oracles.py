"""Brute-force oracles for the output-sensitive constructions.

Each function states its result by definition: scan every object of the
target degree and keep the ones that satisfy the defining condition.  The
library builds the same results term by term; ``test_oracles.py`` checks
that the two agree.  The oracles are slow on purpose and live only here.
The compatible-word enumerators build each word as a tuple of letters, the
way the definition reads; the library enumerates integer word codes, and
``encode_word`` codes a letter word the way the library's ``decode_word``
reads it back.  The realization checks multiply whole polynomials and
count every pair of doubled subwords; the library compares sorted word
lists and rectangles of words.  Plane forests are nested tuples of
subtrees here; the library stores the parent vector of their depth-first
labelling.  The products of the five map algebras are stated on each key
type's own data (parent vectors, canonical strings, image vectors); the
library shifts and concatenates the maps and reads the result back.
Five constructions the library writes in closed form are kept here as the
recursions that first built them: F_w, the minimal pi word, the Faa di
Bruno powers, S in the commutative R basis and the WQSym quasi-shuffle.
The ``realize`` JSON is built here as one dict, which the CLI streams.
``pi_plane_ranks`` counts what the injectivity of pi on plane forests
rests on; no library path computes it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator

from treehopf.algebra import FreeElement, TensorElement, accumulate, get_algebra, product_elements, unit_element
from treehopf.bases import r_commutative
from treehopf.morphisms import b_plus
from treehopf.realization import Letter, Word, _check_truncation, code_base, family, rank_of_rows
from treehopf.structures import (
    Endofunction,
    OrderedForest,
    PackedWord,
    Permutation,
    PlaneForest,
    StructureError,
    enumerate_endofunctions,
    enumerate_plane_forests,
    pack,
    shifted_parents,
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
    """Every parent vector in {0..n}^n that ``OrderedForest`` accepts (no
    self-parent, no cycle), in lexicographic order."""
    out = []
    for parent in itertools.product(range(n + 1), repeat=n):
        try:
            out.append(OrderedForest(parent))
        except StructureError:
            pass
    return tuple(out)


@lru_cache(maxsize=None)
def endofunctions(n: int) -> tuple[Endofunction, ...]:
    return tuple(enumerate_endofunctions(n))


def cycle_vertices(f: Endofunction) -> set[int]:
    """v lies on a cycle iff f^k(v) = v for some 1 <= k <= n."""
    on_cycle = set()
    for v in range(1, f.n + 1):
        w = v
        for _ in range(f.n):
            w = f(w)
            if w == v:
                on_cycle.add(v)
                break
    return on_cycle


def functional_graph(f: Endofunction) -> tuple[list[int], list[tuple[int, ...]]]:
    """depth: the least k with f^k(v) on a cycle, per vertex; cycles: the
    orbits of the cycle vertices, each rotated to its least vertex, in the
    order of their least vertices."""
    on_cycle = cycle_vertices(f)
    depth = []
    for v in range(1, f.n + 1):
        k, w = 0, v
        while w not in on_cycle:
            k, w = k + 1, f(w)
        depth.append(k)
    orbits = set()
    for v in on_cycle:
        orbit = [v]
        while f(orbit[-1]) != v:
            orbit.append(f(orbit[-1]))
        least = orbit.index(min(orbit))
        orbits.add(tuple(orbit[least:] + orbit[:least]))
    return depth, sorted(orbits, key=min)


def wqsym_product(u: PackedWord, v: PackedWord) -> FreeElement:
    """M_u M_v: packed w whose length-|u| prefix packs to u and whose suffix
    packs to v."""
    cut = u.n
    terms = {}
    for w in packed_words(u.n + v.n):
        if pack(w.letters[:cut]) == u and pack(w.letters[cut:]) == v:
            terms[w] = 1
    return FreeElement("wqsym", terms)


@lru_cache(maxsize=None)
def _words_by_packing(n: int, size: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Every word of length n over {1..size}, grouped by the packed word it
    packs to, in lexicographic order."""
    out: dict = {}
    for word in itertools.product(range(1, size + 1), repeat=n):
        out.setdefault(pack(word).letters, []).append(word)
    return out


def wqsym_realize(x: FreeElement, size: int) -> dict[tuple[int, ...], int]:
    """M_u realized over a_1 < ... < a_size: the words that pack to u."""
    out: dict[tuple[int, ...], int] = {}
    for u, coeff in x.terms.items():
        for word in _words_by_packing(u.n, size).get(u.letters, []):
            out[word] = out.get(word, 0) + coeff
    return {w: c for w, c in out.items() if c}


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
        if _restrict(f.image, block1) == left and _restrict(f.image, block2) == right:
            terms[f] = 1
    return FreeElement("efsym", terms)


# The cut rule: every vertex subset, keeping the preimage-closed ones.

def closed_sets(image: tuple[int, ...]) -> list[frozenset[int]]:
    """Vertex sets I with f^{-1}(I) inside I, in increasing bitmask order."""
    n = len(image)
    out = []
    for mask in range(1 << n):
        members = frozenset(v for v in range(1, n + 1) if mask >> (v - 1) & 1)
        if all(v in members for v in range(1, n + 1) if image[v - 1] in members):
            out.append(members)
    return out


def admissible_cuts(forest: OrderedForest) -> list[frozenset[int]]:
    """Vertex sets holding no strict ancestor of a member, in increasing
    bitmask order."""
    n = forest.n
    out = []
    for mask in range(1 << n):
        members = frozenset(v for v in range(1, n + 1) if mask >> (v - 1) & 1)
        if not any(ancestors(forest, v) & members for v in members):
            out.append(members)
    return out


def _restrict(image: tuple[int, ...], part: Iterable[int]) -> tuple[int, ...]:
    """f on ``part``, with escaping values made fixed, renamed onto {1..k}."""
    keep = sorted(part)
    rank = {v: i + 1 for i, v in enumerate(keep)}
    return tuple(rank[image[v - 1]] if image[v - 1] in rank else rank[v] for v in keep)


def _cut_coproduct(tag: str, image: tuple[int, ...], make) -> TensorElement:
    """Sum of make(f on the complement) (x) make(f on I) over closed I."""
    domain = set(range(1, len(image) + 1))
    terms: dict = {}
    for lea in closed_sets(image):
        pair = (make(_restrict(image, domain - lea)), make(_restrict(image, lea)))
        terms[pair] = terms.get(pair, 0) + 1
    return TensorElement(tag, terms)


def _parent_map(forest) -> tuple[int, ...]:
    """f_F of any forest key, read through its ``parent`` vector."""
    return tuple(p if p else v for v, p in enumerate(forest.parent, start=1))


def _forest(image: tuple[int, ...]) -> OrderedForest:
    return OrderedForest(tuple(0 if w == v else w for v, w in enumerate(image, start=1)))


def ancestors(forest: OrderedForest, v: int) -> set[int]:
    """Strict ancestors of v (the vertices v eventually points down to)."""
    out = set()
    p = forest.parent[v - 1]
    while p != 0:
        out.add(p)
        p = forest.parent[p - 1]
    return out


def moved_points(f: Endofunction) -> tuple[int, ...]:
    return tuple(v for v in range(1, f.n + 1) if f(v) != v)


def restrict_forest(forest: OrderedForest, vertices: Iterable[int]) -> OrderedForest:
    """Induced subforest on ``vertices``, re-standardized to {1..k}: the
    edges with both endpoints kept, survivors renamed in increasing order."""
    keep = sorted(set(vertices))
    if any(v < 1 or v > forest.n for v in keep):
        raise StructureError(f"restriction set {keep} not a subset of the vertex set")
    return _forest(_restrict(_parent_map(forest), keep))


# The ck oracles state their keys as canonical strings, built from
# nested-tuple shapes (``canonical_form``), never through the library's
# canonical vectors; ``comparable`` renders a ck result to match.

def _canonical_string(forest: OrderedForest) -> str:
    return canonical_form(forest_shape(forest))


def comparable(x: FreeElement | TensorElement) -> FreeElement | TensorElement:
    """``x`` as the oracles state it: ck keys rendered, other keys as they are."""
    if x.algebra != "ck":
        return x
    if isinstance(x, TensorElement):
        return TensorElement("ck", {(a.render(), b.render()): c for (a, b), c in x.terms.items()})
    return FreeElement("ck", {k.render(): c for k, c in x.terms.items()})


COPRODUCTS = {
    "ho": lambda f: _cut_coproduct("ho", _parent_map(f), _forest),
    "ck": lambda f: _cut_coproduct("ck", _parent_map(f), lambda image: _canonical_string(_forest(image))),
    "nck": lambda f: _cut_coproduct("nck", _parent_map(f), lambda image: plane_from_labelling(_forest(image))),
    "efsym": lambda f: _cut_coproduct("efsym", f.image, Endofunction),
    "sgsym": lambda s: _cut_coproduct("sgsym", s.image, Permutation),
}


def product_key(tag: str, a, b):
    """The single key, with coefficient 1, of the registered product a . b."""
    ((key, coeff),) = get_algebra(tag).product(a, b).terms.items()
    assert coeff == 1, (tag, a, b, coeff)
    return key


# The products key by key, each in its own terms: parent vectors shifted for
# ordered and plane forests, the canonical string of the union for
# unlabelled ones, image vectors shifted for endofunctions and permutations.

def _shifted_union(a, b) -> tuple[int, ...]:
    return a.parent + tuple(p + a.n if p else 0 for p in b.parent)


PRODUCTS = {
    "ho": lambda a, b: OrderedForest(_shifted_union(a, b)),
    "nck": lambda a, b: PlaneForest(_shifted_union(a, b)),
    "ck": lambda a, b: _canonical_string(OrderedForest(_shifted_union(a, b))),
    "efsym": lambda f, g: Endofunction(f.image + tuple(v + f.n for v in g.image)),
    "sgsym": lambda s, t: Permutation(s.image + tuple(v + s.n for v in t.image)),
}


# Plane forests as nested tuples: a tree is the tuple of its subtrees, a
# forest the tuple of its trees, child order significant.  The library
# stores the parent vector of the depth-first labelling instead.

@lru_cache(maxsize=None)
def plane_shapes(n: int) -> tuple[tuple, ...]:
    """Every plane forest with n vertices: by the size of the first tree,
    then its subforest, then the rest of the forest."""
    if n == 0:
        return ((),)
    return tuple(
        (tree,) + rest
        for first in range(1, n + 1)
        for tree in plane_shapes(first - 1)
        for rest in plane_shapes(n - first)
    )


def plane_render(shape: tuple) -> str:
    def rec(tree) -> str:
        return "(" + "".join(rec(sub) for sub in tree) + ")"

    return " ".join(rec(tree) for tree in shape)


def plane_labelling(shape: tuple) -> tuple[int, ...]:
    """Parent vector of the "up-left" labelling: left depth-first traversal,
    numbering each vertex on first encounter."""
    parent: list[int] = []

    def visit(tree, parent_label: int):
        parent.append(parent_label)
        label = len(parent)
        for sub in tree:
            visit(sub, label)

    for tree in shape:
        visit(tree, 0)
    return tuple(parent)


def canonical_form(shape: tuple) -> str:
    """Children sorted, trees sorted: one string per unlabelled forest."""

    def rec(tree) -> str:
        return "(" + "".join(sorted(rec(sub) for sub in tree)) + ")"

    return " ".join(sorted(rec(tree) for tree in shape))


def forest_shape(forest: OrderedForest) -> tuple:
    """The nested tuples of an ordered forest: children by increasing label,
    trees by increasing root."""
    kids = forest.children()

    def build(v: int) -> tuple:
        return tuple(build(c) for c in sorted(kids[v]))

    return tuple(build(r) for r in forest.roots())


def plane_from_labelling(forest: OrderedForest) -> PlaneForest:
    """The plane forest whose up-left labelling is ``forest``; raises
    ``StructureError`` when ``forest`` is no such labelling."""
    shape = forest_shape(forest)
    if plane_labelling(shape) != forest.parent:
        raise StructureError(f"{forest.render()!r} is not a canonical plane labelling")
    return PlaneForest.parse(plane_render(shape))


# Compatible words, letter by letter: the library enumerates their codes.

def encode_word(word: Word, size: int) -> int:
    k = size + 1
    base = code_base(size)
    code = 0
    for letter in reversed(word):
        side, i, j = letter
        if side not in ("A", "B") or not 0 <= i <= size or not 1 <= j <= size:
            raise StructureError(f"letter {letter!r} is not a letter at truncation {size}")
        code = code * base + ((side == "B") * k + i) * k + j
    return code


def _traversal_order(forest: OrderedForest) -> list[int]:
    kids = forest.children()
    order: list[int] = []
    stack = sorted(forest.roots(), reverse=True)
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(sorted(kids[v], reverse=True))
    return order


def iter_forest_words(
    forest: OrderedForest, version: str, size: int, doubled: bool = False
) -> Iterator[Word]:
    """All forest-compatible words with subscripts bounded by ``size``."""
    if version not in ("v1", "v2"):
        raise StructureError(f"forest realization version must be v1 or v2, got {version!r}")
    _check_truncation(size)
    n = forest.n
    if n == 0:
        yield ()
        return
    order = _traversal_order(forest)
    parent = forest.parent
    letters: list[Letter | None] = [None] * (n + 1)
    value = [0] * (n + 1)
    side = [""] * (n + 1)
    sides = ("A", "B") if doubled else ("A",)

    def root_like(v: int, s: str, idx: int) -> Iterator[Word]:
        side[v] = s
        if version == "v2":
            for val in range(1, size + 1):
                value[v] = val
                letters[v] = (s, val, val)
                yield from assign(idx + 1)
        else:
            for first in range(size):
                for val in range(first + 1, size + 1):
                    value[v] = val
                    letters[v] = (s, first, val)
                    yield from assign(idx + 1)

    def assign(idx: int) -> Iterator[Word]:
        if idx == n:
            yield tuple(letters[1:])
            return
        v = order[idx]
        p = parent[v - 1]
        if p == 0:
            for s in sides:
                yield from root_like(v, s, idx)
        else:
            side[v] = side[p]
            for val in range(value[p] + 1, size + 1):
                value[v] = val
                letters[v] = (side[p], value[p], val)
                yield from assign(idx + 1)
            if doubled and side[p] == "A":
                yield from root_like(v, "B", idx)  # cut vertex: restarts in B

    yield from assign(0)


def iter_endofunction_words(
    f: Endofunction, size: int, doubled: bool = False
) -> Iterator[Word]:
    """All f-compatible words over the i != j alphabet, subscripts <= size."""
    _check_truncation(size)
    n = f.n
    if n == 0:
        yield ()
        return
    moved = [j for j in range(1, n + 1) if f(j) != j]
    values = range(1, size + 1)
    side_choices: Iterable[tuple[str, ...]]
    if doubled:
        side_choices = itertools.product("AB", repeat=n)
    else:
        side_choices = [("A",) * n]
    for sides in side_choices:
        # B letters can never sit below A letters along an edge f(j) -> j.
        if any(sides[f(j) - 1] > sides[j - 1] for j in moved):
            continue
        linked = [j for j in moved if sides[f(j) - 1] == sides[j - 1]]
        free = [j for j in range(1, n + 1) if f(j) == j or sides[f(j) - 1] != sides[j - 1]]
        for ys in itertools.product(values, repeat=n):
            if any(ys[f(j) - 1] == ys[j - 1] for j in linked):
                continue
            base: list[Letter | None] = [None] * n
            for j in linked:
                base[j - 1] = (sides[j - 1], ys[f(j) - 1], ys[j - 1])
            free_ranges = [[x for x in values if x != ys[j - 1]] for j in free]
            for xs in itertools.product(*free_ranges):
                word = list(base)
                for j, x in zip(free, xs):
                    word[j - 1] = (sides[j - 1], x, ys[j - 1])
                yield tuple(word)  # type: ignore[arg-type]


def iter_permutation_words(
    sigma: Permutation, size: int, doubled: bool = False
) -> Iterator[Word]:
    """Words a_{i_{sigma^-1(1)} i_1} ... a_{i_{sigma^-1(n)} i_n}; cycles stay
    on one side of a doubled alphabet."""
    _check_truncation(size)
    n = sigma.n
    if n == 0:
        yield ()
        return
    inv = sigma.inverse()
    cycles = sigma.cycles()
    if doubled:
        cycle_sides = itertools.product("AB", repeat=len(cycles))
    else:
        cycle_sides = [("A",) * len(cycles)]
    for assignment in cycle_sides:
        sides = [""] * (n + 1)
        for cyc, s in zip(cycles, assignment):
            for v in cyc:
                sides[v] = s
        for vals in itertools.product(range(1, size + 1), repeat=n):
            yield tuple(
                (sides[k], vals[inv(k) - 1], vals[k - 1]) for k in range(1, n + 1)
            )


# Realization checks

def multiplicativity_ok(version: str, left, right, size: int) -> bool:
    """S^x S^y = S^{x.y}: the product of two realized polynomials against
    the realized product."""
    fam = family(version)
    return fam.realize(left, size) * fam.realize(right, size) == fam.realize(
        fam.ops.product(left, right), size
    )


def doubling_transport_ok(version: str, key, size: int) -> bool:
    """Every doubled word counted by its (A-subword, B-subword) pair, against
    the coproduct terms' pairs of words counted with their coefficients."""
    fam = family(version)
    grouped: dict = {}
    for _, a_codes, b_codes in fam.words(key, size, True):
        for b in b_codes:
            for a in a_codes:
                pair = (a, b)
                grouped[pair] = grouped.get(pair, 0) + 1
    expected: dict = {}
    for (a, b), coeff in fam.ops.coproduct(key).terms.items():
        left = fam.realize(a, size).codes
        right = fam.realize(b, size).codes
        for w2 in right:
            for w1 in left:
                pair = (w1, w2)
                expected[pair] = expected.get(pair, 0) + coeff
    return grouped == expected


# The recursions behind the library's closed forms.

def relabel_forest(forest: OrderedForest, new_label: dict[int, int]) -> OrderedForest:
    """Rename vertex v to new_label[v]; new_label must be a bijection onto {1..n}."""
    n = forest.n
    parent = [0] * n
    for v in range(1, n + 1):
        p = forest.parent[v - 1]
        parent[new_label[v] - 1] = 0 if p == 0 else new_label[p]
    return OrderedForest(tuple(parent))


def f_w_preimage(w: PackedWord) -> OrderedForest:
    """Nondecreasing words either split off a repeated initial 1 or apply B+;
    otherwise the stable sorting permutation rearranges the vertex labels of
    the preimage of the sorted word."""
    n = w.n
    if n == 0:
        return OrderedForest(())
    if n == 1:
        return OrderedForest((0,))
    a = w.letters
    if all(a[i] <= a[i + 1] for i in range(n - 1)):
        if a[0] == a[1]:
            return OrderedForest((0,) + shifted_parents(f_w_preimage(PackedWord(a[1:])).parent, 1))
        return b_plus(f_w_preimage(pack(a[1:])))
    positions = sorted(range(n), key=lambda p: (a[p], p))
    base = f_w_preimage(pack(tuple(a[p] for p in positions)))
    return relabel_forest(base, {v: positions[v - 1] + 1 for v in range(1, n + 1)})


def minimal_pi_words(n: int) -> dict[tuple[int, ...], PackedWord]:
    """Parent vector -> the smallest word of its pi image, for every ordered
    forest on n vertices.  Packed words are read in lexicographic order; a
    word lies in pi(F) when every parent of F holds a smaller letter than
    its child, so the first word that admits F is its smallest."""
    first: dict[tuple[int, ...], PackedWord] = {}
    for w in packed_words(n):
        choices = [[0] + [j for j in range(1, n + 1) if w.letters[j - 1] < a] for a in w.letters]
        for parent in itertools.product(*choices):
            first.setdefault(parent, w)
    return first


def pi_plane_ranks(max_degree: int) -> dict[int, tuple[int, int, int]]:
    """Degree -> (plane forests, rank of the pi images of their labellings
    over the M basis, distinct smallest words of those images): pi is
    injective on plane images when the three agree."""
    out = {}
    for n in range(1, max_degree + 1):
        labelled = [OrderedForest(plane_labelling(shape)) for shape in plane_shapes(n)]
        smallest = minimal_pi_words(n)
        rank = rank_of_rows([pi_image(f).terms for f in labelled])
        out[n] = (len(labelled), rank, len({smallest[f.parent] for f in labelled}))
    return out


@lru_cache(maxsize=None)
def plane_sum(n: int) -> FreeElement:
    """U_n: every plane forest with n vertices, coefficient one."""
    return FreeElement("nck", {p: 1 for p in enumerate_plane_forests(n)})


@lru_cache(maxsize=None)
def faa_di_bruno_z(n: int) -> FreeElement:
    """Z_n = sum_k U_k U_{n-k}."""
    out: dict = {}
    for k in range(n + 1):
        accumulate(out, product_elements(plane_sum(k), plane_sum(n - k)).terms)
    return FreeElement("nck", out)


@lru_cache(maxsize=None)
def z_power_component(power: int, n: int) -> FreeElement:
    """(Z^power)_n by graded convolution; power 0 is the unit series."""
    if power == 0:
        return unit_element("nck") if n == 0 else FreeElement("nck")
    out: dict = {}
    for k in range(n + 1):
        accumulate(out, product_elements(z_power_component(power - 1, k), faa_di_bruno_z(n - k)).terms)
    return FreeElement("nck", out)


@lru_cache(maxsize=None)
def ck_s_in_r(forest) -> FreeElement:
    """R^F = S^F + (strictly more edges): unwind the unitriangular expansion."""
    out = {forest: 1}
    for g, coeff in r_commutative(forest).terms.items():
        if g != forest:
            accumulate(out, ck_s_in_r(g).terms, -coeff)
    return FreeElement("ck", out)


def wqsym_quasi_shuffle(u: PackedWord, v: PackedWord) -> FreeElement:
    """M_u M_v built value by value: the next value k of the chain is taken
    by the next value of u, the next value of v, or both."""
    p, q = u.max_letter(), v.max_letter()
    alpha: list[int] = []
    beta: list[int] = []
    words: list[tuple[int, ...]] = []

    def merge(k: int):
        i, j = len(alpha), len(beta)
        if i == p and j == q:
            words.append(tuple(alpha[a - 1] for a in u.letters) + tuple(beta[b - 1] for b in v.letters))
            return
        if i < p:
            alpha.append(k)
            merge(k + 1)
            if j < q:
                beta.append(k)
                merge(k + 1)
                beta.pop()
            alpha.pop()
        if j < q:
            beta.append(k)
            merge(k + 1)
            beta.pop()

    merge(1)
    words.sort()
    return FreeElement("wqsym", {PackedWord(w): 1 for w in words})


def realize_json(version: str, key, size: int) -> dict:
    """The ``realize`` payload: every term of S^key, decoded, sorted by its
    letters."""
    poly = family(version).realize(key, size)
    return {
        "version": version.upper(),
        "N": size,
        "terms": [{"coeff": str(c), "word": [list(letter) for letter in w]} for w, c in sorted(poly.terms.items())],
    }
