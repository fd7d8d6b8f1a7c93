"""Polynomial realizations over truncated relation-equipped alphabets.

Letters are bi-indexed variables tagged with an alphabet side:
``("A", i, j)`` or ``("B", i, j)``.  Three letter regimes are supported:

* ``v1``   -- 0 <= i < j; each tree root carries a free first subscript
  (the value of its virtual-root variable).
* ``v2``   -- 1 <= i <= j; roots carry loop letters a_ii instead.
* ``func`` -- i != j, both >= 1; endofunction letters, one per position,
  with a free first subscript at every fixed point.

Permutations use the unrestricted alphabet with loop letters (``perm``
internally).  A word compatible with a structure chains the second subscript
of each vertex's letter into the first subscript of its children's letters;
the polynomial S^x is the sum of all compatible words with coefficient 1.

Doubling replaces the alphabet by the disjoint union A + B: B letters can
never sit below A letters, and where an A parent meets a B child the child's
letter restarts like a root's (loop for v2, free first subscript otherwise).
Truncation is controlled by N: all subscripts lie in {1..N} ({0..N} for the
first subscripts of v1 root letters).  Product and doubling identities are
exact at every N; linear independence needs N large enough (2n+2 suffices).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .algebra import AlgebraOps, AlgebraTagError, FreeElement, accumulate, get_algebra
from .structures import (
    Endofunction,
    OrderedForest,
    PackedWord,
    Permutation,
    StructureError,
    _check_bound,
)

Letter = tuple[str, int, int]
Word = tuple[Letter, ...]


def _check_truncation(size: int):
    if size < 1:
        raise StructureError(f"truncation must be >= 1, got {size}")


class NCPolynomial:
    """Sparse integer polynomial in noncommuting bi-indexed letters."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, int] | None = None):
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return NCPolynomial(out)

    def __mul__(self, other: "NCPolynomial") -> "NCPolynomial":
        out: dict[Word, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return NCPolynomial(out)

    def __rmul__(self, scalar: int) -> "NCPolynomial":
        return NCPolynomial({w: scalar * c for w, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"NCPolynomial({len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# Word enumeration
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Realization families
# ---------------------------------------------------------------------------

class RealizationFamily(NamedTuple):
    """A polynomial realization: an algebra and the letter regime whose
    compatible words make S^x.  Keys, product, coproduct and parser are the
    algebra's own (``ops``); ``words(key, size, doubled)`` lists S^x."""

    version: str
    algebra: str
    words: Callable[[Any, int, bool], Iterator[Word]]

    @property
    def ops(self) -> AlgebraOps:
        return get_algebra(self.algebra)

    def realize(self, x, size: int, doubled: bool = False) -> NCPolynomial:
        """S^x of a key, or the linear extension over an element's terms."""
        if not isinstance(x, FreeElement):
            x = FreeElement.from_key(self.algebra, x)
        elif x.algebra != self.algebra:
            raise AlgebraTagError(f"{self.version} realizes {self.algebra}, not {x.algebra}")
        # One key's words are distinct, so dict.fromkeys builds its S^x; the
        # first key's dict then accumulates the others.
        parts = (dict.fromkeys(self.words(key, size, doubled), c) for key, c in x.terms.items())
        terms = next(parts, {})
        for part in parts:
            accumulate(terms, part)
        return NCPolynomial(terms)


FAMILIES: dict[str, RealizationFamily] = {
    fam.version: fam
    for fam in (
        RealizationFamily("v1", "ho", lambda f, size, doubled: iter_forest_words(f, "v1", size, doubled)),
        RealizationFamily("v2", "ho", lambda f, size, doubled: iter_forest_words(f, "v2", size, doubled)),
        RealizationFamily("func", "efsym", iter_endofunction_words),
        RealizationFamily("perm", "sgsym", iter_permutation_words),
    )
}


def family(version: str) -> RealizationFamily:
    try:
        return FAMILIES[version]
    except KeyError:
        raise StructureError(f"unknown realization version {version!r}") from None


def realizer_for(version: str) -> Callable:
    """Key realizer matching a letter regime."""
    return family(version).realize


def oplus_double(key, version: str, size: int) -> NCPolynomial:
    """Realize over the doubled alphabet A + B."""
    return family(version).realize(key, size, doubled=True)


def retag_side(word: Word, side: str) -> Word:
    return tuple((side, i, j) for (_, i, j) in word)


def split_by_side(word: Word) -> tuple[Word, Word]:
    """A-subword and B-subword, positions kept in order."""
    left = tuple(l for l in word if l[0] == "A")
    right = tuple(l for l in word if l[0] == "B")
    return left, right


def group_doubled(poly: NCPolynomial) -> dict[tuple[Word, Word], int]:
    """Collect a doubled polynomial by (A-subword, B-subword); this is the
    P(A)Q(B) ~ P (x) Q identification."""
    out: dict[tuple[Word, Word], int] = {}
    for word, coeff in poly.terms.items():
        pair = split_by_side(word)
        out[pair] = out.get(pair, 0) + coeff
    return {p: c for p, c in out.items() if c}


# ---------------------------------------------------------------------------
# Commutative image
# ---------------------------------------------------------------------------

def commutative_image(poly: NCPolynomial) -> dict[tuple[Letter, ...], int]:
    """Let the letters commute: words collapse to sorted letter multisets."""
    out: dict[tuple[Letter, ...], int] = {}
    for word, coeff in poly.terms.items():
        key = tuple(sorted(word))
        out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


# ---------------------------------------------------------------------------
# The projection onto WQSym
# ---------------------------------------------------------------------------

def pi_image(forest: OrderedForest) -> FreeElement:
    """pi(S^F) in the M basis: packed words whose value drops strictly along
    every edge (parent strictly smaller than child).

    The words are built one value at a time: value k goes to a nonempty set
    of the vertices still free whose parents already hold smaller values
    (the roots, at first).  Each level-set sequence is one packed word.
    """
    _check_bound(forest.n, None, "packed word enumeration")
    n = forest.n
    kids = forest.children()
    letters = [0] * n
    words: list[tuple[int, ...]] = []

    def assign(k: int, ready: list[int], left: int):
        if not left:
            words.append(tuple(letters))
            return
        for mask in range(1, 1 << len(ready)):
            chosen = [v for i, v in enumerate(ready) if mask >> i & 1]
            rest = [v for i, v in enumerate(ready) if not mask >> i & 1]
            for v in chosen:
                letters[v - 1] = k
                rest.extend(kids[v])
            assign(k + 1, rest, left - len(chosen))

    assign(1, list(forest.roots()), n)
    words.sort()
    return FreeElement("wqsym", {PackedWord(w): 1 for w in words})


def project_second_subscript(poly: NCPolynomial) -> dict[tuple[int, ...], int]:
    """The letter map a_ij -> a_j applied to a realized polynomial."""
    out: dict[tuple[int, ...], int] = {}
    for word, coeff in poly.terms.items():
        image = tuple(j for (_, _, j) in word)
        out[image] = out.get(image, 0) + coeff
    return {w: c for w, c in out.items() if c}


# ---------------------------------------------------------------------------
# Exact rank
# ---------------------------------------------------------------------------

def rank_of_rows(rows: Sequence[dict]) -> int:
    """Exact rank of sparse integer rows by fraction-free elimination.

    Columns owned by a single row are peeled first; they are pivots whose
    elimination step is a no-op, which covers the realization families where
    each basis element owns a reconstructing word.
    """
    live = [dict(r) for r in rows if r]
    rank = 0
    while live:
        counts: dict = {}
        owner: dict = {}
        for i, row in enumerate(live):
            for col in row:
                counts[col] = counts.get(col, 0) + 1
                owner[col] = i
        singles = {owner[col] for col, c in counts.items() if c == 1}
        if singles:
            rank += len(singles)
            live = [r for i, r in enumerate(live) if i not in singles]
            continue
        pivot = live.pop()
        col0 = next(iter(pivot))
        a = pivot[col0]
        rank += 1
        reduced = []
        for row in live:
            if col0 in row:
                b = row[col0]
                merged = {c: a * v for c, v in row.items()}
                for c, v in pivot.items():
                    merged[c] = merged.get(c, 0) - b * v
                merged = {c: v for c, v in merged.items() if v}
                if merged:
                    reduced.append(merged)
            else:
                reduced.append(row)
        live = reduced
    return rank


@dataclass
class RankReport:
    label: str
    keys: int
    rank: int

    @property
    def full(self) -> bool:
        return self.rank == self.keys

    def summary(self) -> str:
        verdict = "independent" if self.full else "DEPENDENT"
        return f"{self.label}: rank {self.rank} of {self.keys} ({verdict})"


def rank_check(keys: Sequence, realize: Callable, size: int, label: str = "") -> RankReport:
    """Exact rank of {realize(key, size)} as vectors over words."""
    rows = [realize(key, size).terms for key in keys]
    return RankReport(label or f"N={size}", len(list(keys)), rank_of_rows(rows))


# ---------------------------------------------------------------------------
# JSON dump (CLI `realize`)
# ---------------------------------------------------------------------------

def polynomial_to_json(poly: NCPolynomial, version: str, size: int) -> dict:
    words = sorted(poly.terms.items(), key=lambda kv: kv[0])
    return {
        "version": version.upper(),
        "N": size,
        "terms": [
            {"coeff": str(c), "word": [[s, i, j] for (s, i, j) in w]} for w, c in words
        ],
    }
