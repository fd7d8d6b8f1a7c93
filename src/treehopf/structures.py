"""Combinatorial index objects and their enumeration.

Every algebra in this package is indexed by one of the objects defined here:
labelled (ordered) rooted forests, unlabelled rooted forests in canonical
form, plane forests, endofunctions, permutations and packed words.  All
values are immutable after construction and every operation is a pure
function, so unrestricted concurrent use is safe.

Text formats (bit-exact):

* ``OrderedForest``  -- space-separated parent vector, ``"4 3 0 0 6 4"``;
  the empty forest is the empty string.
* ``Endofunction``   -- space-separated image vector, ``"2 3 2 3 4"``.
* ``PackedWord``     -- space-separated letters, ``"1 2 2"``.
* ``PlaneForest``    -- one balanced-parenthesis group per tree, trees
  space-separated, e.g. ``"(()())"`` for a root with two leaf children.
* ``RootedForest``   -- canonical form: each tree rendered as ``"("`` +
  lexicographically sorted child forms + ``")"``, trees sorted
  lexicographically and space-separated.

Every key is read as a map on {1..n}: an endofunction is its image vector,
a forest its f_F (each vertex to its parent, each root to itself; plane and
unlabelled forests through the depth-first labelling, :func:`forest_image`).
The five cut coproducts split a key along the preimage-closed vertex sets of
its map (:func:`cut_terms`), and the realization regimes link each position
to its image.  Forests with prescribed parent choices (all forests, the
down-sets and R products of :mod:`treehopf.bases`) come from one acyclic
parent-vector search (:func:`acyclic_parent_vectors`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

DEFAULT_ENUMERATION_BOUND = 8


class StructureError(ValueError):
    """Invalid combinatorial data (bad parent vector, inadmissible cut, ...)."""


class FormatError(StructureError):
    """Malformed text input; ``position`` is the index of the bad token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at token {position})")
        self.position = position


class EnumerationBoundError(RuntimeError):
    """Requested enumeration exceeds the configured size bound."""


def _check_bound(n: int, bound: int | None, what: str) -> None:
    limit = DEFAULT_ENUMERATION_BOUND if bound is None else bound
    if n > limit:
        raise EnumerationBoundError(f"{what} at size {n} exceeds bound {limit}")


def _split_tokens(text: str) -> list[str]:
    return text.split()


def _parse_int_vector(text: str, what: str) -> tuple[int, ...]:
    values = []
    for pos, token in enumerate(_split_tokens(text), start=1):
        try:
            values.append(int(token))
        except ValueError:
            raise FormatError(f"{what}: expected an integer, got {token!r}", pos) from None
    return tuple(values)


# ---------------------------------------------------------------------------
# Ordered forests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderedForest:
    """Rooted forest on the totally ordered vertex set {1..n}.

    Stored as a parent vector: ``parent[v-1]`` is the parent of vertex ``v``,
    with 0 marking a root.  Edges are oriented from the leaves down to the
    roots, so an edge is a pair (child, parent).
    """

    parent: tuple[int, ...]
    __slots__ = ("parent", "_hash")

    def __post_init__(self):
        n = len(self.parent)
        for v, p in enumerate(self.parent, start=1):
            if not 0 <= p <= n:
                raise StructureError(f"parent of vertex {v} out of range: {p}")
            if p == v:
                raise StructureError(f"vertex {v} is its own parent")
        for v in range(1, n + 1):
            seen = set()
            while v != 0:
                if v in seen:
                    raise StructureError(f"parent vector contains a cycle through {v}")
                seen.add(v)
                v = self.parent[v - 1]
        # Keys are hashed on every dict operation of the checks, so each key
        # hashes once, to the value the dataclass hash would give.  Slots
        # instead of an instance dict keep the cached hash from costing memory.
        object.__setattr__(self, "_hash", hash((self.parent,)))

    def __hash__(self):
        return self._hash

    @property
    def n(self) -> int:
        return len(self.parent)

    def roots(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if self.parent[v - 1] == 0)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All (child, parent) pairs."""
        return tuple((v, p) for v, p in enumerate(self.parent, start=1) if p != 0)

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for v, p in self.edges():
            kids[p].append(v)
        return kids

    def render(self) -> str:
        return " ".join(str(p) for p in self.parent)

    @classmethod
    def parse(cls, text: str) -> "OrderedForest":
        return cls(_parse_int_vector(text, "ordered forest"))

    def sort_key(self):
        return (self.n, self.parent)


def relabel_forest(forest: OrderedForest, new_label: dict[int, int]) -> OrderedForest:
    """Rename vertex v to new_label[v]; new_label must be a bijection onto {1..n}."""
    n = forest.n
    parent = [0] * n
    for v in range(1, n + 1):
        p = forest.parent[v - 1]
        parent[new_label[v] - 1] = 0 if p == 0 else new_label[p]
    return OrderedForest(tuple(parent))


def acyclic_parent_vectors(choices: Sequence[Sequence[int]]) -> list[OrderedForest]:
    """Every forest whose vertex v takes its parent from ``choices[v-1]``
    (ascending, 0 for a root), lexicographic in the parent vector.

    Single choices are fixed first; the other vertices are assigned in
    increasing order, and a choice is skipped when the parent chain from it
    already leads back to the vertex (a cycle closes at its last edge, and
    a vertex offered as its own parent closes one at once).  Making a vertex
    a root never closes a cycle, so no branch dead-ends.
    """
    parent: list[int | None] = [None] + [c[0] if len(c) == 1 else None for c in choices]
    free = [v for v in range(1, len(choices) + 1) if parent[v] is None]
    out: list[OrderedForest] = []

    def closes_cycle(v: int, w: int | None) -> bool:
        while w:  # stops at a root (0) or at a vertex not yet assigned
            if w == v:
                return True
            w = parent[w]
        return False

    def extend(i: int):
        if i == len(free):
            out.append(OrderedForest(tuple(parent[1:])))  # type: ignore[arg-type]
            return
        v = free[i]
        for w in choices[v - 1]:
            if not closes_cycle(v, w):
                parent[v] = w
                extend(i + 1)
        parent[v] = None

    extend(0)
    return out


def enumerate_ordered_forests(n: int, bound: int | None = None) -> list[OrderedForest]:
    """All ordered forests on {1..n}, lexicographic in the parent vector: the
    down-set of the edgeless forest, where every vertex may take any parent."""
    _check_bound(n, bound, "ordered forest enumeration")
    return acyclic_parent_vectors([range(n + 1)] * n)


# ---------------------------------------------------------------------------
# The cut rule: preimage-closed vertex sets of one map
# ---------------------------------------------------------------------------

# A map on {1..n} is its image tuple: the key itself for endofunctions, f_F
# for forests.  A vertex set is a bitmask, bit v-1 for vertex v.

def mask_vertices(mask: int) -> list[int]:
    return [v for v in range(1, mask.bit_length() + 1) if mask >> (v - 1) & 1]


def forest_image(forest: OrderedForest | PlaneForest | RootedForest) -> tuple[int, ...]:
    """f_F: each vertex goes to its parent, each root to itself.

    Plane and unlabelled forests are read through the depth-first labelling
    of a plane representative (:func:`plane_to_ordered`); the cut rule only
    needs some labelling, and the parts are read back into the key's kind.
    """
    if not isinstance(forest, OrderedForest):
        forest = plane_to_ordered(forest.as_plane())
    return tuple(p or v for v, p in enumerate(forest.parent, start=1))


def forest_from_image(image: Sequence[int]) -> OrderedForest:
    """The forest with f_F = ``image``: its fixed points are the roots."""
    return OrderedForest(tuple(0 if w == v else w for v, w in enumerate(image, start=1)))


def closed_subsets(image: Sequence[int], bound: int | None = None, what: str = "closed sets") -> list[int]:
    """Bitmasks of the vertex sets I with f^{-1}(I) inside I, ascending.

    Vertices are decided from n down to 1.  Taking v takes every vertex whose
    iterates reach v; v is skipped when one of those was left out.  Every
    branch ends in a closed set, so no 2^n filter runs."""
    n = len(image)
    _check_bound(n, bound, what)
    reach = [1 << v for v in range(n)]  # reach[v]: vertices whose iterates reach v
    for u in range(n):
        seen, w = 0, u
        while not seen >> w & 1:
            seen |= 1 << w
            reach[w] |= 1 << u
            w = image[w] - 1
    masks = [0]
    for v in range(n - 1, -1, -1):
        above = -(2 << v)  # the vertices decided before v
        grown = []
        for m in masks:
            grown.append(m)
            if not m >> v & 1 and not reach[v] & above & ~m:
                grown.append(m | reach[v])
        masks = grown
    return masks


def restrict_image(image: Sequence[int], part: Sequence[int]) -> tuple[int, ...]:
    """The map on the increasing vertex list ``part``, standardized: a value
    escaping ``part`` becomes a fixed point, then part[i] is renamed i+1."""
    index = {v: i for i, v in enumerate(part, start=1)}
    return tuple(index.get(image[v - 1], i) for v, i in index.items())


def cut_terms(image: Sequence[int], make, what: str) -> dict:
    """The cut coproduct: make(Roo) (x) make(Lea) summed over the closed sets
    Lea, where Roo is the complement and each part a standardized restriction."""
    full = (1 << len(image)) - 1
    part = lru_cache(maxsize=None)(make)  # parts repeat across the cuts of one key
    terms: dict = {}
    for lea in closed_subsets(image, None, what):
        pair = (part(restrict_image(image, mask_vertices(full ^ lea))),
                part(restrict_image(image, mask_vertices(lea))))
        terms[pair] = terms.get(pair, 0) + 1
    return terms


def enumerate_admissible_cuts(forest, bound: int | None = None) -> list[frozenset[int]]:
    """All admissible cuts of an ordered, plane or unlabelled forest, in
    increasing bitmask order.

    A cut is the set of lowest vertices of its Lea part, a closed set of f_F
    (see :func:`forest_image` for the labelling of unlabelled forests).
    """
    image = forest_image(forest)
    cuts = [
        sum(1 << (v - 1) for v in mask_vertices(lea) if image[v - 1] == v or not lea >> (image[v - 1] - 1) & 1)
        for lea in closed_subsets(image, bound, "admissible cut enumeration")
    ]
    return [frozenset(mask_vertices(cut)) for cut in sorted(cuts)]


# ---------------------------------------------------------------------------
# Plane forests
# ---------------------------------------------------------------------------

# A plane tree is the tuple of its subtrees; a plane forest the tuple of its
# trees.  Child order is significant.

@dataclass(frozen=True)
class PlaneForest:
    trees: tuple
    __slots__ = ("trees", "_hash")

    def __post_init__(self):
        def check(tree):
            if not isinstance(tree, tuple):
                raise StructureError("plane trees must be nested tuples")
            for sub in tree:
                check(sub)

        if not isinstance(self.trees, tuple):
            raise StructureError("a plane forest is a tuple of trees")
        for tree in self.trees:
            check(tree)
        object.__setattr__(self, "_hash", hash((self.trees,)))

    def __hash__(self):
        return self._hash

    @property
    def n(self) -> int:
        def size(tree):
            return 1 + sum(size(sub) for sub in tree)

        return sum(size(t) for t in self.trees)

    def render(self) -> str:
        def rec(tree):
            return "(" + "".join(rec(sub) for sub in tree) + ")"

        return " ".join(rec(t) for t in self.trees)

    @classmethod
    def parse(cls, text: str) -> "PlaneForest":
        trees = []
        for pos, token in enumerate(_split_tokens(text), start=1):
            stack: list[list] = [[]]
            for ch in token:
                if ch == "(":
                    stack.append([])
                elif ch == ")":
                    if len(stack) == 1:
                        raise FormatError("unbalanced ')'", pos)
                    done = stack.pop()
                    stack[-1].append(tuple(done))
                else:
                    raise FormatError(f"unexpected character {ch!r}", pos)
            if len(stack) != 1:
                raise FormatError("unbalanced '('", pos)
            if len(stack[0]) != 1:
                raise FormatError("each token must be a single tree", pos)
            trees.append(stack[0][0])
        return cls(tuple(trees))

    def as_plane(self) -> "PlaneForest":
        return self

    def sort_key(self):
        return (self.n, self.render())


def enumerate_plane_forests(n: int, bound: int | None = None) -> list[PlaneForest]:
    """All plane forests with n vertices (Catalan many), deterministic order."""
    _check_bound(n, bound, "plane forest enumeration")
    return [PlaneForest(trees) for trees in _plane_forest_shapes(n)]


@lru_cache(maxsize=None)
def _plane_forest_shapes(n: int) -> tuple[tuple, ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        for tree in _plane_tree_shapes(first):
            for rest in _plane_forest_shapes(n - first):
                out.append((tree,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _plane_tree_shapes(n: int) -> tuple[tuple, ...]:
    return _plane_forest_shapes(n - 1)


def plane_to_ordered(plane: PlaneForest) -> OrderedForest:
    """Canonical "up-left" labelling: left depth-first traversal, numbering
    each vertex on first encounter."""
    parent: list[int] = []

    def visit(tree, parent_label: int):
        parent.append(parent_label)
        label = len(parent)
        for sub in tree:
            visit(sub, label)

    for tree in plane.trees:
        visit(tree, 0)
    return OrderedForest(tuple(parent))


def ordered_to_plane(forest: OrderedForest) -> PlaneForest:
    """Inverse of :func:`plane_to_ordered` on its image.

    Children are read in increasing label order and trees in increasing root
    order; raises if the input is not the canonical labelling of the result.
    """
    kids = forest.children()

    def build(v: int):
        return tuple(build(c) for c in sorted(kids[v]))

    plane = PlaneForest(tuple(build(r) for r in forest.roots()))
    if plane_to_ordered(plane) != forest:
        raise StructureError(f"{forest.render()!r} is not a canonical plane labelling")
    return plane


# ---------------------------------------------------------------------------
# Unlabelled rooted forests (Connes-Kreimer keys)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootedForest:
    """Unlabelled rooted forest, stored by its canonical string form."""

    canonical: str
    __slots__ = ("canonical", "_hash")

    def __post_init__(self):
        if canonical_form(self.canonical) != self.canonical:
            raise StructureError(f"{self.canonical!r} is not in canonical form")
        object.__setattr__(self, "_hash", hash((self.canonical,)))

    def __hash__(self):
        return self._hash

    @property
    def n(self) -> int:
        return sum(1 for ch in self.canonical if ch == "(")

    def render(self) -> str:
        return self.canonical

    @classmethod
    def parse(cls, text: str) -> "RootedForest":
        return cls(canonical_form(text))

    def as_plane(self) -> PlaneForest:
        """Some plane representative (the canonical string itself is one)."""
        return PlaneForest.parse(self.canonical)

    def sort_key(self):
        return (self.n, self.canonical)


def canonical_form(text: str) -> str:
    """Canonical form of a paren-encoded forest: children sorted, trees sorted."""
    plane = PlaneForest.parse(text)

    def rec(tree) -> str:
        return "(" + "".join(sorted(rec(sub) for sub in tree)) + ")"

    return " ".join(sorted(rec(t) for t in plane.trees))


def canonicalize(forest: OrderedForest) -> RootedForest:
    """Forget the labels of an ordered forest."""
    kids = forest.children()

    def rec(v: int) -> str:
        return "(" + "".join(sorted(rec(c) for c in kids[v])) + ")"

    return RootedForest(" ".join(sorted(rec(r) for r in forest.roots())))


def enumerate_rooted_forests(n: int, bound: int | None = None) -> list[RootedForest]:
    """All canonical forms on n vertices, via plane representatives."""
    _check_bound(n, bound, "rooted forest enumeration")
    seen = sorted({canonicalize(plane_to_ordered(p)).canonical for p in enumerate_plane_forests(n, bound)})
    return [RootedForest(s) for s in seen]


# ---------------------------------------------------------------------------
# Endofunctions, permutations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Endofunction:
    """A total map [n] -> [n], stored as the image vector (f(1),...,f(n))."""

    image: tuple[int, ...]
    __slots__ = ("image", "_hash")

    def __post_init__(self):
        n = len(self.image)
        for v, fv in enumerate(self.image, start=1):
            if not 1 <= fv <= n:
                raise StructureError(f"f({v}) = {fv} out of range 1..{n}")
        object.__setattr__(self, "_hash", hash((self.image,)))

    def __hash__(self):
        return self._hash

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, v: int) -> int:
        return self.image[v - 1]

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if self.image[v - 1] == v)

    def num_fixed(self) -> int:
        return len(self.fixed_points())

    def compose(self, other: "Endofunction") -> "Endofunction":
        """self after other."""
        if self.n != other.n:
            raise StructureError("composition needs equal domains")
        return Endofunction(tuple(self.image[other.image[v - 1] - 1] for v in range(1, self.n + 1)))

    def power(self, k: int) -> "Endofunction":
        if k < 0:
            raise StructureError("negative iteration")
        result = Endofunction(tuple(range(1, self.n + 1)))
        for _ in range(k):
            result = self.compose(result)
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        """The cycles of the functional graph, each starting at its least element."""
        on_cycle = cycle_vertices(self)
        seen: set[int] = set()
        out = []
        for v in range(1, self.n + 1):
            if v in on_cycle and v not in seen:
                cyc = [v]
                w = self.image[v - 1]
                while w != v:
                    cyc.append(w)
                    w = self.image[w - 1]
                seen.update(cyc)
                out.append(tuple(cyc))
        return out

    def render(self) -> str:
        return " ".join(str(v) for v in self.image)

    @classmethod
    def parse(cls, text: str) -> "Endofunction":
        return cls(_parse_int_vector(text, "endofunction"))

    def sort_key(self):
        return (self.n, self.image)


@dataclass(frozen=True)
class Permutation(Endofunction):
    """A bijective endofunction."""

    __slots__ = ()

    def __post_init__(self):
        super().__post_init__()
        if sorted(self.image) != list(range(1, self.n + 1)):
            raise StructureError(f"{self.image} is not a permutation")

    # the dataclass decorator would otherwise regenerate the hash
    __hash__ = Endofunction.__hash__

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for v, fv in enumerate(self.image, start=1):
            inv[fv - 1] = v
        return Permutation(tuple(inv))

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        return cls(_parse_int_vector(text, "permutation"))


def cycle_vertices(f: Endofunction) -> set[int]:
    """Vertices lying on a cycle of the functional graph (fixed points
    included): the image of f^n, since n steps from any vertex end on a
    cycle and f permutes the cycle vertices."""
    out = set(range(1, f.n + 1))
    for _ in range(f.n):
        out = {f.image[v - 1] for v in out}
    return out


def distance_to_cycle(f: Endofunction) -> dict[int, int]:
    on_cycle = cycle_vertices(f)
    dist = {}
    for v in range(1, f.n + 1):
        d, w = 0, v
        while w not in on_cycle:
            d += 1
            w = f(w)
        dist[v] = d
    return dist


def enumerate_endofunctions(n: int, bound: int | None = None) -> list[Endofunction]:
    """All n^n endofunctions, lexicographic in the image vector."""
    _check_bound(n, bound, "endofunction enumeration")
    return [Endofunction(img) for img in itertools.product(range(1, n + 1), repeat=n)]


def enumerate_permutations(n: int, bound: int | None = None) -> list[Permutation]:
    _check_bound(n, bound, "permutation enumeration")
    return [Permutation(img) for img in itertools.permutations(range(1, n + 1))]


# ---------------------------------------------------------------------------
# Packed words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PackedWord:
    """A word over {1..m} using every value in {1..m} at least once."""

    letters: tuple[int, ...]
    __slots__ = ("letters", "_hash")

    def __post_init__(self):
        if self.letters:
            m = max(self.letters)
            if min(self.letters) < 1 or set(self.letters) != set(range(1, m + 1)):
                raise StructureError(f"{self.letters} is not packed")
        object.__setattr__(self, "_hash", hash((self.letters,)))

    def __hash__(self):
        return self._hash

    @property
    def n(self) -> int:
        return len(self.letters)

    def max_letter(self) -> int:
        return max(self.letters) if self.letters else 0

    def render(self) -> str:
        return " ".join(str(a) for a in self.letters)

    @classmethod
    def parse(cls, text: str) -> "PackedWord":
        return cls(_parse_int_vector(text, "packed word"))

    def sort_key(self):
        return (self.n, self.letters)


def pack(word: Sequence[int]) -> PackedWord:
    """Relabel the distinct letters of ``word`` order-preservingly onto {1..r}."""
    distinct = sorted(set(word))
    rank = {b: i + 1 for i, b in enumerate(distinct)}
    return PackedWord(tuple(rank[b] for b in word))


def enumerate_packed_words(n: int, bound: int | None = None) -> list[PackedWord]:
    """All packed words of length n (ordered Bell many), lexicographic.

    Depth-first over positions, trying letters in increasing order.  A
    branch is cut as soon as the values still missing below its maximum
    outnumber the positions left, so every branch ends in a packed word.
    """
    _check_bound(n, bound, "packed word enumeration")
    out: list[PackedWord] = []
    letters = [0] * n
    used = [0] * (n + 2)  # used[a]: occurrences of letter a so far

    def extend(pos: int, top: int, missing: int):
        if pos == n:
            out.append(PackedWord(tuple(letters)))
            return
        left = n - pos - 1  # positions after this one
        for a in range(1, n + 1):
            if a > top:
                new_top, new_missing = a, missing + a - top - 1
            else:
                new_top, new_missing = top, missing - (used[a] == 0)
            if new_missing > left:
                if a > top:
                    break  # larger letters only open more gaps
                continue
            letters[pos] = a
            used[a] += 1
            extend(pos + 1, new_top, new_missing)
            used[a] -= 1

    extend(0, 0, 0)
    return out
