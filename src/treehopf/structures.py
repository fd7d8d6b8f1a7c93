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
  lexicographically and space-separated.  It is the plane forest text of
  the canonical vector, and ``parse`` reads any plane forest text.

Every key is a tuple of its vector, readable also as ``parent``, ``image`` or
``letters``, so dicts of keys hash and compare them as tuples.  Two keys of
different types with equal vectors therefore compare equal (a ``ck`` key, an
``nck`` key and an ordered forest of one vector among them), and each equals
the plain tuple; no dict of the library holds keys of two types.
``cls(vector)`` and ``cls.parse`` check their input, entries included (ints
only); every key the library builds valid by construction (enumerations,
kernels, maps, R-basis terms) comes from the unchecked ``cls._of(vector)``.
Keys of one degree sort by ``sort_key()``: by the vector, and plane and
unlabelled forests by the negated vector, which is the order of their text.

Every forest key is a parent vector ``parent``: an ordered forest is its
vector, a plane forest the vector of its depth-first labelling, and an
unlabelled forest the depth-first labelling of its canonical form
(:func:`canonical_parents`).
Every key is read as a map on {1..n}: an endofunction is its image vector,
a forest its f_F (each vertex to its parent, each root to itself,
:func:`forest_image`).
A map's depths and cycles come from one walk (:func:`functional_graph`).
The five cut coproducts split a key along the preimage-closed vertex sets of
its map (:func:`cut_terms`, which reads the vertices and ranks of each part
from one table per size and vertex set), and the realization regimes link
each position to its image.  Forests with prescribed parent choices (all forests, the
down-sets and R products of :mod:`treehopf.bases`) come from one acyclic
parent-vector search (:func:`acyclic_parent_vectors`).
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from typing import Callable, Sequence

DEFAULT_ENUMERATION_BOUND = 8


class StructureError(ValueError):
    """Invalid combinatorial data (bad parent vector, inadmissible cut, ...)."""


class FormatError(StructureError):
    """Malformed text input; ``position`` is the index of the bad token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at token {position})")
        self.position = position


class EnumerationBoundError(RuntimeError):
    """Requested enumeration exceeds its size bound."""


def _check_bound(n: int, what: str) -> None:
    if n > DEFAULT_ENUMERATION_BOUND:
        raise EnumerationBoundError(f"{what} at size {n} exceeds bound {DEFAULT_ENUMERATION_BOUND}")


_TOKEN = re.compile(r"[^ \t\n\r\f\v]+")
_NATURAL = re.compile(r"[0-9]+")


def _split_tokens(text: str) -> list[str]:
    """Tokens separated by ASCII whitespace; other spaces, such as U+3000,
    stay inside a token and fail its format check."""
    return _TOKEN.findall(text)


def _parse_int_vector(text: str, what: str) -> tuple[int, ...]:
    """Space-separated tokens of ASCII digits; signs, underscores and the
    digits of other scripts, all of which ``int`` accepts, are rejected."""
    values = []
    for pos, token in enumerate(_split_tokens(text), start=1):
        if not _NATURAL.fullmatch(token):
            raise FormatError(f"{what}: expected a natural number, got {token!r}", pos)
        values.append(int(token))
    return tuple(values)


# ---------------------------------------------------------------------------
# Keys that are tuples of their vector
# ---------------------------------------------------------------------------

class _VectorKey(tuple):
    """A key that is the tuple of its vector (module docstring).

    ``cls(vector)`` checks the vector and raises ``StructureError``;
    ``cls._of(vector)`` trusts it, for keys the library builds valid by
    construction.  Subclasses name the vector (``_field``) and their text
    format (``_what``), and check a vector in ``_check``.
    """

    __slots__ = ()
    _field = _what = ""
    _of = classmethod(tuple.__new__)

    def __new__(cls, vector):
        key = tuple.__new__(cls, vector)
        if any(type(x) is not int for x in key):  # a float or bool renders as text parse rejects
            raise StructureError(f"{cls.__name__} entries must be integers, got {tuple(key)!r}")
        key._check()
        return key

    def __reduce__(self):  # every pickle protocol rebuilds through the check
        return type(self), (tuple(self),)

    def __repr__(self):
        return f"{type(self).__name__}({self._field}={tuple(self)!r})"

    @property
    def n(self) -> int:
        return len(self)

    def render(self) -> str:
        return " ".join(map(str, self))

    @classmethod
    def parse(cls, text: str):
        return cls(_parse_int_vector(text, cls._what))

    def sort_key(self):
        return (len(self), self)


# ``parent``, ``image`` and ``letters`` read the vector, which is the key itself
_VECTOR = property(lambda key: key)


# ---------------------------------------------------------------------------
# Ordered forests
# ---------------------------------------------------------------------------

class OrderedForest(_VectorKey):
    """Rooted forest on the totally ordered vertex set {1..n}.

    Stored as a parent vector: ``parent[v-1]`` is the parent of vertex ``v``,
    with 0 marking a root.  Edges are oriented from the leaves down to the
    roots, so an edge is a pair (child, parent).
    """

    __slots__ = ()
    _field, _what = "parent", "ordered forest"
    parent = _VECTOR

    def _check(self):
        n = len(self)
        for v, p in enumerate(self, start=1):
            if not 0 <= p <= n:
                raise StructureError(f"parent of vertex {v} out of range: {p}")
            if p == v:
                raise StructureError(f"vertex {v} is its own parent")
        # f_F fixes exactly the roots, so its other cycles are parent cycles,
        # each named by its least vertex, the least such cycle first
        for cycle in functional_graph(forest_image(self))[1]:
            if len(cycle) > 1:
                raise StructureError(f"parent vector contains a cycle through {cycle[0]}")

    def roots(self) -> tuple[int, ...]:
        return tuple(v for v, p in enumerate(self, start=1) if p == 0)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All (child, parent) pairs."""
        return tuple((v, p) for v, p in enumerate(self, start=1) if p != 0)

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for v, p in self.edges():
            kids[p].append(v)
        return kids


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
            out.append(OrderedForest._of(parent[1:]))
            return
        v = free[i]
        for w in choices[v - 1]:
            if not closes_cycle(v, w):
                parent[v] = w
                extend(i + 1)
        parent[v] = None

    extend(0)
    return out


def enumerate_ordered_forests(n: int) -> list[OrderedForest]:
    """All ordered forests on {1..n}, lexicographic in the parent vector: the
    down-set of the edgeless forest, where every vertex may take any parent."""
    _check_bound(n, "ordered forest enumeration")
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

    Every forest key has a ``parent`` vector; for plane and unlabelled
    forests it is a depth-first labelling.  The cut rule only needs some
    labelling, and the parts are read back into the key's kind.
    """
    return tuple([p or v for v, p in enumerate(forest.parent, start=1)])


def forest_from_image(image: Sequence[int], make: Callable = OrderedForest):
    """``make`` of the parent vector of the map ``image``: the image with 0
    at the fixed points, the roots.  For an ordered or plane forest
    constructor (the latter for a depth-first labelling) it is the forest
    with f_F = ``image``."""
    return make([0 if w == v else w for v, w in enumerate(image, start=1)])


def closed_subsets(image: Sequence[int]) -> list[int]:
    """Bitmasks of the vertex sets I with f^{-1}(I) inside I, ascending.

    Vertices are decided from n down to 1.  Taking v takes every vertex whose
    iterates reach v; v is skipped when one of those was left out.  Every
    branch ends in a closed set, so no 2^n filter runs; n is bounded here."""
    n = len(image)
    _check_bound(n, "closed set enumeration")
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


class Table(dict):
    """``fn`` as a dict: a missing key is filled with ``fn(key)`` on first
    lookup, and a hit runs no Python frame."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _part_entry(size_and_part: tuple[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The 0-based indices of the vertices of ``part`` and their ranks: rank[w]
    is the number of vertices of ``part`` up to w if w is one, else 0."""
    n, part = size_and_part
    indices = tuple([i for i in range(n) if part >> i & 1])
    rank = [0] * (n + 1)
    for k, i in enumerate(indices, start=1):
        rank[i + 1] = k
    return indices, tuple(rank)


# One entry per (n, part), at most 2^(bound+1): every cut coproduct lists its
# closed sets, under the bound, before it restricts.
_PART_TABLE = Table(_part_entry)


def restrict_image(image: Sequence[int], part: int) -> tuple[int, ...]:
    """The map on the vertex set ``part`` (a bitmask), standardized: a value
    escaping ``part`` becomes a fixed point, then the vertices of ``part``
    are renamed 1, 2, ... in increasing order, so vertex t becomes the
    number of vertices of ``part`` up to t."""
    indices, rank = _PART_TABLE[len(image), part]
    return tuple([rank[image[i]] or rank[i + 1] for i in indices])


def cut_terms(image: Sequence[int], make) -> dict:
    """The cut coproduct: make(Roo) (x) make(Lea) summed over the closed sets
    Lea, where Roo is the complement and each part a standardized restriction."""
    full = (1 << len(image)) - 1
    part = Table(make)  # parts repeat across the cuts of one key
    terms: dict = {}
    for lea in closed_subsets(image):
        pair = (part[restrict_image(image, full ^ lea)], part[restrict_image(image, lea)])
        terms[pair] = terms.get(pair, 0) + 1
    return terms


def enumerate_admissible_cuts(forest) -> list[frozenset[int]]:
    """All admissible cuts of an ordered, plane or unlabelled forest, in
    increasing bitmask order.

    A cut is the set of lowest vertices of its Lea part, a closed set of f_F
    (see :func:`forest_image` for the labelling of unlabelled forests).
    """
    image = forest_image(forest)
    cuts = [
        sum(1 << (v - 1) for v in mask_vertices(lea) if image[v - 1] == v or not lea >> (image[v - 1] - 1) & 1)
        for lea in closed_subsets(image)
    ]
    return [frozenset(mask_vertices(cut)) for cut in sorted(cuts)]


# ---------------------------------------------------------------------------
# Plane forests
# ---------------------------------------------------------------------------

# A plane forest is stored as the parent vector of its depth-first ("up-left")
# labelling: trees left to right, each vertex numbered before its subtrees,
# children left to right.  The vectors that arise are exactly those in which
# each parent is 0 or lies on the path from the previous vertex to its root.

class PlaneForest(_VectorKey):
    __slots__ = ()
    _field = "parent"
    parent = _VECTOR

    def _check(self):
        path: list[int] = []  # the previous vertex and its ancestors, root first
        for v, p in enumerate(self, start=1):
            while path and path[-1] != p:
                path.pop()
            if p != 0 and not path:
                raise StructureError(f"parent {p} of vertex {v} is not on the path from vertex {v - 1} to its root")
            path.append(v)

    def render(self) -> str:
        """One bracket group per tree, each vertex's children inside it."""
        out: list[str] = []
        path: list[int] = []  # the open vertices, root first
        for v, p in enumerate(self, start=1):
            while path and path[-1] != p:
                path.pop()
                out.append(")")
            out.append("(" if path or not out else " (")
            path.append(v)
        out.append(")" * len(path))
        return "".join(out)

    @classmethod
    def parse(cls, text: str) -> "PlaneForest":
        parent: list[int] = []
        for pos, token in enumerate(_split_tokens(text), start=1):
            path: list[int] = []
            trees = 0
            for ch in token:
                if ch == "(":
                    trees += not path
                    parent.append(path[-1] if path else 0)
                    path.append(len(parent))
                elif ch == ")":
                    if not path:
                        raise FormatError("unbalanced ')'", pos)
                    path.pop()
                else:
                    raise FormatError(f"unexpected character {ch!r}", pos)
            if path:
                raise FormatError("unbalanced '('", pos)
            if trees != 1:
                raise FormatError("each token must be a single tree", pos)
        return cls._of(parent)  # the depth-first labelling of balanced text

    def sort_key(self):
        """Within one degree, the order of the rendered strings: at the first
        vertex where two depth-first vectors differ, the larger parent is the
        one that opens a bracket where the other closes one."""
        return (len(self), tuple([-p for p in self]))


def shifted_parents(parent: Sequence[int], by: int, root: int = 0) -> tuple[int, ...]:
    """``parent`` with every label raised by ``by`` and each root given the
    parent ``root``: the right factor of a shifted union or a grafting."""
    return tuple(p + by if p else root for p in parent)


def enumerate_plane_forests(n: int) -> list[PlaneForest]:
    """All plane forests with n vertices (Catalan many): by the size of the
    first tree, then its subforest, then the rest of the forest."""
    _check_bound(n, "plane forest enumeration")
    return list(map(PlaneForest._of, _plane_vectors(n)))


@lru_cache(maxsize=None)
def _plane_vectors(n: int) -> tuple[tuple[int, ...], ...]:
    out = [()] if n == 0 else []
    for first in range(1, n + 1):
        for below in _plane_vectors(first - 1):
            tree = (0,) + shifted_parents(below, 1, 1)
            out.extend(tree + shifted_parents(rest, first) for rest in _plane_vectors(n - first))
    return tuple(out)


def plane_to_ordered(plane: PlaneForest) -> OrderedForest:
    """The canonical "up-left" labelling, which is the stored parent vector."""
    return OrderedForest._of(plane.parent)


def ordered_to_plane(forest: OrderedForest) -> PlaneForest:
    """Inverse of :func:`plane_to_ordered` on its image; raises
    ``StructureError`` if the labels are not depth-first."""
    return PlaneForest(forest.parent)


# ---------------------------------------------------------------------------
# Unlabelled rooted forests (Connes-Kreimer keys)
# ---------------------------------------------------------------------------

class RootedForest(_VectorKey):
    """Unlabelled rooted forest, stored as its canonical parent vector
    (:func:`canonical_parents`): the depth-first labelling of the plane
    forest whose trees, and the children of each vertex, come in the order
    of their bracket strings.  It renders as its canonical string."""

    __slots__ = ()
    _field = "parent"
    parent = _VECTOR
    render = PlaneForest.render
    sort_key = PlaneForest.sort_key

    def _check(self):
        PlaneForest._check(self)
        if canonical_parents(self) != self:
            raise StructureError(f"{self.render()!r} is not in canonical form")

    @classmethod
    def parse(cls, text: str) -> "RootedForest":
        return cls._of(canonical_parents(PlaneForest.parse(text)))


_LEAF = (0, 1)


def canonical_parents(parent: Sequence[int]) -> tuple[int, ...]:
    """The canonical parent vector of the forest with this parent vector.

    Each subtree is encoded bottom-up by its bracket word, a tuple with 0
    for ``(`` and 1 for ``)``: such tuples order like the bracket strings,
    and no tree's word is a prefix of another's.  Sorting the children's
    words inside each tree and the trees' words gives the word of the
    canonical string, whose depth-first labelling is the result.
    """
    kids: list[list[int]] = [[] for _ in range(len(parent) + 1)]
    for v, p in enumerate(parent, start=1):
        kids[p].append(v)
    order = kids[0][:]  # breadth-first from the roots, so children come after parents
    for v in order:
        order += kids[v]
    word = [_LEAF] * len(kids)
    for v in reversed(order):  # each vertex after its children, no recursion
        if kids[v]:
            word[v] = (0, *itertools.chain.from_iterable(sorted([word[c] for c in kids[v]])), 1)
    out: list[int] = []
    path = [0]  # the open vertices below a virtual root 0
    for bit in itertools.chain.from_iterable(sorted([word[r] for r in kids[0]])):
        if bit:
            path.pop()
        else:
            out.append(path[-1])
            path.append(len(out))
    return tuple(out)


def canonicalize(forest: OrderedForest | PlaneForest | RootedForest) -> RootedForest:
    """Forget the labels of a forest key."""
    return RootedForest._of(canonical_parents(forest.parent))


def enumerate_rooted_forests(n: int) -> list[RootedForest]:
    """All unlabelled forests on n vertices, in ``sort_key`` order, via
    plane representatives."""
    _check_bound(n, "rooted forest enumeration")
    return sorted({RootedForest._of(canonical_parents(p)) for p in _plane_vectors(n)}, key=RootedForest.sort_key)


# ---------------------------------------------------------------------------
# Endofunctions, permutations
# ---------------------------------------------------------------------------

class Endofunction(_VectorKey):
    """A total map [n] -> [n], stored as the image vector (f(1),...,f(n))."""

    __slots__ = ()
    _field, _what = "image", "endofunction"
    image = _VECTOR

    def _check(self):
        n = len(self)
        for v, fv in enumerate(self, start=1):
            if not 1 <= fv <= n:
                raise StructureError(f"f({v}) = {fv} out of range 1..{n}")

    def __call__(self, v: int) -> int:
        return self.image[v - 1]

    def num_fixed(self) -> int:
        return sum(w == v for v, w in enumerate(self, start=1))

    def compose(self, other: "Endofunction") -> "Endofunction":
        """self after other."""
        if self.n != other.n:
            raise StructureError("composition needs equal domains")
        return Endofunction._of([self.image[w - 1] for w in other.image])

    def power(self, k: int) -> "Endofunction":
        if k < 0:
            raise StructureError("negative iteration")
        result = Endofunction._of(range(1, self.n + 1))
        for _ in range(k):
            result = self.compose(result)
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        """The cycles of the functional graph, as :func:`functional_graph` lists them."""
        return functional_graph(self)[1]


class Permutation(Endofunction):
    """A bijective endofunction."""

    __slots__ = ()
    _what = "permutation"

    def _check(self):
        super()._check()
        if sorted(self) != list(range(1, self.n + 1)):
            raise StructureError(f"{tuple(self)} is not a permutation")

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for v, fv in enumerate(self.image, start=1):
            inv[fv - 1] = v
        return Permutation._of(inv)


def functional_graph(image: Sequence[int]) -> tuple[list[int], list[tuple[int, ...]]]:
    """The depths and cycles of the map ``image`` on {1..n}, in one walk:
    ``depth[v-1]`` is the least k with f^k(v) on a cycle (0 on fixed points,
    and on f_F the distance to the root), and each cycle starts at its least
    vertex, the cycles in the order of their least vertices.  A walk stops
    at the first vertex seen before, closing a cycle if it is on its path."""
    depth: list = [None] * len(image)  # -1 while on the current path
    cycles = []
    for start in range(len(image)):
        path, w = [], start
        while depth[w] is None:
            depth[w] = -1
            path.append(w)
            w = image[w] - 1
        if depth[w] < 0:  # the walk closed a cycle at w
            cycle = path[path.index(w):]
            del path[-len(cycle):]
            for u in cycle:
                depth[u] = 0
            least = cycle.index(min(cycle))
            cycles.append(tuple([u + 1 for u in cycle[least:] + cycle[:least]]))
        d = depth[w]
        for u in reversed(path):
            d += 1
            depth[u] = d
    cycles.sort()
    return depth, cycles


def enumerate_endofunctions(n: int) -> list[Endofunction]:
    """All n^n endofunctions, lexicographic in the image vector."""
    _check_bound(n, "endofunction enumeration")
    return list(map(Endofunction._of, itertools.product(range(1, n + 1), repeat=n)))


def enumerate_permutations(n: int) -> list[Permutation]:
    _check_bound(n, "permutation enumeration")
    return list(map(Permutation._of, itertools.permutations(range(1, n + 1))))


# ---------------------------------------------------------------------------
# Packed words
# ---------------------------------------------------------------------------

class PackedWord(_VectorKey):
    """A word over {1..m} using every value in {1..m} at least once."""

    __slots__ = ()
    _field, _what = "letters", "packed word"
    letters = _VECTOR

    def _check(self):
        if self and (min(self) < 1 or set(self) != set(range(1, max(self) + 1))):
            raise StructureError(f"{tuple(self)} is not packed")

    def max_letter(self) -> int:
        return max(self) if self else 0


def pack(word: Sequence[int]) -> PackedWord:
    """Relabel the distinct letters of ``word`` order-preservingly onto {1..r}."""
    distinct = sorted(set(word))
    rank = {b: i + 1 for i, b in enumerate(distinct)}
    return PackedWord._of([rank[b] for b in word])


def enumerate_packed_words(n: int) -> list[PackedWord]:
    """All packed words of length n (ordered Bell many), lexicographic.

    Depth-first over positions, trying letters in increasing order.  A
    branch is cut as soon as the values still missing below its maximum
    outnumber the positions left, so every branch ends in a packed word.
    """
    _check_bound(n, "packed word enumeration")
    out: list[PackedWord] = []
    letters = [0] * n
    used = [0] * (n + 2)  # used[a]: occurrences of letter a so far

    def extend(pos: int, top: int, missing: int):
        if pos == n:
            out.append(PackedWord._of(letters))
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
