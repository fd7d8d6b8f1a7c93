"""Maps between the algebras.

Covers the root-grafting operator B+ (its shadow b on packed words is
:func:`treehopf.words.b_endomorphism`), the quotient map pi onto WQSym
with its preimage construction F_w, the embedding of ordered forests into
endofunctions, the projection onto the commutative forest algebra, and the
noncommutative Faa di Bruno element Z = U^2.

``MAPS`` names the maps between algebras: ``pi`` (ho -> wqsym), ``f_F``
(ho -> efsym), ``ck`` (ho -> ck) and ``plane`` (nck -> ho), each a
:class:`Morphism` whose ``apply`` is the linear extension of its key map.
An element of any other algebra raises ``StructureError``; the output is
in the target's default basis.
"""

from __future__ import annotations

from math import comb
from typing import Callable, NamedTuple

from .algebra import FreeElement, TensorElement, coproduct_element, unit_element
from .realization import pi_image
from .structures import (
    Endofunction,
    OrderedForest,
    PackedWord,
    PlaneForest,
    StructureError,
    canonicalize,
    enumerate_plane_forests,
    forest_from_image,
    forest_image,
    functional_graph,
    plane_to_ordered,
    shifted_parents,
)


def b_plus(x):
    """Connect the trees of an ordered or plane forest to a new common root.

    The new root is vertex 1 and the old labels shift up by one; on the
    depth-first labels of a plane forest this keeps the child order.
    """
    if not isinstance(x, (OrderedForest, PlaneForest)):
        raise StructureError(f"b_plus applies to forests, not {type(x).__name__}")
    return type(x)._of((0,) + shifted_parents(x.parent, 1, 1))


def minimal_admissible_word(forest: OrderedForest) -> PackedWord:
    """Lexicographically smallest packed word appearing in pi(F).

    Every word of pi(F) rises along each edge, so it is at least depth + 1
    at every vertex; the word of depths + 1 is packed and rises along each
    edge, so it is the smallest.
    """
    return PackedWord._of([d + 1 for d in functional_graph(forest_image(forest))[0]])


def f_w_preimage(w: PackedWord) -> OrderedForest:
    """An ordered forest whose pi image has w as its smallest packed word.

    Position i hangs from the last position holding w_i - 1, or is a root
    when w_i = 1.  Parents hold smaller letters, so the vector is acyclic,
    and each vertex has depth w_i - 1.
    """
    last = {a: i for i, a in enumerate(w.letters, start=1)}  # letter -> its last position
    return OrderedForest._of(tuple(last.get(a - 1, 0) for a in w.letters))


# ---------------------------------------------------------------------------
# Ordered forests inside endofunctions
# ---------------------------------------------------------------------------

def forest_to_endo(forest: OrderedForest) -> Endofunction:
    """f_F: each vertex maps to its parent, roots to themselves."""
    return Endofunction._of(forest_image(forest))


def endo_to_forest(f: Endofunction) -> OrderedForest:
    """Inverse of forest_to_endo; a cycle of length >= 2 raises ``StructureError``."""
    return forest_from_image(f.image)


def plane_to_parking(plane: PlaneForest) -> Endofunction:
    """The nondecreasing parking function of a plane forest.

    Labels each tree in level order (root, then its children left to right,
    and so on), trees one after another, which makes the parent sequence
    nondecreasing.  The depth-first labelling does not have that property
    once subtrees of unequal shape flank each other, so this is a different
    injection of plane forests into ordered structures.
    """
    kids: list[list[int]] = [[] for _ in range(plane.n + 1)]  # in depth-first order
    for v, p in enumerate(plane.parent, start=1):
        kids[p].append(v)
    label = [0] * (plane.n + 1)  # level-order label of each depth-first vertex; 0 for none
    image: list[int] = []
    for root in kids[0]:
        level = [root]
        while level:
            for v in level:
                label[v] = len(image) + 1
                image.append(label[plane.parent[v - 1]] or label[v])
            level = [c for v in level for c in kids[v]]
    return Endofunction._of(image)


# ---------------------------------------------------------------------------
# The maps between algebras, by name
# ---------------------------------------------------------------------------

class Morphism(NamedTuple):
    """The linear map ``source -> target`` extending ``key_map``, which
    sends a source key to a target key or element."""

    name: str
    source: str
    target: str
    key_map: Callable

    def apply(self, x: FreeElement) -> FreeElement:
        if x.algebra != self.source:
            raise StructureError(f"{self.name} maps {self.source} elements, not {x.algebra}")
        return x.map_keys(self.key_map, algebra=self.target)


MAPS: dict[str, Morphism] = {
    m.name: m
    for m in (
        Morphism("pi", "ho", "wqsym", pi_image),
        Morphism("f_F", "ho", "efsym", forest_to_endo),
        Morphism("ck", "ho", "ck", canonicalize),
        Morphism("plane", "nck", "ho", plane_to_ordered),
    )
}

pi_hopf = MAPS["pi"].apply  # the Hopf algebra quotient map onto WQSym
ck_projection = MAPS["ck"].apply  # the projection onto the commutative algebra


# ---------------------------------------------------------------------------
# Noncommutative Faa di Bruno
# ---------------------------------------------------------------------------

def _u_power(m: int, n: int) -> FreeElement:
    """(U^m)_n for U the sum of all plane forests: a forest of t trees is
    a concatenation of m plane forests in C(t + m - 1, m - 1) ways, one per
    split of its trees into m runs, some of them empty."""
    if m == 0:
        return unit_element("nck") if n == 0 else FreeElement("nck")
    return FreeElement("nck", {p: comb(p.parent.count(0) + m - 1, m - 1) for p in enumerate_plane_forests(n)})


def faa_di_bruno_z(n: int) -> FreeElement:
    """Z_n, the degree-n component of Z = U^2."""
    return _u_power(2, n)


def z_power_component(power: int, n: int) -> FreeElement:
    """(Z^power)_n = (U^(2 power))_n; power 0 is the unit series."""
    return _u_power(2 * power, n)


def check_faa_di_bruno(n: int) -> bool:
    """Delta(Z_n) = sum_k Z_k (x) (Z^{k+1})_{n-k}, exactly."""
    lhs = coproduct_element(faa_di_bruno_z(n))
    rhs_terms: dict = {}
    for k in range(n + 1):
        left = faa_di_bruno_z(k)
        right = z_power_component(k + 1, n - k)
        for a, ca in left.terms.items():
            for b, cb in right.terms.items():
                pair = (a, b)
                rhs_terms[pair] = rhs_terms.get(pair, 0) + ca * cb
    return lhs == TensorElement("nck", rhs_terms)
