"""Maps between the algebras.

Covers the plane/ordered canonical labelling, the root-grafting operator B+
and its shadow b on packed words, the quotient map pi onto WQSym with its
preimage construction F_w, the embedding of ordered forests into
endofunctions, the projection onto the commutative forest algebra, and the
noncommutative Faa di Bruno element Z = U^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import FreeElement, TensorElement, accumulate, product_elements, unit_element
from .realization import pi_image, rank_of_rows
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
    ordered_to_plane,
    pack,
    plane_to_ordered,
    relabel_forest,
)
from .forests import ho_product
from .words import b_endomorphism  # noqa: F401  (re-export beside b_plus)

__all__ = [
    "plane_to_ordered",
    "ordered_to_plane",
    "b_plus",
    "pi_hopf",
    "f_w_preimage",
    "forest_to_endo",
    "endo_to_forest",
    "plane_to_parking",
    "ck_projection",
    "faa_di_bruno_z",
    "z_power_component",
    "check_faa_di_bruno",
    "pi_restricted_rank",
    "minimal_admissible_word",
]


def b_plus(x):
    """Connect the trees of a forest to a new common root.

    For an ordered forest the new root is the smallest vertex (old labels
    shift up by one); for a plane forest child order is preserved.
    """
    if isinstance(x, OrderedForest):
        shifted = tuple(1 if p == 0 else p + 1 for p in x.parent)
        return OrderedForest((0,) + shifted)
    if isinstance(x, PlaneForest):
        return PlaneForest((x.trees,))
    raise StructureError(f"b_plus applies to forests, not {type(x).__name__}")


def pi_hopf(x: FreeElement) -> FreeElement:
    """Linear extension of pi; a Hopf algebra quotient map ho -> wqsym."""
    if x.algebra != "ho":
        raise StructureError("pi is defined on the ordered forest algebra")
    return x.map_keys(pi_image, algebra="wqsym")


def minimal_admissible_word(forest: OrderedForest) -> PackedWord:
    """Lexicographically smallest packed word appearing in pi(F)."""
    candidates = pi_image(forest).terms
    if not candidates:
        raise StructureError("pi image is empty")
    return min(candidates, key=lambda m: m.letters)


def f_w_preimage(w: PackedWord) -> OrderedForest:
    """An ordered forest whose pi image has w as its smallest packed word.

    Nondecreasing words either split off a repeated initial 1 or apply B+;
    otherwise the stable sorting permutation rearranges the vertex labels of
    the preimage of the sorted word.
    """
    n = w.n
    if n == 0:
        return OrderedForest(())
    if n == 1:
        return OrderedForest((0,))
    a = w.letters
    if all(a[i] <= a[i + 1] for i in range(n - 1)):
        if a[0] == a[1]:
            return ho_product(OrderedForest((0,)), f_w_preimage(PackedWord(a[1:])))
        return b_plus(f_w_preimage(pack(a[1:])))
    positions = sorted(range(n), key=lambda p: (a[p], p))
    sorted_word = pack(tuple(a[p] for p in positions))
    base = f_w_preimage(sorted_word)
    new_label = {v: positions[v - 1] + 1 for v in range(1, n + 1)}
    return relabel_forest(base, new_label)


# ---------------------------------------------------------------------------
# Ordered forests inside endofunctions
# ---------------------------------------------------------------------------

def forest_to_endo(forest: OrderedForest) -> Endofunction:
    """f_F: each vertex maps to its parent, roots to themselves."""
    return Endofunction(forest_image(forest))


def endo_to_forest(f: Endofunction) -> OrderedForest:
    """Inverse of forest_to_endo on acyclic endofunctions."""
    from .endo import is_acyclic

    if not is_acyclic(f):
        raise StructureError(f"{f.render()} has a cycle of length >= 2")
    return forest_from_image(f.image)


def plane_to_parking(plane: PlaneForest) -> Endofunction:
    """The nondecreasing parking function of a plane forest.

    Labels each tree in level order (root, then its children left to right,
    and so on), trees one after another, which makes the parent sequence
    nondecreasing.  The depth-first labelling does not have that property
    once subtrees of unequal shape flank each other, so this is a different
    injection of plane forests into ordered structures.
    """
    next_id = 0
    order: list[tuple[int, int]] = []  # (vertex label, parent label or 0)
    for tree in plane.trees:
        queue = [(tree, 0)]
        while queue:
            next_queue = []
            for node, parent_id in queue:
                next_id += 1
                order.append((next_id, parent_id))
                next_queue.extend((sub, next_id) for sub in node)
            queue = next_queue
    return Endofunction(tuple(p if p else v for v, p in order))


# ---------------------------------------------------------------------------
# Projection onto the commutative forest algebra
# ---------------------------------------------------------------------------

def ck_projection(x: FreeElement) -> FreeElement:
    if x.algebra != "ho":
        raise StructureError("the projection is defined on the ordered forest algebra")
    return x.map_keys(canonicalize, algebra="ck")


# ---------------------------------------------------------------------------
# Noncommutative Faa di Bruno
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _plane_sum(n: int) -> FreeElement:
    """U_n: every plane forest with n vertices, coefficient one."""
    return FreeElement("nck", {p: 1 for p in enumerate_plane_forests(n)})


@lru_cache(maxsize=None)
def faa_di_bruno_z(n: int) -> FreeElement:
    """Z_n, the degree-n component of Z = U^2."""
    out: dict = {}
    for k in range(n + 1):
        accumulate(out, product_elements(_plane_sum(k), _plane_sum(n - k)).terms)
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


def check_faa_di_bruno(n: int) -> bool:
    """Delta(Z_n) = sum_k Z_k (x) (Z^{k+1})_{n-k}, exactly."""
    from .algebra import coproduct_element

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


# ---------------------------------------------------------------------------
# Injectivity of pi on plane-forest images
# ---------------------------------------------------------------------------

@dataclass
class PiRankReport:
    per_degree: dict[int, tuple[int, int]]  # degree -> (number of forests, rank)
    minima_distinct: bool

    @property
    def ok(self) -> bool:
        return self.minima_distinct and all(n == r for n, r in self.per_degree.values())

    def summary(self) -> str:
        ranks = ", ".join(f"deg {d}: {r}/{n}" for d, (n, r) in sorted(self.per_degree.items()))
        extra = "minimal words distinct" if self.minima_distinct else "MINIMAL WORD COLLISION"
        return f"pi restricted to plane images: {ranks}; {extra}"


def pi_restricted_rank(max_degree: int) -> PiRankReport:
    """Rank of {pi(plane image)} over the M basis, degree by degree, plus
    distinctness of the lexicographically minimal words."""
    per_degree = {}
    minima_ok = True
    for d in range(1, max_degree + 1):
        labelled = [plane_to_ordered(p) for p in enumerate_plane_forests(d)]
        images = [pi_image(f) for f in labelled]
        rows = [{k: c for k, c in img.terms.items()} for img in images]
        per_degree[d] = (len(labelled), rank_of_rows(rows))
        minima = [minimal_admissible_word(f) for f in labelled]
        if len(set(minima)) != len(minima):
            minima_ok = False
    return PiRankReport(per_degree, minima_ok)
