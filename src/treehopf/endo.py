"""EFSym on endofunctions, its SGSym permutation subalgebra, and the
membership predicates of further subfamilies.

Both algebras are rows of :func:`~treehopf.algebra.register_map_algebra`: a
key is its image vector, the product is shifted concatenation
((f . g)(i) = f(i) on the first block, g shifted by |f| on the second), and
the coproduct sums over the ideals of the functional graph (vertex sets
closed under preimages), standardizing the ideal part and its complement,
where escaping values become fixed.  That is the cut rule of
:mod:`treehopf.structures`, shared with the forests through f_F; on a
permutation the ideals are the unions of cycles, so ``sgsym`` splits
cycles.  Ideals are plain vertex sets (frozensets), listed by :func:`ideals`.
"""

from __future__ import annotations

from .algebra import register_map_algebra
from .structures import (
    Endofunction,
    Permutation,
    StructureError,
    closed_subsets,
    enumerate_endofunctions,
    enumerate_permutations,
    functional_graph,
    mask_vertices,
)


def ideals(f: Endofunction) -> list[frozenset[int]]:
    """All ideals of f (subsets I with f^{-1}(I) inside I), in increasing
    bitmask order."""
    return [frozenset(mask_vertices(m)) for m in closed_subsets(f.image)]


# ---------------------------------------------------------------------------
# Subalgebra membership filters
# ---------------------------------------------------------------------------

def is_permutation(f: Endofunction) -> bool:
    return sorted(f.image) == list(range(1, f.n + 1))


def is_acyclic(f: Endofunction) -> bool:
    """No cycle of length >= 2; fixed points are the allowed cycles."""
    return all(len(c) == 1 for c in f.cycles())


def is_nondecreasing(f: Endofunction) -> bool:
    return all(f.image[i] <= f.image[i + 1] for i in range(f.n - 1))


def is_nondecreasing_parking(f: Endofunction) -> bool:
    return is_nondecreasing(f) and all(f(v) <= v for v in range(1, f.n + 1))


def is_idempotent(f: Endofunction) -> bool:
    return f.compose(f) == f


def is_burnside(f: Endofunction, p: int, q: int) -> bool:
    """f^p = f^q by iterated composition."""
    if p < 0 or q < 0:
        raise StructureError("Burnside exponents must be nonnegative")
    return f.power(p) == f.power(q)


def burnside_graphical(f: Endofunction, p: int, q: int) -> bool:
    """Graph-side criterion equivalent to f^p = f^q: every cycle length
    divides |p - q| and every vertex reaches its cycle within min(p, q) steps."""
    if p == q:
        return True
    depth, cycles = functional_graph(f.image)
    return not any(abs(p - q) % len(c) for c in cycles) and max(depth, default=0) <= min(p, q)


register_map_algebra("efsym", Endofunction, enumerate_endofunctions, tuple, Endofunction._of)
register_map_algebra("sgsym", Permutation, enumerate_permutations, tuple, Permutation._of)
