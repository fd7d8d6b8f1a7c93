"""EFSym on endofunctions and its SGSym permutation subalgebra.

The product is shifted concatenation; the coproduct sums over the ideals of
the functional graph (subsets closed under preimages), standardizing both
the ideal part and its complement, where escaping values become fixed: the
cut rule of :mod:`treehopf.structures`, shared with the forests through f_F.
Ideals are plain vertex sets (frozensets), listed by :func:`ideals`.
"""

from __future__ import annotations

from .algebra import AlgebraOps, FreeElement, TensorElement, register_algebra
from .structures import (
    Endofunction,
    Permutation,
    StructureError,
    closed_subsets,
    cut_terms,
    cycle_vertices,
    distance_to_cycle,
    enumerate_endofunctions,
    enumerate_permutations,
    mask_vertices,
    restrict_image,
)

IDEALS = "ideal enumeration"


def shifted_concat(f: Endofunction, g: Endofunction) -> Endofunction:
    """(f . g)(i) = f(i) on the first block, g shifted by |f| on the second."""
    shift = f.n
    return Endofunction(f.image + tuple(v + shift for v in g.image))


def ideals(f: Endofunction, bound: int | None = None) -> list[frozenset[int]]:
    """All ideals of f (subsets I with f^{-1}(I) inside I), in increasing
    bitmask order."""
    return [frozenset(mask_vertices(m)) for m in closed_subsets(f.image, bound, IDEALS)]


def std_restrict(f: Endofunction, subset) -> Endofunction:
    """std(f^I): values escaping I become fixed, then conjugate by the unique
    increasing bijection I -> [k]."""
    keep = sorted(set(subset))
    if any(v < 1 or v > f.n for v in keep):
        raise StructureError(f"{keep} is not a subset of the domain of {f.render()}")
    return Endofunction(restrict_image(f.image, keep))


def efsym_coproduct(f: Endofunction) -> TensorElement:
    """One term std(f^{[n] minus I}) (x) std(f^I) per ideal I of f."""
    return TensorElement("efsym", cut_terms(f.image, Endofunction, IDEALS))


# ---------------------------------------------------------------------------
# SGSym: the permutation subalgebra with its own basis indexing
# ---------------------------------------------------------------------------

def sgsym_product(s: Permutation, t: Permutation) -> Permutation:
    return Permutation(shifted_concat(s, t).image)


def sgsym_coproduct(s: Permutation) -> TensorElement:
    """Ideals of a permutation are unions of cycles, so this splits cycles."""
    return TensorElement("sgsym", cut_terms(s.image, Permutation, IDEALS))


# ---------------------------------------------------------------------------
# Subalgebra membership filters
# ---------------------------------------------------------------------------

def is_permutation(f: Endofunction) -> bool:
    return sorted(f.image) == list(range(1, f.n + 1))


def is_acyclic(f: Endofunction) -> bool:
    """No cycle of length >= 2; fixed points are the allowed cycles."""
    return all(f(v) == v for v in cycle_vertices(f))


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
    diff = abs(p - q)
    lengths = {len(c) for c in f.cycles()}
    if any(diff % ell for ell in lengths):
        return False
    return max(distance_to_cycle(f).values(), default=0) <= min(p, q)


register_algebra(
    AlgebraOps(
        tag="efsym",
        key_type=Endofunction,
        keys_of_degree=enumerate_endofunctions,
        product=lambda a, b: FreeElement.from_key("efsym", shifted_concat(a, b)),
        coproduct=efsym_coproduct,
    )
)

register_algebra(
    AlgebraOps(
        tag="sgsym",
        key_type=Permutation,
        keys_of_degree=enumerate_permutations,
        product=lambda a, b: FreeElement.from_key("sgsym", sgsym_product(a, b)),
        coproduct=sgsym_coproduct,
    )
)
