"""Schur-analog R bases on ordered forests and endofunctions.

The forest order compares edge sets (more edges = smaller, cover = delete
one edge); the endofunction order fixes moved points one at a time (more
moved points = smaller, identity on top).  R is the Mobius-inverted basis
along each order.  The R product is multiplicity-free: its structure
constants are restriction conditions on the interval blocks.

The down-sets, up-sets and R products are products of per-vertex choices:
forests through the acyclic parent-vector search of
:mod:`treehopf.structures` (which skips the choices that close a cycle),
endofunctions as a plain product of images.

The two settings invert in opposite directions.  For forests, R_F sums
over the down-set of F with edge-count signs.  For endofunctions, R_f sums
over the up-set of f (all ways of fixing a subset of its moved points, with
inclusion-exclusion signs); that direction gives the transposition a
four-term expansion and makes the quotient construction below nontrivial,
whereas the R product keeps its combinatorial description either way.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple

from .algebra import AlgebraTagError, FreeElement
from .endo import is_acyclic
from .structures import (
    Endofunction,
    EnumerationBoundError,
    OrderedForest,
    RootedForest,
    acyclic_parent_vectors,
    canonicalize,
)

# The R expansions and products are built term by term, but an output can
# hold every structure of its degree (the antichain's down-set does).
R_BASIS_BOUND = 5


def _check_r_bound(n: int, what: str):
    if n > R_BASIS_BOUND:
        raise EnumerationBoundError(f"{what} restricted to degree <= {R_BASIS_BOUND}, got {n}")


# ---------------------------------------------------------------------------
# The order on ordered forests
# ---------------------------------------------------------------------------

def forest_leq(f: OrderedForest, g: OrderedForest) -> bool:
    """f <= g iff the edges of g all appear in f (deleting edges goes up)."""
    if f.n != g.n:
        return False
    return set(g.edges()) <= set(f.edges())


def forest_down_set(forest: OrderedForest) -> list[OrderedForest]:
    """All g <= forest, i.e. forests whose edge set extends the given one,
    lexicographic in the parent vector.

    Every edge of the forest is kept and each root may take any parent; the
    cycle skip rejects a root grafted onto its own tree.
    """
    _check_r_bound(forest.n, "forest R basis")
    return acyclic_parent_vectors([(p,) if p else range(forest.n + 1) for p in forest.parent])


def _expansions(tag: str, interval: Callable, rank: Callable) -> tuple[Callable, Callable]:
    """The Mobius pair of one order, where ``interval(x)`` lists the keys g
    on the side of x that R_x sums over and ``rank`` moves by one along each
    cover: R_x = sum over g of (-1)^(rank g - rank x) S^g, and S^x = sum over
    g of R_g."""

    def r_from_s(x) -> FreeElement:
        base = rank(x)
        return FreeElement(tag, {g: (-1) ** (rank(g) - base) for g in interval(x)})

    def s_in_r(x) -> FreeElement:
        return FreeElement(tag, dict.fromkeys(interval(x), 1))

    return r_from_s, s_in_r


r_from_s_forest, s_in_r_forest = _expansions("ho", forest_down_set, lambda f: len(f) - f.count(0))


def r_product_forest(left: OrderedForest, right: OrderedForest) -> FreeElement:
    """R_{F'} R_{F''} = sum of R_F over forests restricting to the factors
    on the two label intervals (an element in the R basis).

    Such an F keeps every edge of F' on {1..k1} and of F'' (shifted) on
    {k1+1..k1+k2}; each root of one factor stays a root or is grafted onto
    a vertex of the other block, and graftings that close a cycle are
    skipped.
    """
    k1, k2 = left.n, right.n
    _check_r_bound(k1 + k2, "forest R product")
    block1 = tuple(range(1, k1 + 1))
    block2 = tuple(range(k1 + 1, k1 + k2 + 1))
    choices = [(p,) if p else (0,) + block2 for p in left.parent]
    choices += [(p + k1,) if p else (0,) + block1 for p in right.parent]
    return FreeElement("ho", {f: 1 for f in acyclic_parent_vectors(choices)})


# ---------------------------------------------------------------------------
# Commutative image: the R basis of the Connes-Kreimer algebra
# ---------------------------------------------------------------------------

def r_commutative(forest: RootedForest) -> FreeElement:
    """Image of R_F in the commutative algebra, independent of the labelling."""
    return r_from_s_forest(OrderedForest._of(forest.parent)).map_keys(canonicalize, algebra="ck")


def ck_s_in_r(forest: RootedForest) -> FreeElement:
    """S^F in the commutative R basis: the image of S^F = sum of R_g over
    the down-set of a labelling of F, so R^G counts the forests of shape G
    in that down-set."""
    return s_in_r_forest(OrderedForest._of(forest.parent)).map_keys(canonicalize, algebra="ck")


# ---------------------------------------------------------------------------
# The order on endofunctions
# ---------------------------------------------------------------------------

def endo_leq(f: Endofunction, g: Endofunction) -> bool:
    """f <= g iff g agrees with f except on moved points of f that g fixes."""
    if f.n != g.n:
        return False
    return all(g.image[k] in (f.image[k], k + 1) for k in range(f.n))


def endo_up_set(f: Endofunction) -> list[Endofunction]:
    """All g >= f, lexicographic: each moved point keeps its image or is fixed."""
    _check_r_bound(f.n, "endofunction R basis")
    choices = [tuple(sorted({fv, v})) for v, fv in enumerate(f.image, start=1)]
    return list(map(Endofunction._of, itertools.product(*choices)))


r_from_s_endo, s_in_r_endo = _expansions("efsym", endo_up_set, Endofunction.num_fixed)


def r_product_endo(left: Endofunction, right: Endofunction) -> FreeElement:
    """R_{f'} R_{f''} = sum of R_f over f standardizing to the factors on the
    two blocks (an element in the R basis).

    On each block, f agrees with its factor (shifted) at the moved points;
    a fixed point of one factor stays fixed or is sent anywhere into the
    other block.  That gives (1+k2)^fix(f') * (1+k1)^fix(f'') terms.
    """
    k1, k2 = left.n, right.n
    _check_r_bound(k1 + k2, "endofunction R product")
    block1 = tuple(range(1, k1 + 1))
    block2 = tuple(range(k1 + 1, k1 + k2 + 1))
    choices = [(v,) + block2 if fv == v else (fv,) for v, fv in enumerate(left.image, start=1)]
    choices += [block1 + (v + k1,) if fv == v else (fv + k1,) for v, fv in enumerate(right.image, start=1)]
    return FreeElement("efsym", dict.fromkeys(map(Endofunction._of, itertools.product(*choices)), 1))


# ---------------------------------------------------------------------------
# The cyclic R ideal and the quotient
# ---------------------------------------------------------------------------

def quotient_r(x: FreeElement) -> FreeElement:
    """Class of an R-basis element modulo the cyclic R ideal: kill the
    non-acyclic keys."""
    return FreeElement("efsym", {f: c for f, c in x.terms.items() if is_acyclic(f)})


# ---------------------------------------------------------------------------
# Basis change surface
# ---------------------------------------------------------------------------

class RBasis(NamedTuple):
    """The R basis of one algebra: R_x in the S basis, S^x in the R basis,
    and the R product of two keys (None where there is no product rule)."""

    r_from_s: Callable
    s_in_r: Callable
    r_product: Callable | None


R_BASES: dict[str, RBasis] = {
    "ho": RBasis(r_from_s_forest, s_in_r_forest, r_product_forest),
    "ck": RBasis(r_commutative, ck_s_in_r, None),
    "efsym": RBasis(r_from_s_endo, s_in_r_endo, r_product_endo),
}


def _r_basis(tag: str) -> RBasis:
    try:
        return R_BASES[tag]
    except KeyError:
        raise AlgebraTagError(f"no R basis for algebra {tag!r}") from None


def to_s_basis(x: FreeElement) -> FreeElement:
    """Rewrite an R-basis element in the S basis (ho, ck or efsym)."""
    return x.map_keys(_r_basis(x.algebra).r_from_s)


def to_r_basis(x: FreeElement) -> FreeElement:
    """Rewrite an S-basis element in the R basis (ho, ck or efsym)."""
    return x.map_keys(_r_basis(x.algebra).s_in_r)
