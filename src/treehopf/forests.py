"""Product and coproduct for the three forest Hopf algebras.

* ``ck``  -- commutative algebra on unlabelled rooted forests; product is
  disjoint union, coproduct sums Roo (x) Lea over admissible cuts.
* ``ho``  -- noncommutative algebra on ordered forests; product shifts the
  second factor's labels, coproduct cuts and re-standardizes both parts.
* ``nck`` -- noncommutative algebra on plane forests, transported through
  the canonical left depth-first labelling.

All three cut along the preimage-closed vertex sets of f_F (each vertex to
its parent, each root to itself), the rule shared with the endofunctions.

Also provides the auxiliary grafting product ``nwarrow`` on ordered forests.
"""

from __future__ import annotations

from .algebra import AlgebraOps, FreeElement, TensorElement, register_algebra
from .structures import (
    OrderedForest,
    PlaneForest,
    RootedForest,
    StructureError,
    canonicalize,
    cut_terms,
    enumerate_ordered_forests,
    enumerate_plane_forests,
    enumerate_rooted_forests,
    forest_from_image,
    forest_image,
    ordered_to_plane,
    plane_to_ordered,
)

CUTS = "admissible cut enumeration"

# ---------------------------------------------------------------------------
# Ordered forests
# ---------------------------------------------------------------------------

def ho_product(left: OrderedForest, right: OrderedForest) -> OrderedForest:
    """Disjoint union with the right factor's labels shifted up by |left|."""
    shift = left.n
    shifted = tuple(0 if p == 0 else p + shift for p in right.parent)
    return OrderedForest(left.parent + shifted)


def ho_coproduct(forest: OrderedForest) -> TensorElement:
    """Sum of Roo (x) Lea over all admissible cuts, both parts standardized."""
    return TensorElement("ho", cut_terms(forest_image(forest), forest_from_image, CUTS))


def nwarrow(left: OrderedForest, right: OrderedForest) -> OrderedForest:
    """Graft ``right`` (shifted by |left|) onto the greatest vertex of ``left``."""
    if left.n == 0:
        raise StructureError("nwarrow needs a nonempty left factor")
    top = left.n
    shifted = tuple(top if p == 0 else p + top for p in right.parent)
    return OrderedForest(left.parent + shifted)


# ---------------------------------------------------------------------------
# Unlabelled rooted forests (Connes-Kreimer)
# ---------------------------------------------------------------------------

def ck_product(left: RootedForest, right: RootedForest) -> RootedForest:
    trees = left.canonical.split() + right.canonical.split()
    return RootedForest(" ".join(sorted(trees)))


def ck_coproduct(forest: RootedForest) -> TensorElement:
    """Cuts computed on any labelling; both factors canonicalized."""
    image = forest_image(plane_to_ordered(forest.as_plane()))
    return TensorElement("ck", cut_terms(image, lambda part: canonicalize(forest_from_image(part)), CUTS))


# ---------------------------------------------------------------------------
# Plane forests (noncommutative Connes-Kreimer)
# ---------------------------------------------------------------------------

def nck_product(left: PlaneForest, right: PlaneForest) -> PlaneForest:
    return PlaneForest(left.trees + right.trees)


def nck_coproduct(forest: PlaneForest) -> TensorElement:
    """Cut in the ordered labelling and read both factors back as plane forests.

    The canonical labelling is chosen so that every cut of the image of a
    plane forest standardizes to the image of a plane forest; readback fails
    loudly if that ever breaks.
    """
    image = forest_image(plane_to_ordered(forest))
    return TensorElement("nck", cut_terms(image, lambda part: ordered_to_plane(forest_from_image(part)), CUTS))


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

register_algebra(
    AlgebraOps(
        tag="ho",
        key_type=OrderedForest,
        keys_of_degree=enumerate_ordered_forests,
        product=lambda a, b: FreeElement.from_key("ho", ho_product(a, b)),
        coproduct=ho_coproduct,
    )
)

register_algebra(
    AlgebraOps(
        tag="ck",
        key_type=RootedForest,
        keys_of_degree=enumerate_rooted_forests,
        product=lambda a, b: FreeElement.from_key("ck", ck_product(a, b)),
        coproduct=ck_coproduct,
    )
)

register_algebra(
    AlgebraOps(
        tag="nck",
        key_type=PlaneForest,
        keys_of_degree=enumerate_plane_forests,
        product=lambda a, b: FreeElement.from_key("nck", nck_product(a, b)),
        coproduct=nck_coproduct,
    )
)
