"""The three forest Hopf algebras, and the grafting product ``nwarrow``.

Each forest key is read as its map f_F on {1..n} (each vertex to its parent,
each root to itself, :func:`~treehopf.structures.forest_image`), and each
algebra is one row of :func:`~treehopf.algebra.register_map_algebra`: the
product is shifted concatenation of the maps, and the coproduct sums
Roo (x) Lea over the preimage-closed vertex sets, the admissible cuts.  The
rows differ only in how a map is read back as a key:

* ``ho``  -- ordered forests: the forest with that f_F, so the product is
  the union with the right factor's labels shifted up;
* ``nck`` -- plane forests, stored as the parent vector of their depth-first
  labelling: concatenations and cut parts of such vectors are depth-first
  again, so the map reads back as the plane forest of its vector;
* ``ck``  -- unlabelled rooted forests, stored as their canonical parent
  vector: the canonical vector of that forest, so the product is disjoint
  union.
"""

from __future__ import annotations

from .algebra import register_map_algebra
from .structures import (
    OrderedForest,
    PlaneForest,
    RootedForest,
    StructureError,
    canonical_parents,
    enumerate_ordered_forests,
    enumerate_plane_forests,
    enumerate_rooted_forests,
    forest_from_image,
    forest_image,
    shifted_parents,
)


def nwarrow(left: OrderedForest, right: OrderedForest) -> OrderedForest:
    """Graft ``right`` (shifted by |left|) onto the greatest vertex of ``left``."""
    if left.n == 0:
        raise StructureError("nwarrow needs a nonempty left factor")
    return OrderedForest._of(left.parent + shifted_parents(right.parent, left.n, left.n))


register_map_algebra("ho", OrderedForest, enumerate_ordered_forests, forest_image,
                     lambda image: forest_from_image(image, OrderedForest._of))
register_map_algebra("nck", PlaneForest, enumerate_plane_forests, forest_image,
                     lambda image: forest_from_image(image, PlaneForest._of))
register_map_algebra("ck", RootedForest, enumerate_rooted_forests, forest_image,
                     lambda image: RootedForest._of(forest_from_image(image, canonical_parents)))
