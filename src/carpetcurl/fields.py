"""Piecewise-affine scalar fields on convex patches.

Fields are finite collections of convex polygonal patches, each carrying an
affine map value(x, y) = c0 + cx*x + cy*y.  A field's patch vertices lie on
the lattice of its ``scale``, so vertex (X, Y) is the point (X / scale,
Y / scale), while the maps stay in unit coordinates: a stage field (the
flattened coordinate, the staircase) has int vertices on its stage lattice,
and a target the int corners of the unit square at scale 1.  The cell
fields of ``witness`` are not patch fields: they hold one int map per piece
of their flattened field, and the witness built on them is a
``ProductVectorField`` of int pieces.
Patches may cover less than the unit square; integration treats the
complement as zero, so fields supported on small regions (tent covers,
seams) need no explicit complement patches.  A field is read through its
``patches`` and a product vector field through its ``pieces``: neither is
iterable, and no field is searched for the patch holding a point, since
every quantity the package takes of a field is a sum over its patches or a
max over their vertices.

Every builder constructs ``AffinePatch`` directly from a polygon it has
proved convex and counterclockwise: the stage layout in ``witness`` checks
its int polygons itself, and the unit square of ``affine_field`` and the
staircase's bands are counterclockwise rectangles by construction.
``refine_pairs`` overlays two partitions given on one lattice and returns
each clip as ``geometry.clip_convex`` leaves it, with no rescaling and no
conversion; its ``_BoxIndex`` buckets the boxes as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import bbox, clip_convex, polygon_area


@dataclass(frozen=True)
class AffinePatch:
    """Convex region with an affine value map; the coefficients are ints or
    ``Fraction``s (a flattened patch's slopes are ints)."""

    vertices: tuple
    c0: Fraction
    cx: Fraction
    cy: Fraction

    def value_at(self, p):
        return self.c0 + self.cx * p[0] + self.cy * p[1]

    @property
    def gradient(self):
        return (self.cx, self.cy)


@dataclass(frozen=True)
class PiecewiseAffineField:
    """Finite set of affine patches with pairwise disjoint interiors.

    Vertices are over ``scale``; maps are in unit coordinates.
    """

    patches: tuple
    scale: int


@dataclass(frozen=True)
class ProductVectorField:
    """Vector field of the form (affine h) * (constant vector) per piece.

    Pieces are (vertices, (h0, hx, hy, d), (px, py)), all ints: the
    vertices over ``scale``, and the field (h0 + hx*x + hy*y) / d times
    (px, py) in unit coordinates, as a cell-field map times a flattened
    gradient is; this keeps products such as a scalar ramp times a gradient
    exactly representable.
    """

    pieces: tuple
    scale: int


def constant_field(value) -> PiecewiseAffineField:
    return affine_field(value, 0, 0)


def coordinate_field(axis: str) -> PiecewiseAffineField:
    if axis == "x":
        return affine_field(0, 1, 0)
    if axis == "y":
        return affine_field(0, 0, 1)
    raise ValueError(axis)


def affine_field(c0, cx, cy) -> PiecewiseAffineField:
    unit = ((0, 0), (1, 0), (1, 1), (0, 1))
    return PiecewiseAffineField((AffinePatch(unit, Fraction(c0), Fraction(cx), Fraction(cy)),), 1)


class _BoxIndex:
    """Grid index over bounding boxes (x0, y0, x1, y1), stored as given.

    The grid cell is the median of the boxes' positive widths and heights,
    and ``//`` on it picks a box's cells, so int and ``Fraction`` boxes
    alike spread over many cells, full-width strips included, and every
    overlap test is exact.

    ``candidates`` yields indices in ascending order, whatever the cells,
    so a refinement built from it does not depend on the bucketing.
    """

    def __init__(self, items, key):
        self.boxes = boxes = [key(it) for it in items]
        extents = sorted(e for b in boxes for e in (b[2] - b[0], b[3] - b[1]) if e > 0)
        self.cell = cell = extents[len(extents) // 2] if extents else 1
        self.buckets = {}
        for idx, (x0, y0, x1, y1) in enumerate(boxes):
            for kx in range(x0 // cell, x1 // cell + 1):
                for ky in range(y0 // cell, y1 // cell + 1):
                    self.buckets.setdefault((kx, ky), []).append(idx)

    def _near(self, box):
        """The indices, ascending, of the boxes sharing a cell with ``box``."""
        cell = self.cell
        hits = set()
        for kx in range(box[0] // cell, box[2] // cell + 1):
            for ky in range(box[1] // cell, box[3] // cell + 1):
                hits.update(self.buckets.get((kx, ky), ()))
        return sorted(hits)

    def candidates(self, box):
        """The indices, ascending, of the boxes that overlap ``box`` in more
        than an edge or a corner."""
        qx0, qy0, qx1, qy1 = box
        for idx in self._near(box):
            x0, y0, x1, y1 = self.boxes[idx]
            if x0 < qx1 and qx0 < x1 and y0 < qy1 and qy0 < y1:
                yield idx


def refine_pairs(regions_a, regions_b):
    """All positive-area intersections (clip, ia, ib) of two lists of
    convex CCW regions on one lattice, each as ``clip_convex`` returns it."""
    out = []
    index = _BoxIndex(regions_b, key=bbox)
    for ia, ra in enumerate(regions_a):
        for ib in index.candidates(bbox(ra)):
            piece = clip_convex(ra, regions_b[ib])
            if piece and polygon_area(piece) > 0:
                out.append((piece, ia, ib))
    return out
