"""Piecewise-affine scalar fields on convex patches.

Fields are finite collections of convex polygonal patches, each carrying an
affine map value(x, y) = c0 + cx*x + cy*y.  A field's patch vertices lie on
the lattice of its ``scale``, so vertex (X, Y) is the point (X / scale,
Y / scale), while the maps stay in unit coordinates: a stage field (the
flattened coordinate, the staircase, a cell field) has int vertices on its
stage lattice and a target or a test field ``Fraction`` vertices at scale 1.
Patches may cover less than the unit square; integration treats the
complement as zero, so fields supported on small regions (tent covers,
seams) need no explicit complement patches.  A field is read through its
``patches`` and a product vector field through its ``pieces``: neither is
iterable, and no field is searched for the patch holding a point, since
every quantity the package takes of a field is a sum over its patches or a
max over their vertices.
``refine_pairs`` overlays two partitions on one lattice.

``make_patch`` normalizes a patch's vertices to ``Fraction`` pairs and
checks that they bound a convex region.  A builder that has already proved
its polygon canonical constructs ``AffinePatch`` directly: the stage layout
in ``witness`` checks its int polygons itself, and the staircase's bands
are counterclockwise rectangles by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import (
    ZERO,
    _convex,
    _lattice_scale,
    _normalize,
    bbox,
    clip_convex,
    normalize_polygon,
    polygon_area,
)


@dataclass(frozen=True)
class AffinePatch:
    """Convex region with an affine value map."""

    vertices: tuple
    c0: Fraction
    cx: Fraction
    cy: Fraction

    def value_at(self, p):
        return self.c0 + self.cx * p[0] + self.cy * p[1]

    @property
    def gradient(self):
        return (self.cx, self.cy)


def make_patch(vertices, c0, cx=0, cy=0) -> AffinePatch:
    verts, pts, _ = _normalize(vertices)
    if len(verts) < 3:
        raise ValueError("degenerate patch")
    if not _convex(pts):
        raise ValueError("patches must be convex")
    return AffinePatch(verts, Fraction(c0), Fraction(cx), Fraction(cy))


@dataclass(frozen=True)
class PiecewiseAffineField:
    """Finite set of affine patches with pairwise disjoint interiors.

    Vertices are over ``scale``; maps are in unit coordinates.
    """

    patches: tuple
    scale: int

    def sup_norm(self) -> Fraction:
        """Max of |value| over patch vertices; affine maps peak at vertices.

        A constant patch's value is its c0, and each value is compared
        against the best so far and its negative, so only a new best is
        negated.
        """
        s = self.scale
        best = neg = ZERO
        for p in self.patches:
            c0, cx, cy = p.c0, p.cx, p.cy
            for x, y in p.vertices:
                v = c0 + (cx * x + cy * y) / s if cx or cy else c0
                if v > best or v < neg:
                    best = v if v > 0 else -v
                    neg = -best
        return best


@dataclass(frozen=True)
class ProductVectorField:
    """Vector field of the form (affine h) * (constant vector) per piece.

    Pieces are (vertices, (h0, hx, hy), (px, py)), the vertices over
    ``scale`` and the maps in unit coordinates; this keeps products such as
    a scalar ramp times a gradient exactly representable.
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
    return PiecewiseAffineField((make_patch(((0, 0), (1, 0), (1, 1), (0, 1)), c0, cx, cy),), 1)


class _BoxIndex:
    """Grid index over rational bounding boxes (x0, y0, x1, y1).

    The indexed boxes are scaled once by the lcm of all their coordinates'
    denominators (the helper the ``geometry`` predicates scale with), so each
    is stored as four exact ints and every overlap test compares integers.
    The grid cell is the median of the boxes' integer widths and heights (at
    least 1): a few full-width strips then span many cells instead of forcing
    every box into one bucket.

    A query box need not lie on the lattice. Its scaled bounds are rounded
    once, low ends down and high ends up, to pick the cells; for an integer
    b, ``b < hi`` iff ``b < ceil(hi)`` and ``b <= hi`` iff ``b <= floor(hi)``
    (and symmetrically for the low end), so both the open-overlap test and
    the ``closed`` one stay exact.

    ``candidates`` yields indices in ascending order, whatever the cells,
    so a refinement built from it does not depend on the bucketing.
    """

    def __init__(self, items, key):
        boxes = [key(it) for it in items]
        self.scale = scale = _lattice_scale(v for b in boxes for v in b)
        self.boxes = [tuple(v.numerator * (scale // v.denominator) for v in b) for b in boxes]
        extents = sorted([b[2] - b[0] for b in self.boxes] + [b[3] - b[1] for b in self.boxes])
        self.cell = cell = max(1, extents[len(extents) // 2]) if extents else 1
        self.buckets = {}
        for idx, (x0, y0, x1, y1) in enumerate(self.boxes):
            for kx in range(x0 // cell, x1 // cell + 1):
                for ky in range(y0 // cell, y1 // cell + 1):
                    self.buckets.setdefault((kx, ky), []).append(idx)

    def candidates(self, box, closed=False):
        scale, cell = self.scale, self.cell
        fx0, fy0, fx1, fy1 = (v.numerator * scale // v.denominator for v in box)
        cx0, cy0, cx1, cy1 = (-(-v.numerator * scale // v.denominator) for v in box)
        hits = set()
        for kx in range(fx0 // cell, cx1 // cell + 1):
            for ky in range(fy0 // cell, cy1 // cell + 1):
                hits.update(self.buckets.get((kx, ky), ()))
        for idx in sorted(hits):
            x0, y0, x1, y1 = self.boxes[idx]
            if closed:
                if x0 <= fx1 and cx0 <= x1 and y0 <= fy1 and cy0 <= y1:
                    yield idx
            elif x0 < cx1 and fx0 < x1 and y0 < cy1 and fy0 < y1:
                yield idx


def refine_pairs(regions_a, regions_b):
    """All positive-area intersections (region, ia, ib) of two region lists."""
    out = []
    index = _BoxIndex(regions_b, key=bbox)
    for ia, ra in enumerate(regions_a):
        box_a = bbox(ra)
        for ib in index.candidates(box_a):
            piece = clip_convex(ra, regions_b[ib])
            if piece and polygon_area(piece) > 0:
                out.append((normalize_polygon(piece), ia, ib))
    return out
