"""Product vector fields and the overlay of two partitions.

A ``ProductVectorField`` holds int pieces, each an affine scalar times a
constant vector on a convex polygon whose vertices lie on the lattice of
the field's ``scale``: the witness the verifier builds is one, a cell-field
map times a flattened gradient per piece.  It is read through its
``pieces``, and no field is searched for the piece holding a point, since
every quantity the package takes of a field is a sum over its pieces or a
max over their vertices.

``refine_pairs`` overlays two partitions given on one lattice and returns
each clip as ``geometry.clip_convex`` leaves it, with no rescaling and no
conversion; its ``_BoxIndex`` buckets the boxes as given.
"""

from __future__ import annotations

from typing import NamedTuple

from .geometry import bbox, clip_convex, polygon_area


class ProductVectorField(NamedTuple):
    """Vector field of the form (affine h) * (constant vector) per piece.

    Pieces are (vertices, (h0, hx, hy, d), (px, py)), all ints: the
    vertices over ``scale``, and the field (h0 + hx*x + hy*y) / d times
    (px, py) in unit coordinates, as a cell-field map times a flattened
    gradient is; this keeps products such as a scalar ramp times a gradient
    exactly representable.
    """

    pieces: tuple
    scale: int


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
