"""Piecewise-affine scalar fields and piecewise-constant vector fields.

Fields are finite collections of convex polygonal patches, each carrying an
affine map value(x, y) = c0 + cx*x + cy*y.  Patches may cover less than the
unit square; integration treats the complement as zero, so fields supported
on small regions (tent covers, seams) need no explicit complement patches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .carpet import Prefractal
from .geometry import (
    ZERO,
    affine_poly,
    bbox,
    clip_convex,
    is_convex,
    normalize_polygon,
    point_in_convex,
    polygon_area,
    poly_mul,
    poly_scale,
)


class SupportMismatch(ValueError):
    pass


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

    def value_poly(self):
        return affine_poly(self.c0, self.cx, self.cy)


def make_patch(vertices, c0, cx=0, cy=0) -> AffinePatch:
    verts = normalize_polygon(vertices)
    if len(verts) < 3:
        raise ValueError("degenerate patch")
    if not is_convex(verts):
        raise ValueError("patches must be convex")
    return AffinePatch(verts, Fraction(c0), Fraction(cx), Fraction(cy))


@dataclass(frozen=True)
class PiecewiseAffineField:
    """Finite set of affine patches with pairwise disjoint interiors."""

    patches: tuple

    def __iter__(self):
        return iter(self.patches)

    def __len__(self):
        return len(self.patches)

    def total_area(self) -> Fraction:
        return sum((polygon_area(p.vertices) for p in self.patches), ZERO)

    def value_at(self, p) -> Optional[Fraction]:
        for patch in self.patches:
            if point_in_convex(patch.vertices, p):
                return patch.value_at(p)
        return None

    def continuity_defects(self, prefractal: Optional[Prefractal] = None,
                           hole_stage: Optional[int] = None):
        """Pairs of patches disagreeing along a shared edge segment.

        When a prefractal is given, shared segments whose midpoint lies in
        the closure of a removed hole (up to ``hole_stage``) are exempt: the
        field is free there, only its restriction off the holes matters.
        """
        defects = []
        index = _BoxIndex(self.patches, key=lambda p: bbox(p.vertices))
        for i, a in enumerate(self.patches):
            for j in index.candidates(bbox(a.vertices), closed=True):
                if j <= i:
                    continue
                b = self.patches[j]
                for seg in _shared_segments(a.vertices, b.vertices):
                    (p1, p2) = seg
                    mid = ((p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2)
                    if prefractal is not None and prefractal.meets_closed_hole(mid, hole_stage):
                        continue
                    for q in (p1, p2, mid):
                        if a.value_at(q) != b.value_at(q):
                            defects.append((i, j, q))
                            break
        return defects


@dataclass(frozen=True)
class PCVectorField:
    """Per-patch constant vector field: pieces (vertices, px, py)."""

    pieces: tuple

    def __iter__(self):
        return iter(self.pieces)

    def __len__(self):
        return len(self.pieces)


@dataclass(frozen=True)
class ProductVectorField:
    """Vector field of the form (affine h) * (constant vector) per piece.

    Pieces are (vertices, (h0, hx, hy), (px, py)); this keeps products such
    as a scalar ramp times a gradient exactly representable.
    """

    pieces: tuple

    def __iter__(self):
        return iter(self.pieces)

    def __len__(self):
        return len(self.pieces)


@dataclass(frozen=True)
class PCScalarField:
    """Per-patch constant scalar: pieces (vertices, value)."""

    pieces: tuple

    def __iter__(self):
        return iter(self.pieces)

    def __len__(self):
        return len(self.pieces)

    def sup(self) -> Fraction:
        return max((abs(v) for _, v in self.pieces), default=ZERO)


def constant_field(value, region=((0, 0), (1, 0), (1, 1), (0, 1))) -> PiecewiseAffineField:
    return PiecewiseAffineField((make_patch(region, value, 0, 0),))


def coordinate_field(axis: str, region=((0, 0), (1, 0), (1, 1), (0, 1))) -> PiecewiseAffineField:
    if axis == "x":
        return PiecewiseAffineField((make_patch(region, 0, 1, 0),))
    if axis == "y":
        return PiecewiseAffineField((make_patch(region, 0, 0, 1),))
    raise ValueError(axis)


def affine_field(c0, cx, cy, region=((0, 0), (1, 0), (1, 1), (0, 1))) -> PiecewiseAffineField:
    return PiecewiseAffineField((make_patch(region, c0, cx, cy),))


def gradient(field: PiecewiseAffineField) -> PCVectorField:
    """Per-patch gradient; constant on every patch of an affine field."""
    return PCVectorField(tuple((p.vertices, p.cx, p.cy) for p in field.patches))


def curl(v: ProductVectorField) -> PCScalarField:
    """Patchwise rotation of h*w with h affine and w constant per piece.

    With v = h*(p, q) the rotation d(v2)/dx - d(v1)/dy equals hx*q - hy*p on
    each piece; the constant part w contributes nothing patchwise.
    """
    return PCScalarField(tuple(
        (verts, hc[1] * w[1] - hc[2] * w[0]) for (verts, hc, w) in v.pieces
    ))


class _BoxIndex:
    """Grid index over rational bounding boxes (x0, y0, x1, y1).

    The indexed boxes are scaled once by the lcm of all their coordinates'
    denominators, so each is stored as four exact ints and every overlap
    test compares integers. The grid cell is the median of the boxes'
    integer widths and heights (at least 1): a few full-width strips then
    span many cells instead of forcing every box into one bucket.

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
        self.scale = scale = lcm(*{v.denominator for b in boxes for v in b})
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


def _shared_segments(poly_a, poly_b):
    """Positive-length overlaps of collinear boundary edges of two polygons."""
    na, nb = len(poly_a), len(poly_b)
    out = []
    for i in range(na):
        p1, p2 = poly_a[i], poly_a[(i + 1) % na]
        for j in range(nb):
            q1, q2 = poly_b[j], poly_b[(j + 1) % nb]
            # collinearity of the two edges
            if _cross3(p1, p2, q1) != 0 or _cross3(p1, p2, q2) != 0:
                continue
            dx, dy = p2[0] - p1[0], p2[1] - p1[1]
            den = dx * dx + dy * dy
            if den == 0:
                continue

            def t_of(pt):
                return ((pt[0] - p1[0]) * dx + (pt[1] - p1[1]) * dy) / den

            t1, t2 = t_of(q1), t_of(q2)
            lo, hi = max(ZERO, min(t1, t2)), min(Fraction(1), max(t1, t2))
            if lo >= hi:
                continue
            a = (p1[0] + lo * dx, p1[1] + lo * dy)
            b = (p1[0] + hi * dx, p1[1] + hi * dy)
            out.append((a, b))
    return out


def _cross3(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


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


def overlay(a, b):
    """Common refinement of two partitions covering the same support.

    Accepts fields or raw region lists; returns (region, ia, ib) triples.
    Raises SupportMismatch when the two total areas differ, and checks that
    the refinement preserves area exactly.
    """
    regions_a = [p.vertices for p in a.patches] if isinstance(a, PiecewiseAffineField) else [normalize_polygon(r) for r in a]
    regions_b = [p.vertices for p in b.patches] if isinstance(b, PiecewiseAffineField) else [normalize_polygon(r) for r in b]
    area_a = sum((polygon_area(r) for r in regions_a), ZERO)
    area_b = sum((polygon_area(r) for r in regions_b), ZERO)
    if area_a != area_b:
        raise SupportMismatch(f"supports differ: {area_a} vs {area_b}")
    pieces = refine_pairs(regions_a, regions_b)
    refined_area = sum((polygon_area(r) for r, _, _ in pieces), ZERO)
    if refined_area != area_a:
        raise SupportMismatch("refinement lost area; partitions do not cover the same support")
    return pieces


def sup_norm(field: PiecewiseAffineField) -> Fraction:
    """Max of |value| over patch vertices; affine maps peak at vertices."""
    best = ZERO
    for p in field.patches:
        for v in p.vertices:
            val = abs(p.value_at(v))
            if val > best:
                best = val
    return best


def dirichlet_energy(field: PiecewiseAffineField, prefractal: Prefractal,
                     mode: str = "exact", with_tail: bool = False):
    """Sum over patches of |gradient|^2 times the prefractal measure.

    With ``with_tail`` the result is (value, interval) where the interval
    scales the value by the tail bracket, estimating the energy over the
    un-truncated carpet.
    """
    total = ZERO if mode == "exact" else 0.0
    for p in field.patches:
        g2 = p.cx * p.cx + p.cy * p.cy
        if g2 == 0:
            continue
        m = prefractal.region_measure(p.vertices, mode=mode)
        total += (g2 if mode == "exact" else float(g2)) * m
    if not with_tail:
        return total
    from .carpet import tail_measure_bounds
    tail = tail_measure_bounds(prefractal.spec, prefractal.level)
    return total, (total * tail.lower, total * tail.upper)


def l2_norm_sq(obj, prefractal: Prefractal, mode: str = "exact"):
    """Exact squared L2 norm over the prefractal for any supported field kind."""
    total = ZERO if mode == "exact" else 0.0
    if isinstance(obj, PiecewiseAffineField):
        for p in obj.patches:
            ipoly = poly_mul(p.value_poly(), p.value_poly())
            total += prefractal.integrate(p.vertices, ipoly, mode=mode)
    elif isinstance(obj, PCVectorField):
        for (verts, px, py) in obj.pieces:
            v2 = px * px + py * py
            if v2 == 0:
                continue
            total += v2 * prefractal.region_measure(verts, mode=mode)
    elif isinstance(obj, PCScalarField):
        for (verts, val) in obj.pieces:
            if val == 0:
                continue
            total += val * val * prefractal.region_measure(verts, mode=mode)
    elif isinstance(obj, ProductVectorField):
        for (verts, (h0, hx, hy), (px, py)) in obj.pieces:
            v2 = px * px + py * py
            if v2 == 0:
                continue
            h = affine_poly(h0, hx, hy)
            total += prefractal.integrate(verts, poly_scale(poly_mul(h, h), v2), mode=mode)
    else:
        raise TypeError(f"cannot integrate {type(obj).__name__}")
    return total


def product_with_gradient(h: PiecewiseAffineField, g: PiecewiseAffineField) -> ProductVectorField:
    """The vector field h * grad(g) on the common refinement."""
    pieces = []
    for region, ih, ig in refine_pairs([p.vertices for p in h.patches],
                                       [p.vertices for p in g.patches]):
        ph, pg = h.patches[ih], g.patches[ig]
        if pg.cx == 0 and pg.cy == 0:
            continue
        pieces.append((region, (ph.c0, ph.cx, ph.cy), (pg.cx, pg.cy)))
    return ProductVectorField(tuple(pieces))


def field_to_json(field: PiecewiseAffineField) -> dict:
    return {"patches": [
        {"vertices": [[[v[0].numerator, v[0].denominator], [v[1].numerator, v[1].denominator]]
                      for v in p.vertices],
         "coeffs": [[p.c0.numerator, p.c0.denominator],
                    [p.cx.numerator, p.cx.denominator],
                    [p.cy.numerator, p.cy.denominator]]}
        for p in field.patches]}


def field_from_json(data: dict) -> PiecewiseAffineField:
    patches = []
    for rec in data["patches"]:
        verts = tuple((Fraction(xn, xd), Fraction(yn, yd)) for (xn, xd), (yn, yd) in rec["vertices"])
        (c0n, c0d), (cxn, cxd), (cyn, cyd) = rec["coeffs"]
        patches.append(AffinePatch(verts, Fraction(c0n, c0d), Fraction(cxn, cxd), Fraction(cyn, cyd)))
    return PiecewiseAffineField(tuple(patches))


def patch_from_vertex_values(p1, v1, p2, v2, p3, v3) -> AffinePatch:
    """Affine patch on a triangle interpolating three vertex values."""
    x1, y1 = p1
    x2, y2 = p2
    x3, y3 = p3
    det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    if det == 0:
        raise ValueError("degenerate triangle")
    v1, v2, v3 = Fraction(v1), Fraction(v2), Fraction(v3)
    cx = ((v2 - v1) * (y3 - y1) - (v3 - v1) * (y2 - y1)) / det
    cy = ((v3 - v1) * (x2 - x1) - (v2 - v1) * (x3 - x1)) / det
    c0 = v1 - cx * x1 - cy * y1
    return make_patch((p1, p2, p3), c0, cx, cy)


def vector_field_to_json(v) -> dict:
    """Wire format for vector fields: two coefficient triples per piece.

    Constant pieces serialize the pair as degenerate triples; product pieces
    keep the scalar factor in the first triple and the direction in the
    second.
    """
    def frac(x):
        x = Fraction(x)
        return [x.numerator, x.denominator]

    def verts(region):
        return [[frac(p[0]), frac(p[1])] for p in region]

    if isinstance(v, PCVectorField):
        return {"kind": "constant", "pieces": [
            {"vertices": verts(r), "coeffs": [[frac(px), frac(0), frac(0)],
                                              [frac(py), frac(0), frac(0)]]}
            for (r, px, py) in v.pieces]}
    if isinstance(v, ProductVectorField):
        return {"kind": "product", "pieces": [
            {"vertices": verts(r),
             "coeffs": [[frac(h0), frac(hx), frac(hy)],
                        [frac(px), frac(py), frac(0)]]}
            for (r, (h0, hx, hy), (px, py)) in v.pieces]}
    raise TypeError(f"cannot serialize {type(v).__name__}")
