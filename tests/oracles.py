"""The generic refinement calculus the tests hold the verifier to.

``verify`` reads every integral off one tagged stage partition.  This module
recomputes the same quantities the general way, through common refinements
of the fields' partitions (``carpetcurl.fields.refine_pairs``): piecewise
constant and product vector fields, energies and squared L2 norms, one- and
two-forms with their exact inner products, the tent cover and the witness
defects.  Identities that hold pointwise (Leibniz rule, alternation, the
vanishing of the second wedge defect) come out as exact zeros.  The polygon
and polynomial helpers it needs beyond ``carpetcurl.geometry`` (point
containment, the corner-evaluation square classifier ``crossing``, box
clipping, moments keyed by monomial, and the dict polynomials {(p, q):
coefficient} with their products, sums and scaling) live here too; the dict product is also the oracle of
``geometry.square_integral``.  So do the queries ``verify`` never
makes: carpet membership by descent (``contains``, ``strictly_inside_hole``,
``meets_closed_hole``), the surviving-square count ``square_count``, a
field's value at a point (``value_at``) and its max of |value| over the
patch vertices (``sup_norm``).

The piecewise-affine field layer the package no longer carries lives here
first: ``AffinePatch`` and ``PiecewiseAffineField`` with the constructors
``constant_field``, ``coordinate_field`` and ``affine_field`` (the field of
a target triple (c0, cx, cy) the package takes), and the readers of the
stage's int tuples, ``flattened_field`` (each c0 over L_n as a
``Fraction``) and ``staircase_field`` (the bands of ``build_staircase``).

The oracles work in unit coordinates: a stage field's int vertices are
divided by its scale on the way in (``in_unit``), a cell field's int maps
and a package product field's read as Fractions there (``fraction_field``,
``fraction_map``; the Fraction products are ``FractionProductField``s),
and a rational region is
put on its own integer lattice (``on_lattice``) for ``Prefractal``, which
takes canonical regions only (``normalize_polygon`` gives one).  The
rational polygon layer the package no longer carries lives here as well:
the lcm lattice of a polygon (``on_lattice``), its doubled area taken there
(``polygon_area2``), the canonical form ``normalize_polygon`` and the
checked patch constructor ``make_patch``, and the closed box query
``touching`` that ``continuity_defects`` runs on a ``_BoxIndex``.  The
``Fraction`` stage construction the package replaced by the int one is kept
at the end (``fraction_cells``, ``fraction_tents``, ``fraction_layout``,
``fraction_neighborhoods``) as the oracle of the stage lattice, and the
``Fraction`` rows the package replaced by int sums after it: the moments
of ``Prefractal.moments`` read as Fractions (``fraction_moments``), the
kernels ``fraction_poly_dot`` and ``fraction_square_integral``, the
``Fraction`` cell field ``fraction_cell_field`` (with ``int_slopes``, which
puts rational slopes over one denominator for ``build_cell_field``), the ramp
with the target evaluated at Fraction cell centres (``fraction_ramp``) and
the per-patch row loops of both sections (``fraction_witness_rows``,
``fraction_wedge_rows``).  Last comes the oracle of every region's moments,
the hole complement: P_m is the unit square less the disjoint open holes of
levels 1..m, so ``hole_moments`` takes the region's moments less those of
each hole that meets it, one box clip a hole, found through a per-level
index of ``carpet.enumerate_holes``.  It shares no step with
``Prefractal``'s walk, class key, shapes or cut squares, and
``same_moments`` compares its moments with those of ``Prefractal.moments``
by cross-multiplying.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import lcm
from typing import Optional

from carpetcurl.carpet import (
    CarpetSpec,
    ConstructionError,
    OutOfUnitSquare,
    Prefractal,
    enumerate_holes,
    gap_height,
    side_length,
    stage_scale,
)
from carpetcurl.fields import ProductVectorField, _BoxIndex, refine_pairs
from carpetcurl.geometry import (
    MOMENT_DIVISORS,
    MONOMIALS,
    ZERO,
    _area2,
    bbox,
    clip_halfplane,
    cross,
    moment_sums,
    polygon_area,
    strictly_convex,
)
from carpetcurl.witness import (
    CellField,
    CellNeighborhood,
    FlattenedField,
    build_cell_field,
    build_flattened,
    build_ramp,
    build_staircase,
    build_tents,
    per_tent_bound,
    tent_field_bound,
)

ONE = Fraction(1)


# --- piecewise-affine fields ------------------------------------------------


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

    Vertices are over ``scale``; maps are in unit coordinates.  Patches may
    cover less than the unit square; integration treats the complement as
    zero, so fields supported on small regions (tent covers, seams) need no
    complement patches.
    """

    patches: tuple
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
    """The target c0 + cx*x + cy*y as one patch on the unit square: the field
    of the triple (c0, cx, cy) the package takes."""
    unit = ((0, 0), (1, 0), (1, 1), (0, 1))
    return PiecewiseAffineField((AffinePatch(unit, Fraction(c0), Fraction(cx), Fraction(cy)),), 1)


def flattened_field(flat: FlattenedField) -> PiecewiseAffineField:
    """A flattened field's int patches (vertices, c0, cx, cy) as affine
    patches on its lattice, each c0 read as ``Fraction(c0, scale)``."""
    s = flat.scale
    return PiecewiseAffineField(tuple(AffinePatch(verts, Fraction(c0, s), cx, cy)
                                      for verts, c0, cx, cy in flat.patches), s)


def staircase_field(spec: CarpetSpec, n: int) -> PiecewiseAffineField:
    """The staircase of ``witness.build_staircase`` as a field on the stage-n
    lattice: each int band (y0, y1, value, slope) the full-width rectangle
    carrying the map (value - slope*y0) / L_n + slope*y."""
    scale, bands = build_staircase(spec, n)
    return PiecewiseAffineField(tuple(
        AffinePatch(((0, y0), (scale, y0), (scale, y1), (0, y1)),
                    Fraction(value - slope * y0, scale), ZERO, Fraction(slope))
        for y0, y1, value, slope in bands), scale)


# the scalar fields the refinement calculus reads; a flattened field is
# read through ``flattened_field``
SCALAR_FIELDS = (PiecewiseAffineField, FlattenedField)


# --- lattices -------------------------------------------------------------


def on_lattice(region):
    """(int vertices, scale) of a rational polygon on its own lattice, whose
    scale is the lcm of the vertex denominators: the form
    ``Prefractal.moments`` takes."""
    scale = lcm(*{v.denominator for p in region for v in p})
    return tuple((x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
                 for x, y in region), scale


def polygon_area2(poly) -> Fraction:
    """Twice the signed area of a rational polygon, taken on its lattice."""
    pts, scale = on_lattice(poly)
    return Fraction(_area2(pts), scale * scale)


def _normalize(points):
    """Canonical vertices of a polygon, their lattice points and the lattice scale.

    Returns (the given vertices as Fractions at the kept indices, the same
    vertices on the polygon's integer lattice, its scale).
    """
    raw = [(Fraction(x), Fraction(y)) for x, y in points]
    pts, scale = on_lattice(raw)
    order = list(range(len(pts)))
    if _area2(pts) < 0:
        order.reverse()
    # one copy of each run of repeated vertices, then no collinear interior vertex
    order = [i for k, i in enumerate(order) if pts[i] != pts[order[k - 1]]]
    ring = [pts[i] for i in order]
    keep = []
    for k, cur in enumerate(ring):
        prev, nxt = ring[k - 1], ring[(k + 1) % len(ring)]
        if not (cross(prev, cur, nxt) == 0 and (cur[0] - prev[0]) * (nxt[0] - cur[0]) >= 0
                and (cur[1] - prev[1]) * (nxt[1] - cur[1]) >= 0):
            keep.append(order[k])
    return tuple(raw[i] for i in keep), [pts[i] for i in keep], scale


def normalize_polygon(points) -> tuple:
    """Canonical form: Fractions, no repeated/collinear vertices, CCW order."""
    return _normalize(points)[0]


def make_patch(vertices, c0, cx=0, cy=0) -> AffinePatch:
    """An affine patch on the canonical form of a rational convex polygon."""
    verts, pts, _ = _normalize(vertices)
    if len(verts) < 3:
        raise ValueError("degenerate patch")
    if not strictly_convex(pts):
        raise ValueError("patches must be convex")
    return AffinePatch(verts, Fraction(c0), Fraction(cx), Fraction(cy))


def unit_polygon(verts, scale):
    """The points of a polygon over ``scale`` as Fraction pairs."""
    return tuple((Fraction(x, scale), Fraction(y, scale)) for x, y in verts)


def fraction_map(c0, cx, cy, d):
    """The int map (c0 + cx*x + cy*y) / d of a cell-field piece or a product
    piece's scalar factor, as its three ``Fraction`` coefficients."""
    return Fraction(c0, d), Fraction(cx, d), Fraction(cy, d)


def fraction_field(field: CellField) -> PiecewiseAffineField:
    """A cell field's pieces as ``AffinePatch``es with ``Fraction`` maps, on
    the field's lattice: the form the refinement calculus reads."""
    return PiecewiseAffineField(tuple(AffinePatch(verts, *fraction_map(*m))
                                      for (verts, _), m in zip(field.flattened.pieces, field.maps,
                                                               strict=True)),
                                field.flattened.scale)


@dataclass(frozen=True)
class FractionProductField:
    """A product vector field in unit coordinates with ``Fraction`` maps:
    pieces (vertices, (h0, hx, hy), (px, py)), the field h * (px, py)."""

    pieces: tuple
    scale: int = 1


def in_unit(obj):
    """A field or product vector field at scale 1, its vertices and maps as
    Fractions: a cell field through ``fraction_field``, a flattened field
    through ``flattened_field``, a package product field's int maps through
    ``fraction_map``."""
    if isinstance(obj, CellField):
        obj = fraction_field(obj)
    if isinstance(obj, FlattenedField):
        obj = flattened_field(obj)
    if isinstance(obj, ProductVectorField):
        s = obj.scale
        return FractionProductField(tuple((unit_polygon(v, s), fraction_map(*h), w)
                                          for v, h, w in obj.pieces))
    s = obj.scale
    if s == 1:
        return obj
    return PiecewiseAffineField(tuple(AffinePatch(unit_polygon(p.vertices, s), p.c0, p.cx, p.cy)
                                      for p in obj.patches), 1)


def unit_integral(pf, region, poly):
    """``Prefractal.integrate`` over a rational region."""
    return pf.integrate(*on_lattice(region), poly)


def unit_measure(pf, region):
    """``Prefractal.region_measure`` of a rational region."""
    return pf.region_measure(*on_lattice(region))


# --- carpet membership ----------------------------------------------------


def square_count(spec: CarpetSpec, m: int) -> int:
    """The number of surviving level-m squares: the product of q_i^2 - 1."""
    out = 1
    for i in range(1, m + 1):
        out *= spec.subdivisions(i) ** 2 - 1
    return out


def contains(pf: Prefractal, p, up_to_stage: Optional[int] = None) -> bool:
    """True when p lies in the prefractal, holes up to ``up_to_stage`` removed."""
    return not strictly_inside_hole(pf, p, up_to_stage)


def strictly_inside_hole(pf: Prefractal, p, up_to_stage: Optional[int] = None) -> bool:
    """True when p lies in the open interior of a removed square."""
    return _hole_test(pf, p, up_to_stage, closed=False)


def meets_closed_hole(pf: Prefractal, p, up_to_stage: Optional[int] = None) -> bool:
    """True when p lies in the closure of a removed square."""
    return _hole_test(pf, p, up_to_stage, closed=True)


def _hole_test(pf, p, up_to_stage, closed: bool) -> bool:
    # descend the subdivision tree of the level-m prefractal to the square
    # holding p, one stage at a time
    cap = pf.level if up_to_stage is None else min(up_to_stage, pf.level)
    x, y = Fraction(p[0]), Fraction(p[1])
    if not (0 <= x <= 1 and 0 <= y <= 1):
        raise OutOfUnitSquare(f"point {p} outside the unit square")
    x0 = y0 = ZERO
    for k in range(cap):
        q = pf.spec.subdivisions(k + 1)
        d = side_length(pf.spec, k + 1)
        c = (q - 1) // 2
        jx, rx = divmod(x - x0, d)
        jy, ry = divmod(y - y0, d)
        if closed:
            # candidate children whose closed square contains the point
            cands_x = {int(jx)} | ({int(jx) - 1} if rx == 0 and jx > 0 else set())
            cands_y = {int(jy)} | ({int(jy) - 1} if ry == 0 and jy > 0 else set())
            cands_x = {j for j in cands_x if 0 <= j < q}
            cands_y = {j for j in cands_y if 0 <= j < q}
            if c in cands_x and c in cands_y:
                return True
        if rx == 0 or ry == 0:
            # on the level-(k+1) lattice inside this square; holes of
            # later stages stay strictly inside their parent square
            return False
        jx, jy = int(jx), int(jy)
        if jx == c and jy == c:
            return True
        x0 += jx * d
        y0 += jy * d
    return False


# --- polygons and polynomials ---------------------------------------------


def point_in_convex(poly, p) -> bool:
    """Closed containment test for a CCW convex polygon."""
    n = len(poly)
    for i in range(n):
        if cross(poly[i], poly[(i + 1) % n], p) < 0:
            return False
    return True


def crossing(among, x0, y0, d):
    """The planes (a, b, c), meaning a*x + b*y >= c, among ``among`` that
    cross the square of side d at (x0, y0), in order, or None when one of
    them holds nowhere on it; every other plane holds on all of the square.
    A plane crosses when some corner value is < 0 and some is >= 0: a
    corner on the line counts as inside.  The corner-evaluation reference
    of the walk's row classifier ``carpet._row_ranges``."""
    x1, y1 = x0 + d, y0 + d
    out = []
    for plane in among:
        a, b, c = plane
        values = [a * x + b * y - c for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))]
        if max(values) < 0:
            return None
        if min(values) < 0:
            out.append(plane)
    return out


def clip_to_box(poly, x0, y0, x1, y1):
    """Intersection of a polygon with an axis-aligned box; on int vertices
    and bounds a crossing between lattice points is the one ``Fraction``."""
    for a, b, c in ((-1, 0, -x0), (1, 0, x1), (0, -1, -y0), (0, 1, y1)):
        poly = clip_halfplane(poly, a, b, c)
    return poly


def patch_from_vertex_values(triangle, v1, v2, v3) -> AffinePatch:
    """Affine patch on a triangle, kept as its vertices, interpolating three vertex values.

    The 3x3 solve by Cramer's rule; the oracle of the closed-form seams of
    ``witness.build_cell_field``.
    """
    (x1, y1), (x2, y2), (x3, y3) = triangle
    det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    if det == 0:
        raise ValueError("degenerate triangle")
    v1, v2, v3 = Fraction(v1), Fraction(v2), Fraction(v3)
    cx = ((v2 - v1) * (y3 - y1) - (v3 - v1) * (y2 - y1)) / det
    cy = ((v3 - v1) * (x2 - x1) - (v2 - v1) * (x3 - x1)) / det
    c0 = v1 - cx * x1 - cy * y1
    return make_patch(triangle, c0, cx, cy)


def polygon_moments(poly):
    """Exact moments of the MONOMIALS over a CCW polygon, keyed by (p, q)."""
    return {key: Fraction(s, div)
            for key, s, div in zip(MONOMIALS, moment_sums(poly), MOMENT_DIVISORS)}


def poly_mul(f, g):
    out = {}
    for (p1, q1), c1 in f.items():
        if c1 == 0:
            continue
        for (p2, q2), c2 in g.items():
            if c2 == 0:
                continue
            p, q = p1 + p2, q1 + q2
            if p + q > 2:
                raise ValueError(f"integrand degree {p + q} exceeds supported degree 2")
            key = (p, q)
            out[key] = out.get(key, ZERO) + c1 * c2
    return out


def affine_poly(c0, cx, cy):
    return {(0, 0): Fraction(c0), (1, 0): Fraction(cx), (0, 1): Fraction(cy)}


def value_poly(patch: AffinePatch):
    """The patch's affine map as a dict polynomial."""
    return affine_poly(patch.c0, patch.cx, patch.cy)


def poly_add(f, g):
    out = dict(f)
    for k, v in g.items():
        out[k] = out.get(k, ZERO) + v
    return out


def poly_scale(f, s):
    return {k: v * s for k, v in f.items()}


# --- fields ---------------------------------------------------------------


class SupportMismatch(ValueError):
    pass


def sup_norm(field: PiecewiseAffineField) -> Fraction:
    """Max of |value| over patch vertices; affine maps peak at vertices.

    A constant patch's value is its c0, and each value is compared against
    the best so far and its negative, so only a new best is negated.
    """
    s = field.scale
    best = neg = ZERO
    for p in field.patches:
        c0, cx, cy = p.c0, p.cx, p.cy
        for x, y in p.vertices:
            v = c0 + (cx * x + cy * y) / s if cx or cy else c0
            if v > best or v < neg:
                best = v if v > 0 else -v
                neg = -best
    return best


def value_at(field: PiecewiseAffineField, p) -> Optional[Fraction]:
    """The field's value at the unit-coordinate point p, or None off its patches."""
    s = field.scale
    for patch in field.patches:
        if point_in_convex(patch.vertices, (p[0] * s, p[1] * s)):
            return patch.value_at(p)
    return None


@dataclass(frozen=True)
class PCVectorField:
    """Per-patch constant vector field: pieces (vertices, px, py)."""

    pieces: tuple


@dataclass(frozen=True)
class PCScalarField:
    """Per-patch constant scalar: pieces (vertices, value)."""

    pieces: tuple


def touching(index: _BoxIndex, box):
    """The indices, ascending, of the boxes of ``index`` that meet ``box``,
    along an edge or at a corner included: the closed overlap test, on the
    cells ``_BoxIndex.candidates`` reads."""
    qx0, qy0, qx1, qy1 = box
    return [i for i in index._near(box)
            for x0, y0, x1, y1 in [index.boxes[i]]
            if x0 <= qx1 and qx0 <= x1 and y0 <= qy1 and qy0 <= y1]


def continuity_defects(field: PiecewiseAffineField, prefractal: Optional[Prefractal] = None,
                       hole_stage: Optional[int] = None):
    """Pairs of patches disagreeing along a shared edge segment.

    When a prefractal is given, shared segments whose midpoint lies in
    the closure of a removed hole (up to ``hole_stage``) are exempt: the
    field is free there, only its restriction off the holes matters.
    """
    field = in_unit(field)
    defects = []
    index = _BoxIndex(field.patches, key=lambda p: bbox(p.vertices))
    for i, a in enumerate(field.patches):
        for j in touching(index, bbox(a.vertices)):
            if j <= i:
                continue
            b = field.patches[j]
            for (p1, p2) in _shared_segments(a.vertices, b.vertices):
                mid = ((p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2)
                if prefractal is not None and meets_closed_hole(prefractal, mid, hole_stage):
                    continue
                for q in (p1, p2, mid):
                    if a.value_at(q) != b.value_at(q):
                        defects.append((i, j, q))
                        break
    return defects


def _shared_segments(poly_a, poly_b):
    """Positive-length overlaps of collinear boundary edges of two polygons."""
    na, nb = len(poly_a), len(poly_b)
    out = []
    for i in range(na):
        p1, p2 = poly_a[i], poly_a[(i + 1) % na]
        for j in range(nb):
            q1, q2 = poly_b[j], poly_b[(j + 1) % nb]
            # collinearity of the two edges
            if cross(p1, p2, q1) != 0 or cross(p1, p2, q2) != 0:
                continue
            dx, dy = p2[0] - p1[0], p2[1] - p1[1]
            den = dx * dx + dy * dy
            if den == 0:
                continue

            def t_of(pt):
                return ((pt[0] - p1[0]) * dx + (pt[1] - p1[1]) * dy) / den

            t1, t2 = t_of(q1), t_of(q2)
            lo, hi = max(ZERO, min(t1, t2)), min(ONE, max(t1, t2))
            if lo >= hi:
                continue
            out.append(((p1[0] + lo * dx, p1[1] + lo * dy), (p1[0] + hi * dx, p1[1] + hi * dy)))
    return out


def gradient(field: PiecewiseAffineField) -> PCVectorField:
    """Per-patch gradient; constant on every patch of an affine field."""
    return PCVectorField(tuple((p.vertices, p.cx, p.cy) for p in in_unit(field).patches))


def curl(v: FractionProductField) -> PCScalarField:
    """Patchwise rotation of h*w with h affine and w constant per piece.

    With v = h*(p, q) the rotation d(v2)/dx - d(v1)/dy equals hx*q - hy*p on
    each piece; the constant part w contributes nothing patchwise.
    """
    return PCScalarField(tuple(
        (verts, hc[1] * w[1] - hc[2] * w[0]) for (verts, hc, w) in v.pieces
    ))


def overlay(a, b):
    """Common refinement of two partitions covering the same support.

    Accepts fields or raw region lists; returns (region, ia, ib) triples.
    Raises SupportMismatch when the two total areas differ, and checks that
    the refinement preserves area exactly.
    """
    def regions(x):
        if isinstance(x, SCALAR_FIELDS):
            return [p.vertices for p in in_unit(x).patches]
        return [normalize_polygon(r) for r in x]

    regions_a, regions_b = regions(a), regions(b)
    area_a = sum((polygon_area(r) for r in regions_a), ZERO)
    area_b = sum((polygon_area(r) for r in regions_b), ZERO)
    if area_a != area_b:
        raise SupportMismatch(f"supports differ: {area_a} vs {area_b}")
    pieces = refine_pairs(regions_a, regions_b)
    refined_area = sum((polygon_area(r) for r, _, _ in pieces), ZERO)
    if refined_area != area_a:
        raise SupportMismatch("refinement lost area; partitions do not cover the same support")
    return pieces


def dirichlet_energy(field: PiecewiseAffineField, prefractal: Prefractal):
    """Sum over patches of |gradient|^2 times the prefractal measure."""
    total = ZERO
    for p in in_unit(field).patches:
        g2 = p.cx * p.cx + p.cy * p.cy
        if g2 == 0:
            continue
        total += g2 * unit_measure(prefractal, p.vertices)
    return total


def l2_norm_sq(obj, prefractal: Prefractal):
    """Exact squared L2 norm over the prefractal for any supported field kind."""
    total = ZERO
    if isinstance(obj, SCALAR_FIELDS + (CellField, ProductVectorField)):
        obj = in_unit(obj)
    if isinstance(obj, PiecewiseAffineField):
        for p in obj.patches:
            ipoly = poly_mul(value_poly(p), value_poly(p))
            total += unit_integral(prefractal, p.vertices, ipoly)
    elif isinstance(obj, PCVectorField):
        for (verts, px, py) in obj.pieces:
            v2 = px * px + py * py
            if v2 == 0:
                continue
            total += v2 * unit_measure(prefractal, verts)
    elif isinstance(obj, PCScalarField):
        for (verts, val) in obj.pieces:
            if val == 0:
                continue
            total += val * val * unit_measure(prefractal, verts)
    elif isinstance(obj, FractionProductField):
        for (verts, (h0, hx, hy), (px, py)) in obj.pieces:
            v2 = px * px + py * py
            if v2 == 0:
                continue
            h = affine_poly(h0, hx, hy)
            total += unit_integral(prefractal, verts, poly_scale(poly_mul(h, h), v2))
    else:
        raise TypeError(f"cannot integrate {type(obj).__name__}")
    return total


def product_with_gradient(h, g: PiecewiseAffineField) -> FractionProductField:
    """The vector field h * grad(g) on the common refinement, at scale 1."""
    h, g = in_unit(h), in_unit(g)
    pieces = []
    for region, ih, ig in refine_pairs([p.vertices for p in h.patches],
                                       [p.vertices for p in g.patches]):
        ph, pg = h.patches[ih], g.patches[ig]
        if pg.cx == 0 and pg.cy == 0:
            continue
        pieces.append((region, (ph.c0, ph.cx, ph.cy), (pg.cx, pg.cy)))
    return FractionProductField(tuple(pieces))


def _frac(x):
    x = Fraction(x)
    return [x.numerator, x.denominator]


def _verts(region):
    return [[_frac(p[0]), _frac(p[1])] for p in region]


def field_to_json(field: PiecewiseAffineField) -> dict:
    field = in_unit(field)
    return {"patches": [{"vertices": _verts(p.vertices),
                         "coeffs": [_frac(p.c0), _frac(p.cx), _frac(p.cy)]}
                        for p in field.patches]}


def field_from_json(data: dict) -> PiecewiseAffineField:
    patches = []
    for rec in data["patches"]:
        verts = tuple((Fraction(xn, xd), Fraction(yn, yd)) for (xn, xd), (yn, yd) in rec["vertices"])
        (c0n, c0d), (cxn, cxd), (cyn, cyd) = rec["coeffs"]
        patches.append(AffinePatch(verts, Fraction(c0n, c0d), Fraction(cxn, cxd), Fraction(cyn, cyd)))
    return PiecewiseAffineField(tuple(patches), 1)


def vector_field_to_json(v) -> dict:
    """Wire format for vector fields: two coefficient triples per piece.

    Constant pieces serialize the pair as degenerate triples; product pieces
    keep the scalar factor in the first triple and the direction in the
    second.
    """
    if isinstance(v, PCVectorField):
        return {"kind": "constant", "pieces": [
            {"vertices": _verts(r), "coeffs": [[_frac(px), _frac(0), _frac(0)],
                                               [_frac(py), _frac(0), _frac(0)]]}
            for (r, px, py) in v.pieces]}
    if isinstance(v, (ProductVectorField, FractionProductField)):
        v = in_unit(v)
        return {"kind": "product", "pieces": [
            {"vertices": _verts(r),
             "coeffs": [[_frac(h0), _frac(hx), _frac(hy)],
                        [_frac(px), _frac(py), _frac(0)]]}
            for (r, (h0, hx, hy), (px, py)) in v.pieces]}
    raise TypeError(f"cannot serialize {type(v).__name__}")


# --- forms ----------------------------------------------------------------


@dataclass(frozen=True)
class ProductField:
    """Product of two piecewise-affine fields, kept in factored form.

    Values are quadratic per refined patch; gradients are affine, which is
    exactly what the inner products below need.
    """

    u: PiecewiseAffineField
    v: PiecewiseAffineField

    def atoms(self):
        regions = []
        data = []
        u, v = in_unit(self.u), in_unit(self.v)
        for region, iu, iv in refine_pairs([p.vertices for p in u.patches],
                                           [p.vertices for p in v.patches]):
            pu = u.patches[iu]
            pv = v.patches[iv]
            upoly = value_poly(pu)
            vpoly = value_poly(pv)
            value = poly_mul(upoly, vpoly)
            gx = poly_add(poly_scale(upoly, pv.cx), poly_scale(vpoly, pu.cx))
            gy = poly_add(poly_scale(upoly, pv.cy), poly_scale(vpoly, pu.cy))
            regions.append(region)
            data.append((value, gx, gy))
        return regions, data


def _field_atoms(obj):
    """Uniform atom view: (regions, [(value_poly, gx_poly, gy_poly)])."""
    if isinstance(obj, SCALAR_FIELDS):
        obj = in_unit(obj)
        regions = [p.vertices for p in obj.patches]
        data = [(value_poly(p), {(0, 0): p.cx}, {(0, 0): p.cy}) for p in obj.patches]
        return regions, data
    if isinstance(obj, ProductField):
        return obj.atoms()
    raise TypeError(f"unsupported field object {type(obj).__name__}")


@dataclass(frozen=True)
class OneForm:
    """Finite sum of weight * coefficient * d(field) terms."""

    terms: tuple  # (weight, coeff_obj, diff_obj)

    def __add__(self, other):
        return OneForm(self.terms + other.terms)

    def __neg__(self):
        return OneForm(tuple((-w, c, d) for (w, c, d) in self.terms))

    def __sub__(self, other):
        return self + (-other)


@dataclass(frozen=True)
class TwoForm:
    """Finite sum of weight * coefficient * d(first) wedge d(second) terms."""

    terms: tuple  # (weight, coeff_obj, diff1_obj, diff2_obj)

    def __add__(self, other):
        return TwoForm(self.terms + other.terms)

    def __neg__(self):
        return TwoForm(tuple((-w, h, f, g) for (w, h, f, g) in self.terms))

    def __sub__(self, other):
        return self + (-other)


def d0(f) -> OneForm:
    """Derivation taking a function to a one-form with unit coefficient."""
    return OneForm(((ONE, constant_field(1), f),))


def d1(omega: OneForm) -> TwoForm:
    """Exterior derivative of a sum of g*d(f) terms: sum of d(g) wedge d(f)."""
    return TwoForm(tuple((w, constant_field(1), coeff, diff) for (w, coeff, diff) in omega.terms))


def wedge(a: OneForm, b: OneForm) -> TwoForm:
    """Pointwise exterior product of two one-forms."""
    return TwoForm(tuple((w1 * w2, _product_or_field(c1, c2), f1, f2)
                         for (w1, c1, f1) in a.terms for (w2, c2, f2) in b.terms))


def multiply(h, omega: OneForm) -> OneForm:
    """Function action on a one-form, multiplying the coefficients."""
    return OneForm(tuple((w, _product_or_field(h, c), d) for (w, c, d) in omega.terms))


def multiply_two(h, xi: TwoForm) -> TwoForm:
    """Function action on a two-form; left and right actions agree."""
    return TwoForm(tuple((w, _product_or_field(h, c), f, g) for (w, c, f, g) in xi.terms))


def _is_const_one(obj) -> bool:
    return (isinstance(obj, PiecewiseAffineField) and len(obj.patches) == 1
            and obj.patches[0].cx == 0 and obj.patches[0].cy == 0
            and obj.patches[0].c0 == 1)


def _product_or_field(a, b):
    if _is_const_one(a):
        return b
    if _is_const_one(b):
        return a
    if isinstance(a, SCALAR_FIELDS) and isinstance(b, SCALAR_FIELDS):
        return ProductField(a, b)
    raise TypeError("cannot multiply nested products; expand terms instead")


def _common_refinement(partitions):
    """Regions of the common refinement with patch indices per partition."""
    if not partitions:
        return []
    current = [(r, (i,)) for i, r in enumerate(partitions[0])]
    for part in partitions[1:]:
        current = [(piece, current[i][1] + (j,))
                   for piece, i, j in refine_pairs([r for r, _ in current], part)]
    return current


class _AtomTable:
    """Deduplicated partitions and per-term atom lookups for inner products."""

    def __init__(self):
        self.partitions = []
        self.data = []
        self.by_id = {}

    def register(self, obj):
        key = id(obj)
        if key not in self.by_id:
            regions, data = _field_atoms(obj)
            self.by_id[key] = len(self.partitions)
            self.partitions.append(regions)
            self.data.append(data)
        return self.by_id[key]


def inner_one(a: OneForm, b: OneForm, pf: Prefractal):
    """Inner product of one-forms: integral of c1*c2*grad(f1).grad(f2)."""
    table = _AtomTable()
    ta = [(w, table.register(c), table.register(d)) for (w, c, d) in a.terms]
    tb = [(w, table.register(c), table.register(d)) for (w, c, d) in b.terms]
    total = ZERO
    for region, idx in _common_refinement(table.partitions):
        integrand = {}
        for (w1, c1, d1) in ta:
            v1, gx1, gy1 = _atom(table, c1, d1, idx)
            for (w2, c2, d2) in tb:
                v2, gx2, gy2 = _atom(table, c2, d2, idx)
                gamma_poly = poly_add(poly_mul(gx1, gx2), poly_mul(gy1, gy2))
                piece = poly_mul(poly_mul(v1, v2), gamma_poly)
                integrand = poly_add(integrand, poly_scale(piece, w1 * w2))
        if any(v != 0 for v in integrand.values()):
            total += unit_integral(pf, region, integrand)
    return total


def _atom(table, c_part, d_part, idx):
    vpoly = table.data[c_part][idx[c_part]][0]
    _, gx, gy = table.data[d_part][idx[d_part]]
    return vpoly, gx, gy


def norm_sq_one(a: OneForm, pf: Prefractal):
    return inner_one(a, a, pf)


def inner_two(a: TwoForm, b: TwoForm, pf: Prefractal):
    """Inner product of two-forms via the gradient Gram determinant."""
    table = _AtomTable()
    ta = [(w, table.register(h), table.register(f), table.register(g))
          for (w, h, f, g) in a.terms]
    tb = [(w, table.register(h), table.register(f), table.register(g))
          for (w, h, f, g) in b.terms]
    total = ZERO
    for region, idx in _common_refinement(table.partitions):
        integrand = {}
        for (w1, h1, f1, g1) in ta:
            hv1 = table.data[h1][idx[h1]][0]
            _, fx1, fy1 = table.data[f1][idx[f1]]
            _, gx1, gy1 = table.data[g1][idx[g1]]
            for (w2, h2, f2, g2) in tb:
                hv2 = table.data[h2][idx[h2]][0]
                _, fx2, fy2 = table.data[f2][idx[f2]]
                _, gx2, gy2 = table.data[g2][idx[g2]]
                gff = poly_add(poly_mul(fx1, fx2), poly_mul(fy1, fy2))
                ggg = poly_add(poly_mul(gx1, gx2), poly_mul(gy1, gy2))
                gfg = poly_add(poly_mul(fx1, gx2), poly_mul(fy1, gy2))
                ggf = poly_add(poly_mul(gx1, fx2), poly_mul(gy1, fy2))
                det = poly_add(poly_mul(gff, ggg), poly_scale(poly_mul(gfg, ggf), -1))
                piece = poly_mul(poly_mul(hv1, hv2), det)
                integrand = poly_add(integrand, poly_scale(piece, w1 * w2))
        if any(v != 0 for v in integrand.values()):
            total += unit_integral(pf, region, integrand)
    return total


def norm_sq_two(a: TwoForm, pf: Prefractal):
    return inner_two(a, a, pf)


@dataclass(frozen=True)
class GammaDensity:
    """Pointwise gradient product of two fields on their common refinement."""

    density: PCScalarField
    essential_sup: Fraction


def gamma(f: PiecewiseAffineField, g: PiecewiseAffineField, pf: Prefractal) -> GammaDensity:
    f, g = in_unit(f), in_unit(g)
    pieces = []
    ess = ZERO
    for region, i, j in refine_pairs([p.vertices for p in f.patches],
                                     [p.vertices for p in g.patches]):
        pf_, pg_ = f.patches[i], g.patches[j]
        val = pf_.cx * pg_.cx + pf_.cy * pg_.cy
        pieces.append((region, val))
        if abs(val) > ess and unit_measure(pf, region) > 0:
            ess = abs(val)
    return GammaDensity(density=PCScalarField(tuple(pieces)), essential_sup=ess)


def build_cutoff_form(spec: CarpetSpec, n: int, f: PiecewiseAffineField,
                      flattened: Optional[FlattenedField] = None):
    """Stage-n one-form: the cutoff remainder of f times d(flattened coordinate).

    Returns (one_form, remainder_field), the remainder the package's
    ``CellField`` and the form's coefficient its ``fraction_field``.
    """
    if len(f.patches) != 1:
        raise ValueError("cutoff construction expects a globally affine target")
    if flattened is None:
        flattened = build_flattened(spec, n)
    remainder = build_cell_field(flattened, *int_slopes([f.patches[0].gradient]
                                                        * len(flattened.cells)))
    return OneForm(((ONE, fraction_field(remainder), flattened),)), remainder


def one_form_to_json(omega: OneForm) -> dict:
    """Terms wrapper around the scalar-field wire format."""
    def field_payload(obj):
        if isinstance(obj, ProductField):
            return {"product": [field_to_json(obj.u), field_to_json(obj.v)]}
        return field_to_json(obj)

    return {"terms": [
        {"weight": _frac(w),
         "coefficient": field_payload(c),
         "differential_of": field_payload(d)}
        for (w, c, d) in omega.terms]}


# --- witness --------------------------------------------------------------


def field_patches(tent, scale):
    """The tent's trapezoid and two side triangles as patches of its cover,
    in unit coordinates; ``scale`` is the lattice the tent is on."""
    s = tent.height  # the side slope: a tent is 4 lattice steps wide
    xl = Fraction(tent.column_x - 2, scale)
    xr = Fraction(tent.column_x + 2, scale)
    left, right = tent.triangles
    return (
        make_patch(unit_polygon(tent.trapezoid, scale), Fraction(-tent.y_lo, scale), 0, 1),
        make_patch(unit_polygon(left, scale), -s * xl, s, 0),
        make_patch(unit_polygon(right, scale), s * xr, -s, 0),
    )


def lambda_energy(tent, scale) -> Fraction:
    """The tent cover's energy over the full rectangle under plain area measure."""
    h, w = Fraction(tent.height, scale), Fraction(4, scale)
    return Fraction(3, 4) * h * w + 4 * h ** 3 / w


def build_tent_field(spec: CarpetSpec, n: int) -> PiecewiseAffineField:
    """The nonnegative tent cover, supported on the tent rectangles."""
    scale = stage_scale(spec, n)
    return PiecewiseAffineField(tuple(p for t in build_tents(spec, n)
                                      for p in field_patches(t, scale)), 1)


def build_witness(spec: CarpetSpec, n: int, f: tuple,
                  flattened=None, ramp=None) -> FractionProductField:
    """The stage-n witness vector field: ramp times flattened gradient, for
    the target triple ``f`` that ``build_ramp`` takes."""
    if flattened is None:
        flattened = build_flattened(spec, n)
    if ramp is None:
        ramp = build_ramp(flattened, f)
    return product_with_gradient(ramp, flattened)


def coordinate_minus(field) -> PiecewiseAffineField:
    """The field y - given(x, y) on the given field's partition."""
    if isinstance(field, FlattenedField):
        field = flattened_field(field)
    return PiecewiseAffineField(tuple(
        AffinePatch(p.vertices, -p.c0, -p.cx, 1 - p.cy) for p in field.patches), field.scale)


def vertical_defect_sq(flattened: FlattenedField, pf: Prefractal):
    """Integral of (d/dy flattened - 1)^2 over the prefractal."""
    pieces = tuple((p.vertices, p.cy - 1) for p in in_unit(flattened).patches)
    return l2_norm_sq(PCScalarField(pieces), pf)


def curl_defect_sq(ramp: CellField, flattened: FlattenedField, f: PiecewiseAffineField,
                   pf: Prefractal):
    """Squared L2 distance between the witness rotation and the target f.

    The rotation is ramp_x * flat_y - ramp_y * flat_x on every refined patch,
    including those where the flattened gradient vanishes.
    """
    ramp, flattened, f = in_unit(ramp), in_unit(flattened), in_unit(f)
    pieces = refine_pairs([p.vertices for p in ramp.patches],
                          [p.vertices for p in flattened.patches])
    total = ZERO
    for piece, k, jf in refine_pairs([region for region, _, _ in pieces],
                                     [p.vertices for p in f.patches]):
        _, ir, ig = pieces[k]
        pr = ramp.patches[ir]
        pg = flattened.patches[ig]
        c = pr.cx * pg.cy - pr.cy * pg.cx
        pf_patch = f.patches[jf]
        diff = {(0, 0): c - pf_patch.c0, (1, 0): -pf_patch.cx, (0, 1): -pf_patch.cy}
        total += unit_integral(pf, piece, poly_mul(diff, diff))
    return total


# --- the Fraction stage construction --------------------------------------


def _rectangle(x0, y0, x1, y1):
    return ((x0, y0), (x1, y0), (x1, y1), (x0, y1))


def fraction_cut_positions(spec: CarpetSpec, n: int) -> tuple:
    d_prev = side_length(spec, n - 1)
    count = int(1 / d_prev)
    return tuple((j + Fraction(1, 2)) * d_prev for j in range(count))


def fraction_column_obstacles(spec: CarpetSpec, n: int, x_cut: Fraction):
    """Holes met by the vertical line x = x_cut, sorted by height.

    Returns (y_lo, y_hi, stage) triples covering stage-n holes centered on the
    line plus any earlier-stage hole whose interior the line crosses.
    """
    obstacles = []

    def walk(k, x0, y0):
        d = side_length(spec, k)
        if not (x0 < x_cut < x0 + d):
            return
        if k == n - 1:
            c = (x0 + d / 2, y0 + d / 2)
            h = side_length(spec, n)
            obstacles.append((c[1] - h / 2, c[1] + h / 2, n))
            return
        q = spec.subdivisions(k + 1)
        dc = side_length(spec, k + 1)
        c = (q - 1) // 2
        jx = int((x_cut - x0) / dc)
        if jx >= q:
            jx = q - 1
        for jy in range(q):
            if jx == c and jy == c:
                lo = y0 + jy * dc
                obstacles.append((lo, lo + dc, k + 1))
                continue
            walk(k + 1, x0 + jx * dc, y0 + jy * dc)

    walk(0, ZERO, ZERO)
    obstacles.sort()
    return obstacles


@dataclass(frozen=True)
class FractionTent:
    """One tent over a vertical gap between obstacles in a cut column.

    The rectangle spans the full gap; the enclosed trapezoid rises with slope
    one from the full-width base at the bottom of the gap to the half-width
    top edge, and the two side triangles fall off linearly in x.  Gaps ending
    at a larger hole or at the square boundary are shorter than the template
    height and reuse the same shape scaled to the actual gap.  ``cut`` is the
    index of the column in ``fraction_cut_positions`` and ``row`` the cell
    row holding the gap, so the tent sits on the edge between cells ``cut``
    and ``cut + 1`` of that row.  The trapezoid, triangles and side slope are
    cached, so every patch built on them shares one tuple.
    """

    column_x: Fraction
    y_lo: Fraction
    y_hi: Fraction
    width: Fraction
    template_height: Fraction
    lower_kind: str
    upper_kind: str
    cut: int
    row: int

    @property
    def height(self) -> Fraction:
        return self.y_hi - self.y_lo

    @property
    def rectangle(self):
        w = self.width / 2
        return (self.column_x - w, self.y_lo, self.column_x + w, self.y_hi)

    @cached_property
    def trapezoid(self):
        w, q = self.width / 2, self.width / 4
        return ((self.column_x - w, self.y_lo), (self.column_x + w, self.y_lo),
                (self.column_x + q, self.y_hi), (self.column_x - q, self.y_hi))

    @cached_property
    def side_slope(self) -> Fraction:
        return 4 * self.height / self.width

    @cached_property
    def triangles(self):
        w, q = self.width / 2, self.width / 4
        left = ((self.column_x - w, self.y_lo), (self.column_x - q, self.y_hi),
                (self.column_x - w, self.y_hi))
        right = ((self.column_x + w, self.y_lo), (self.column_x + w, self.y_hi),
                 (self.column_x + q, self.y_hi))
        return (left, right)


def fraction_tents(spec: CarpetSpec, n: int):
    """All tents at stage n, ordered by column then height."""
    width = side_length(spec, n)
    template = gap_height(spec, n)
    cuts = fraction_cut_positions(spec, n)
    tents = []
    for cut, x_c in enumerate(cuts):
        obstacles = fraction_column_obstacles(spec, n, x_c)
        events = [(ZERO, ZERO, "boundary")] + \
                 [(lo, hi, "hole" if stage == n else "big") for (lo, hi, stage) in obstacles] + \
                 [(Fraction(1), Fraction(1), "boundary")]
        for (lo_a, hi_a, kind_a), (lo_b, hi_b, kind_b) in zip(events, events[1:]):
            if hi_a >= lo_b:
                raise ConstructionError(f"overlapping obstacles in column {x_c}")
            gap = lo_b - hi_a
            expected = template if kind_a == kind_b == "hole" else template / 2
            if gap != expected:
                raise ConstructionError(f"gap {gap} between {kind_a} and {kind_b} in "
                                        f"column {x_c} is not the expected {expected}")
            # every crossing of two cut lines lies inside a hole, so a gap
            # never touches a cut and the cuts below it count its row
            tents.append(FractionTent(column_x=x_c, y_lo=hi_a, y_hi=lo_b, width=width,
                              template_height=template, lower_kind=kind_a, upper_kind=kind_b,
                              cut=cut, row=bisect_right(cuts, hi_a)))
    return tents


def _fraction_tent_index(tents) -> dict:
    """(cut, row) -> the index in ``tents`` of the tent on that cell edge."""
    index = {(t.cut, t.row): k for k, t in enumerate(tents)}
    if len(index) != len(tents):
        raise ConstructionError("two tents on one cell edge")
    return index


def fraction_cells(spec: CarpetSpec, n: int):
    """The grid cells (x0, y0, x1, y1) between 0, the cuts and 1, row-major."""
    xs = (ZERO,) + fraction_cut_positions(spec, n) + (ONE,)
    return [(x0, y0, x1, y1) for y0, y1 in zip(xs, xs[1:]) for x0, x1 in zip(xs, xs[1:])]


def fraction_neighborhoods(spec: CarpetSpec, n: int, tents):
    """One CellNeighborhood per grid cell (strip rectangles and the trapezoids of ``tents``)."""
    cells = fraction_cells(spec, n)
    tent_at = _fraction_tent_index(tents)
    ncols = len(fraction_cut_positions(spec, n)) + 1
    half = side_length(spec, n) / 2
    out = []
    for idx, (x0, y0, x1, y1) in enumerate(cells):
        rects = tuple(_rectangle(x0, y - half, x1, y + half) for y in (y0, y1) if 0 < y < 1)
        # cut i - 1 is the cell's left edge, cut i its right edge
        row, i = divmod(idx, ncols)
        traps = tuple(tents[tent_at[edge]].trapezoid
                      for edge in ((i - 1, row), (i, row)) if edge in tent_at)
        out.append(CellNeighborhood(cell_index=idx, cell=(x0, y0, x1, y1),
                                    rectangles=rects, trapezoids=traps))
    return out


def fraction_layout(spec: CarpetSpec, n: int, tents):
    """The stage-n partition: each flattened patch with the cell pieces inside it.

    Walks the slab rows bottom to top, each left to right, and yields
    (part, vertices, (c0, cx, cy), pieces) per flattened patch, in
    ``build_flattened`` order.  The flattened coordinate is constant on the
    strip bands (part "band") and on the tent trapezoids, slanted on the
    tent side triangles (part k for the trapezoid and triangles of
    ``tents[k]``), and slope-one on the slab rectangles between tents and on
    the slab remainders below and above a truncated tent (part None).

    ``pieces`` are the ``build_cell_field`` pieces inside the patch, as
    (vertices, owner): ``owner`` is the index of the cell whose map a core or
    tent-side piece uses, or, for a seam triangle, the cells whose maps give
    the values at its three vertices.  Cell cores lie in their slab
    rectangle, a cell's side of a tent is the tent's triangle itself, each
    slab remainder splits at the cut between the two cells, and the seams
    cut the strip bands and the tent trapezoids into triangles.
    """
    cuts = fraction_cut_positions(spec, n)
    height = side_length(spec, n)
    half = height / 2
    one = Fraction(1)
    xs = (ZERO,) + cuts + (one,)
    ncols = len(xs) - 1
    # the cell edges moved half a strip inward (the unit square's own edges
    # stay): a tent or band on a cell edge ends the cell's core there, and
    # slab j = [inner_lo[j], inner_hi[j]] holds cell row j, band j above it
    inner_lo = [ZERO] + [x + half for x in cuts]
    inner_hi = [x - half for x in cuts] + [one]

    for t in tents:
        if not (0 <= t.row < ncols and inner_lo[t.row] <= t.y_lo and t.y_hi <= inner_hi[t.row]):
            raise ConstructionError(f"tent at {t.column_x} not inside the slab of its row {t.row}")
    tent_at = _fraction_tent_index(tents)

    for j in range(ncols):
        y0, y1 = inner_lo[j], inner_hi[j]
        k = -j * height  # the staircase is y + k on slab j
        base = j * ncols  # index of the row's first cell
        cursor, cores = ZERO, []
        for i in range(ncols):
            ti = tent_at.get((i, j))
            x_lo = inner_lo[i] if (i - 1, j) in tent_at else xs[i]
            x_hi = inner_hi[i] if ti is not None else xs[i + 1]
            cores.append((_rectangle(x_lo, y0, x_hi, y1), base + i))
            if ti is None:
                continue
            # the tent on the cell's right edge ends the slab rectangle
            t = tents[ti]
            xl, xc, xr = x_hi, xs[i + 1], inner_lo[i + 1]
            cell, right_cell = base + i, base + i + 1
            s = t.side_slope
            bl, br, tr, tl = trap = t.trapezoid
            left, right = t.triangles
            yield None, _rectangle(cursor, y0, xl, y1), (k, 0, 1), cores
            yield ti, trap, (k + t.y_lo, 0, 0), [((bl, br, tr), (cell, right_cell, right_cell)),
                                                 ((bl, tr, tl), (cell, right_cell, cell))]
            yield ti, left, (k + s * xl, -s, 1), [(left, cell)]
            yield ti, right, (k - s * xr, s, 1), [(right, right_cell)]
            for lo, hi in ((y0, t.y_lo), (t.y_hi, y1)):
                if lo < hi:  # truncated tent: slab remainder below or above
                    yield None, _rectangle(xl, lo, xr, hi), (k, 0, 1), [
                        (_rectangle(xl, lo, xc, hi), cell), (_rectangle(xc, lo, xr, hi), right_cell)]
            cursor, cores = xr, []
        yield None, _rectangle(cursor, y0, one, y1), (k, 0, 1), cores
        if j < len(cuts):
            b1 = inner_lo[j + 1]
            seams = []
            for i in range(ncols):
                lower, upper = base + i, base + ncols + i
                pa, pb, pc, pd = _rectangle(inner_lo[i], y1, inner_hi[i], b1)
                seams += [((pa, pb, pc), (lower, lower, upper)),
                          ((pa, pc, pd), (lower, upper, upper))]
            yield "band", _rectangle(ZERO, y1, one, b1), (y1 + k, 0, 0), seams


# --- the rows on Fractions --------------------------------------------------
# ``verify`` sums every row on ints over the int moments of
# ``Prefractal.moments`` and makes one Fraction per row.  These are the
# Fraction kernels and per-patch row loops that it replaced, on the same
# moments read as Fractions, and the ramp with the target evaluated at
# Fraction cell centres.


def fraction_moments(moments):
    """The int moments (t, s) of ``Prefractal.moments`` as one Fraction per
    monomial, in MONOMIALS order."""
    t, s = moments
    return tuple(Fraction(v, 24 * s ** (2 + p + q)) for v, (p, q) in zip(t, MONOMIALS))


def fraction_poly_dot(f, moments):
    """Integral of f over a region, given its Fraction moments in MONOMIALS order."""
    return sum((f[key] * m for key, m in zip(MONOMIALS, moments) if f.get(key)), ZERO)


def fraction_square_integral(c0, cx, cy, moments):
    """Integral of (c0 + cx*x + cy*y)^2 over a region, given its Fraction
    moments in MONOMIALS order; the terms of a zero cx or cy are skipped."""
    m00, m10, m01, m20, m11, m02 = moments
    out = c0 * c0 * m00
    if cx:
        out += cx * (2 * c0 * m10 + cx * m20)
        if cy:
            out += 2 * cx * cy * m11
    if cy:
        out += cy * (2 * c0 * m01 + cy * m02)
    return out


def int_slopes(slopes):
    """Rational per-cell slopes as ``build_cell_field`` takes them: int pairs
    over their least common denominator, then that denominator."""
    slopes = [(Fraction(gx), Fraction(gy)) for gx, gy in slopes]
    den = lcm(*(g.denominator for pair in slopes for g in pair))
    return [(gx.numerator * (den // gx.denominator), gy.numerator * (den // gy.denominator))
            for gx, gy in slopes], den


def fraction_cell_field(flattened, slopes) -> PiecewiseAffineField:
    """``build_cell_field`` in ``Fraction`` arithmetic, on the lattice of
    ``flattened``: one rational gradient per cell, each core map written
    about the cell centre, and each seam map_a + delta * lambda_k in closed
    form, with the same orientation and owner checks."""
    scale = flattened.scale
    coeffs = []
    for (x0, y0, x1, y1), (gx, gy) in zip(flattened.cells, slopes, strict=True):
        gx, gy = Fraction(gx), Fraction(gy)
        coeffs.append((-(gx * (x0 + x1) + gy * (y0 + y1)) / (2 * scale), gx, gy))

    patches = []
    for i, (verts, owner) in enumerate(flattened.pieces):
        if isinstance(owner, int):
            patches.append(AffinePatch(verts, *coeffs[owner]))
            continue
        d = cross(*verts)
        if d <= 0:
            raise ConstructionError(f"seam {i} is not a counterclockwise triangle")
        o0, o1, o2 = owner
        k = 0 if o1 == o2 else 1 if o0 == o2 else 2 if o0 == o1 else None
        if k is None:
            raise ConstructionError(f"seam {i} has three owners {owner}")
        a0, ax, ay = coeffs[owner[k - 1]]
        b0, bx, by = coeffs[owner[k]]
        px, py = verts[k]
        delta = b0 - a0 + ((bx - ax) * px + (by - ay) * py) / scale
        (xi, yi), (xj, yj) = verts[k - 2], verts[k - 1]
        ex, ey = xj - xi, yj - yi
        t = delta / d
        patches.append(AffinePatch(verts, a0 + t * (ey * xi - ex * yi), ax - t * scale * ey,
                                   ay + t * scale * ex))
    return PiecewiseAffineField(tuple(patches), scale)


def fraction_ramp(flattened, f):
    """``build_ramp`` with the target triple ``f`` evaluated at each cell's
    Fraction centre."""
    target = affine_field(*f).patches[0]
    two_l = 2 * flattened.scale
    return fraction_cell_field(flattened, [
        (target.value_at((Fraction(x0 + x1, two_l), Fraction(y0 + y1, two_l))), ZERO)
        for x0, y0, x1, y1 in flattened.cells])


def _flattening_density(p):
    return p.cx ** 2 + (1 - p.cy) ** 2


def _measure_sum(field, measures, density):
    return sum((density(p) * m for p, m in zip(field.patches, measures)), ZERO)


def fraction_witness_rows(spec: CarpetSpec, f, n: int, flat, pf: Prefractal) -> dict:
    """{name: (value, bound)} of the stage-n witness rows whose values are
    sums over patches, and the ramp's sup, summed patch by patch on
    Fractions over ``flat``, the stage-n flattened field, for the target
    triple ``f``."""
    target = affine_field(*f).patches[0]
    f_sup = max(abs(target.value_at(v)) for v in target.vertices)
    a_n = spec.ratio(n)
    d_prev = side_length(spec, n - 1)
    ramp = fraction_ramp(flat, f)
    field = flattened_field(flat)
    measures = [pf.region_measure(p.vertices, flat.scale) for p in field.patches]
    defect = [_flattening_density(p) * m for p, m in zip(field.patches, measures)]
    worst = e_tents = ZERO
    for tags in flat.tent_tags:
        e_one = sum((defect[i] for i in tags), ZERO)
        e_tents += e_one
        if e_one > worst:
            worst = e_one
    e_flat = sum(defect, ZERO)
    ramp_sup = sup_norm(ramp)
    w_norm = c_defect = ZERO
    for p, t in zip(ramp.patches, flat.cell_tags):
        moments = fraction_moments(pf.moments(p.vertices, flat.scale))
        g = field.patches[t]
        g2 = g.cx ** 2 + g.cy ** 2
        if g2:
            w_norm += g2 * fraction_square_integral(p.c0, p.cx, p.cy, moments)
        c = p.cx * g.cy - p.cy * g.cx
        c_defect += fraction_square_integral(c - target.c0, -target.cx, -target.cy, moments)
    e_flat_grad = _measure_sum(field, measures, lambda p: p.cx ** 2 + p.cy ** 2)
    osc_sq = 2 * d_prev ** 2 * (target.cx ** 2 + target.cy ** 2)
    return {
        "strip_defect_energy": (sum((defect[i] for i in flat.band_tags), ZERO), a_n),
        "tent_energy_max": (worst, per_tent_bound(spec, n)),
        "tent_field_energy": (e_tents, tent_field_bound(spec, n)),
        "flattened_defect_energy": (e_flat, a_n + e_tents),
        "ramp_sup": (ramp_sup, f_sup * d_prev),
        "witness_l2": (w_norm, ramp_sup ** 2 * e_flat_grad),
        "curl_defect_l2": (c_defect, f_sup * f_sup * e_flat + osc_sq * pf.measure),
        "vertical_defect": (_measure_sum(field, measures, lambda p: (p.cy - 1) ** 2), e_flat),
    }


def fraction_wedge_rows(f, flat, pf: Prefractal) -> dict:
    """{name: (value, bound)} of the wedge rows over ``flat`` whose values
    are sums over patches, summed patch by patch on Fractions, for the
    target triple ``f``."""
    base = affine_field(*f).patches[0]

    def det(a, b):
        return a.cx * b.cy - a.cy * b.cx

    gf_sup = base.cx ** 2 + base.cy ** 2
    remainder = fraction_cell_field(flat, [base.gradient] * len(flat.cells))
    field = flattened_field(flat)
    measures = [pf.region_measure(p.vertices, flat.scale) for p in field.patches]
    active = [(p, field.patches[t]) for p, t in zip(remainder.patches, flat.cell_tags)
              if field.patches[t].gradient != (0, 0)]
    moments = [fraction_moments(pf.moments(p.vertices, flat.scale)) for p, _ in active]
    omega_norm = sum(((q.cx ** 2 + q.cy ** 2) * fraction_square_integral(p.c0, p.cx, p.cy, mom)
                      for (p, q), mom in zip(active, moments)), ZERO)
    e_flat = _measure_sum(field, measures, _flattening_density)
    defect1 = _measure_sum(field, measures, lambda q: (base.cx - det(base, q)) ** 2)
    defect2 = sum(((det(base, q) - det(p, q)) ** 2 * mom[0]
                   for (p, q), mom in zip(active, moments)), ZERO)
    return {
        "cutoff_form_l2": (omega_norm, None),
        "wedge_defect_primary": (defect1, 2 * gf_sup ** 2 * e_flat),
        "wedge_defect_secondary": (defect2, ZERO),
    }


# --- the hole complement ----------------------------------------------------
# P_m is the unit square less the disjoint open holes of levels 1..m, the
# level-k ones one in each surviving level-(k-1) square.  So the moments of
# a region R over P_m are its own less those of H intersect R for each hole
# H that meets R: one box clip per hole, with no walk, class key, shape or
# cut square.


@cache
def _hole_index(spec: CarpetSpec, m: int):
    """Per level k = 1..m: L_k, the pitch of the level-k holes on that
    lattice (the level-(k-1) side, 4 * q_k) and the holes of
    ``enumerate_holes`` keyed by the pitch cell each lies in."""
    levels = []
    for k in range(1, m + 1):
        pitch = 4 * spec.subdivisions(k)
        levels.append((stage_scale(spec, k), pitch,
                       {(x0 // pitch, y0 // pitch): (x0, y0, x1, y1)
                        for x0, y0, x1, y1 in enumerate_holes(spec, k)}))
    return levels


def hole_moments(spec: CarpetSpec, m: int, region, scale):
    """The moments of the MONOMIALS over P_m intersect ``region``, a CCW
    polygon of int vertices over ``scale``, in the form of
    ``Prefractal.moments``: (t, U), monomial (p, q) being t[i] / (24 *
    U^(2+p+q)), on the lattice U = lcm(scale, L_m) that holds every hole.
    The region is clipped by each hole that meets its bbox
    (``clip_to_box``); where a hole side crosses a region edge between
    lattice points, which happens for m above the region's stage, that
    vertex and the sums it enters are exact ``Fraction``s."""
    levels = _hole_index(spec, m)
    lattice = lcm(scale, *(level_scale for level_scale, _, _ in levels))
    up = lattice // scale
    reg = tuple((x * up, y * up) for x, y in region)
    sums = list(moment_sums(reg))
    bx0, by0, bx1, by1 = bbox(reg)
    for level_scale, pitch, holes in levels:
        f = lattice // level_scale
        cell = pitch * f
        # a hole lies inside its pitch cell, so only the cells that meet
        # the open bbox can hold a hole that meets the region
        for iy in range(by0 // cell, -(-by1 // cell)):
            for ix in range(bx0 // cell, -(-bx1 // cell)):
                hole = holes.get((ix, iy))
                if hole is None:
                    continue
                x0, y0, x1, y1 = (v * f for v in hole)
                if x0 < bx1 and x1 > bx0 and y0 < by1 and y1 > by0:
                    for i, v in enumerate(moment_sums(clip_to_box(reg, x0, y0, x1, y1))):
                        sums[i] -= v
    return tuple(v * (24 // div) for v, div in zip(sums, MOMENT_DIVISORS)), lattice


def same_moments(a, b):
    """Whether two moment pairs (t, s) in the form of ``Prefractal.moments``
    have equal values, compared by cross-multiplying: t[i] * r^(2+p+q) ==
    u[i] * s^(2+p+q) for the pairs (t, s) and (u, r)."""
    (t, s), (u, r) = a, b
    return all(x * r ** (2 + p + q) == y * s ** (2 + p + q)
               for x, y, (p, q) in zip(t, u, MONOMIALS, strict=True))

