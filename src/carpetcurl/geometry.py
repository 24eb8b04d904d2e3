"""Exact 2-D polygon primitives over integer or rational coordinates.

Predicates (orientation, ``_convex``) and sums (``_area2``,
``moment_sums``, the half-plane clip) are ring-generic: a stage polygon's
int vertices on its lattice give exact ints, ``Fraction`` vertices exact
Fractions, and nothing depends on a tolerance.  Every region the package
integrates is convex, and ``_convex`` tests that on integer vertices; a
non-convex region is rejected, never split, and ``carpet.Prefractal`` walks
every convex one, rectangles included, one way.  Normalization, area and
convex clipping take ints or Fractions, scale their polygons once per call
by the lcm of the vertex denominators and run on that integer lattice;
``normalize_polygon`` and ``clip_convex`` return ``Fraction`` pairs, and a
clipped crossing off the lattice stays an exact int + Fraction.  A
degree-<=2 integrand over a region is a dot product with the region's six
moments.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

ZERO = Fraction(0)


def cross(o, a, b):
    """Signed cross product (a - o) x (b - o)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _lattice_scale(values) -> int:
    """The least positive integer whose multiples of the given rationals are ints."""
    return lcm(*{v.denominator for v in values})


def _on_lattice(poly, scale):
    """The vertices of a rational polygon times scale, as exact ints."""
    return [(x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
            for x, y in poly]


def _lattice(poly):
    """(scale, integer vertices) of a rational polygon on its own lattice."""
    scale = _lattice_scale(v for p in poly for v in p)
    return scale, _on_lattice(poly, scale)


def _area2(poly):
    # the shoelace sum; ring-generic, so integer vertices give an int
    s = 0
    x0, y0 = poly[-1] if poly else (0, 0)
    for x1, y1 in poly:
        s += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    return s


def polygon_area2(poly) -> Fraction:
    """Twice the signed area (positive for counterclockwise order)."""
    scale, pts = _lattice(poly)
    return Fraction(_area2(pts), scale * scale)


def polygon_area(poly) -> Fraction:
    return polygon_area2(poly) / 2


def _normalize(points):
    """Canonical vertices of a polygon, their lattice points and the lattice scale.

    Returns (the given vertices as Fractions at the kept indices, the same
    vertices on the polygon's integer lattice, its scale).  A canonical tuple
    of Fraction pairs comes back as itself, so its holders share it.
    """
    exact = type(points) is tuple and all(
        type(p) is tuple and type(p[0]) is type(p[1]) is Fraction for p in points)
    raw = points if exact else [(x if type(x) is Fraction else Fraction(x),
                                 y if type(y) is Fraction else Fraction(y)) for x, y in points]
    scale, pts = _lattice(raw)
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
    if exact and keep == list(range(len(pts))):
        return points, pts, scale
    return tuple(raw[i] for i in keep), [pts[i] for i in keep], scale


def normalize_polygon(points: Iterable) -> tuple:
    """Canonical form: Fractions, no repeated/collinear vertices, CCW order."""
    return _normalize(points)[0]


def _convex(poly) -> bool:
    # True for a CCW convex polygon of at least three vertices, collinear
    # vertices allowed; ring-generic, so lattice points give an exact answer
    n = len(poly)
    if n < 3:
        return False
    for i in range(n):
        if cross(poly[i - 2], poly[i - 1], poly[i]) < 0:
            return False
    return True


def bbox(poly):
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    return (min(xs), min(ys), max(xs), max(ys))


def _shift(v, num, den):
    # v + num / den, an int when den divides num
    q, r = divmod(num, den)
    return v + q if not r else v + Fraction(num, den)


def clip_halfplane(poly, a, b, c):
    """Clip a polygon to the half-plane a*x + b*y <= c (Sutherland-Hodgman).

    Ring-generic: a crossing is cur + fc * (nxt - cur) / (fc - fn), an int
    when the division is exact and an int + Fraction otherwise, so integer
    lattice input gives the exact clip too.
    """
    if not poly:
        return ()
    out = []
    cur = poly[0]
    fc = a * cur[0] + b * cur[1] - c
    for nxt in poly[1:] + poly[:1]:
        fn = a * nxt[0] + b * nxt[1] - c
        if fc <= 0:
            out.append(cur)
        if (fc <= 0) != (fn <= 0):
            den = fc - fn
            out.append((_shift(cur[0], fc * (nxt[0] - cur[0]), den),
                        _shift(cur[1], fc * (nxt[1] - cur[1]), den)))
        cur, fc = nxt, fn
    # drop consecutive duplicates produced by vertices lying on the cut line
    dedup = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return tuple(dedup) if len(dedup) >= 3 else ()


def clip_convex(subject, clip):
    """Intersection of a polygon with a CCW convex clip polygon.

    Both are scaled onto the lattice of all their denominators together,
    clipped there edge by edge, and scaled back.
    """
    scale = _lattice_scale(v for poly in (subject, clip) for p in poly for v in p)
    out = _on_lattice(subject, scale)
    pts = _on_lattice(clip, scale)
    for p, q in zip(pts, pts[1:] + pts[:1]):
        # inside of edge p->q of a CCW polygon is cross(p, q, x) >= 0,
        # which rearranges to (qy-py)*x + (px-qx)*y <= (qy-py)*px + (px-qx)*py
        a = q[1] - p[1]
        b = p[0] - q[0]
        out = clip_halfplane(out, a, b, a * p[0] + b * p[1])
        if not out:
            return ()
    return tuple((Fraction(x, scale), Fraction(y, scale)) for x, y in out)


# Moments of x^p y^q over a CCW polygon via the divergence theorem.  The
# monomials of degree <= 2, in the order moment_sums returns them, and the
# divisor that turns each sum into the moment.
MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
MOMENT_DIVISORS = (2, 6, 6, 12, 24, 12)


def moment_sums(poly) -> tuple:
    """Undivided divergence-theorem sums of the MONOMIALS over a CCW polygon.

    Uses only ring operations, so integer vertices give exact integer sums
    and Fraction vertices exact Fractions.
    """
    m00 = m10 = m01 = m20 = m11 = m02 = 0
    if not poly:
        return (m00, m10, m01, m20, m11, m02)
    x0, y0 = poly[-1]
    for (x1, y1) in poly:
        c = x0 * y1 - x1 * y0
        m00 += c
        m10 += (x0 + x1) * c
        m01 += (y0 + y1) * c
        m20 += (x0 * x0 + x0 * x1 + x1 * x1) * c
        m02 += (y0 * y0 + y0 * y1 + y1 * y1) * c
        m11 += (2 * x0 * y0 + x0 * y1 + x1 * y0 + 2 * x1 * y1) * c
        x0, y0 = x1, y1
    return (m00, m10, m01, m20, m11, m02)


# A degree-<=2 integrand is a dict {(p, q): coefficient} over MONOMIALS, or,
# for the square of an affine map, its three coefficients.

def poly_dot(f, moments):
    """Integral of f over a region, given the region's moments in MONOMIALS order."""
    return sum((f[key] * m for key, m in zip(MONOMIALS, moments) if f.get(key)), ZERO)


def square_integral(c0, cx, cy, moments):
    """Integral of (c0 + cx*x + cy*y)^2 over a region, given its moments in
    MONOMIALS order.  The terms of a zero cx or cy are skipped, so a constant
    map costs one product and a map with one slope three."""
    m00, m10, m01, m20, m11, m02 = moments
    out = c0 * c0 * m00
    if cx:
        out += cx * (2 * c0 * m10 + cx * m20)
        if cy:
            out += 2 * cx * cy * m11
    if cy:
        out += cy * (2 * c0 * m01 + cy * m02)
    return out
