"""Exact 2-D polygon primitives over rational coordinates.

Everything here works on ``fractions.Fraction`` pairs, so predicates
(orientation, containment) and quantities (areas, clipped regions, moments up
to degree two) are exact and never depend on tolerances.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

ZERO = Fraction(0)


class NonSimplePolygon(ValueError):
    """Raised when an operation requires a simple polygon and gets none."""


def cross(o, a, b):
    """Signed cross product (a - o) x (b - o)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def polygon_area2(poly) -> Fraction:
    """Twice the signed area (positive for counterclockwise order)."""
    s = ZERO
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return s


def polygon_area(poly) -> Fraction:
    return polygon_area2(poly) / 2


def normalize_polygon(points: Iterable) -> tuple:
    """Canonical form: Fractions, no repeated/collinear vertices, CCW order."""
    raw = [(Fraction(x), Fraction(y)) for x, y in points]
    if polygon_area2(tuple(raw)) < 0:
        raw.reverse()
    out = []
    n = len(raw)
    for i in range(n):
        prev = raw[(i - 1) % n]
        cur = raw[i]
        nxt = raw[(i + 1) % n]
        if cur == prev:
            continue
        if cross(prev, cur, nxt) == 0 and (cur[0] - prev[0]) * (nxt[0] - cur[0]) >= 0 \
                and (cur[1] - prev[1]) * (nxt[1] - cur[1]) >= 0:
            # collinear interior vertex
            continue
        out.append(cur)
    return tuple(out)


def is_convex(poly) -> bool:
    """True for a CCW convex polygon (collinear vertices allowed)."""
    n = len(poly)
    if n < 3:
        return False
    for i in range(n):
        if cross(poly[i], poly[(i + 1) % n], poly[(i + 2) % n]) < 0:
            return False
    return True


def is_simple(poly) -> bool:
    """Quadratic-time simplicity check (non-adjacent edges must not meet)."""
    n = len(poly)
    if n < 3:
        return False
    edges = [(poly[i], poly[(i + 1) % n]) for i in range(n)]

    def segs_intersect(p1, p2, q1, q2):
        d1 = cross(q1, q2, p1)
        d2 = cross(q1, q2, p2)
        d3 = cross(p1, p2, q1)
        d4 = cross(p1, p2, q2)
        if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and \
           ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
            return True

        def on(a, b, c):
            return cross(a, b, c) == 0 and min(a[0], b[0]) <= c[0] <= max(a[0], b[0]) \
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])

        return on(q1, q2, p1) or on(q1, q2, p2) or on(p1, p2, q1) or on(p1, p2, q2)

    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if segs_intersect(*edges[i], *edges[j]):
                return False
    return True


def bbox(poly):
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    return (min(xs), min(ys), max(xs), max(ys))


def point_in_convex(poly, p) -> bool:
    """Closed containment test for a CCW convex polygon."""
    n = len(poly)
    for i in range(n):
        if cross(poly[i], poly[(i + 1) % n], p) < 0:
            return False
    return True


def clip_halfplane(poly, a, b, c):
    """Clip a polygon to the half-plane a*x + b*y <= c (Sutherland-Hodgman)."""
    if not poly:
        return ()
    out = []
    n = len(poly)
    for i in range(n):
        cur = poly[i]
        nxt = poly[(i + 1) % n]
        fc = a * cur[0] + b * cur[1] - c
        fn = a * nxt[0] + b * nxt[1] - c
        if fc <= 0:
            out.append(cur)
            if fn > 0:
                t = fc / (fc - fn)
                out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
        elif fn <= 0:
            t = fc / (fc - fn)
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    # drop consecutive duplicates produced by vertices lying on the cut line
    dedup = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return tuple(dedup) if len(dedup) >= 3 else ()


def clip_to_box(poly, x0, y0, x1, y1):
    """Intersection of a polygon with an axis-aligned box."""
    out = clip_halfplane(poly, Fraction(-1), ZERO, -x0)
    if out:
        out = clip_halfplane(out, Fraction(1), ZERO, x1)
    if out:
        out = clip_halfplane(out, ZERO, Fraction(-1), -y0)
    if out:
        out = clip_halfplane(out, ZERO, Fraction(1), y1)
    return out


def clip_convex(subject, clip):
    """Intersection of a polygon with a CCW convex clip polygon."""
    out = subject
    n = len(clip)
    for i in range(n):
        p = clip[i]
        q = clip[(i + 1) % n]
        # inside of edge p->q of a CCW polygon is cross(p, q, x) >= 0,
        # which rearranges to (qy-py)*x + (px-qx)*y <= (qy-py)*px + (px-qx)*py
        a = q[1] - p[1]
        b = p[0] - q[0]
        c = a * p[0] + b * p[1]
        out = clip_halfplane(out, a, b, c)
        if not out:
            return ()
    return out


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


def polygon_moments(poly):
    """Exact moments of the MONOMIALS over a CCW polygon, keyed by (p, q)."""
    return {key: Fraction(s, div)
            for key, s, div in zip(MONOMIALS, moment_sums(poly), MOMENT_DIVISORS)}


def triangulate(poly):
    """Ear-clipping triangulation of a simple CCW polygon."""
    poly = normalize_polygon(poly)
    if len(poly) < 3:
        return []
    if is_convex(poly):
        return [(poly[0], poly[i], poly[i + 1]) for i in range(1, len(poly) - 1)]
    if not is_simple(poly):
        raise NonSimplePolygon(f"polygon with {len(poly)} vertices is self-intersecting")
    verts = list(poly)
    tris = []
    guard = 0
    while len(verts) > 3:
        guard += 1
        if guard > 10000:
            raise NonSimplePolygon("ear clipping failed to terminate")
        n = len(verts)
        clipped = False
        for i in range(n):
            a, b, c = verts[(i - 1) % n], verts[i], verts[(i + 1) % n]
            if cross(a, b, c) <= 0:
                continue
            ear = (a, b, c)
            if any(point_in_convex(ear, v) and v not in ear for v in verts):
                continue
            tris.append(ear)
            del verts[i]
            clipped = True
            break
        if not clipped:
            raise NonSimplePolygon("no ear found; polygon is degenerate")
    tris.append(tuple(verts))
    return tris


# Bivariate polynomials are dicts {(p, q): coeff}; used as exact integrands.

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


def poly_add(f, g):
    out = dict(f)
    for k, v in g.items():
        out[k] = out.get(k, ZERO) + v
    return out


def poly_scale(f, s):
    return {k: v * s for k, v in f.items()}


def affine_poly(c0, cx, cy):
    return {(0, 0): Fraction(c0), (1, 0): Fraction(cx), (0, 1): Fraction(cy)}


def poly_dot(f, moments):
    """Integral of f over a region, given the region's moments in MONOMIALS order."""
    return sum((f[key] * m for key, m in zip(MONOMIALS, moments) if f.get(key)), ZERO)
