"""Exact 2-D polygon primitives over integer or rational coordinates.

Every routine works on the vertices it is given, with no rescaling: the
predicates (``cross``, ``strictly_convex``), the sums (``_area2``,
``polygon_area``, ``moment_sums``) and the half-plane and convex clips are
ring-generic, so a stage polygon's int vertices on its lattice give exact
ints, ``Fraction`` vertices exact Fractions, and nothing depends on a
tolerance.  A clip keeps int input int but at a crossing between lattice
points, which comes back as an exact ``Fraction``.  Every polygon the stage
layout builds and every region the package integrates is canonical:
counterclockwise and convex with a strict left turn at every vertex, which
``strictly_convex`` tests; the layout raises ``ConstructionError`` and
``carpet.Prefractal`` ``ValueError`` on anything else, and neither
reorients or prunes a polygon.  A degree-<=2 integrand over a region is a
dot product with the region's six moments, taken on ints: a region's
moments are int numerators t over the int scale s of its refined lattice,
monomial (p, q) over 24 * s^(2+p+q) (``carpet.Prefractal.moments``), and
the kernels ``poly_dot`` and ``square_integral`` return the integral as an
int pair (numerator, denominator), leaving the one ``Fraction`` to their
caller.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

ZERO = Fraction(0)


def cross(o, a, b):
    """Signed cross product (a - o) x (b - o)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _area2(poly):
    # the shoelace sum; ring-generic, so integer vertices give an int
    s = 0
    x0, y0 = poly[-1] if poly else (0, 0)
    for x1, y1 in poly:
        s += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    return s


def polygon_area(poly) -> Fraction:
    """The signed area (positive for counterclockwise order), in the units
    of the vertices."""
    return Fraction(_area2(poly), 2)


def strictly_convex(poly) -> bool:
    """True for a canonical convex polygon: at least three vertices, each a
    strict left turn, on a boundary that turns around once, so it is
    counterclockwise and convex with no repeated or collinear vertex.
    Ring-generic, so lattice points give an exact answer."""
    if len(poly) < 3:
        return False
    (ax, ay), (bx, by) = poly[-2], poly[-1]
    dx, dy = bx - ax, by - ay
    upper = dy > 0 or (dy == 0 and dx < 0)
    wraps = 0
    for cx, cy in poly:
        ex, ey = cx - bx, cy - by
        if dx * ey - dy * ex <= 0:
            return False
        up = ey > 0 or (ey == 0 and ex < 0)
        if up and not upper:
            wraps += 1
        bx, by, dx, dy, upper = cx, cy, ex, ey, up
    # each turn is less than a half turn, so the edge direction enters the
    # upper half-plane once per time around: twice for a pentagram
    return wraps == 1


def bbox(poly):
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    return (min(xs), min(ys), max(xs), max(ys))


def _shift(v, num, den):
    # v + num / den, an int when it is one, whether v is an int or a Fraction
    top = v * den + num
    q, r = divmod(top, den)
    return Fraction(top, den) if r else q


def clip_halfplane(poly, a, b, c):
    """Clip a polygon to the half-plane a*x + b*y <= c (Sutherland-Hodgman).

    Ring-generic: a crossing is cur + fc * (nxt - cur) / (fc - fn), an int
    when it is a lattice point and a Fraction otherwise, so integer lattice
    input gives the exact clip too.
    """
    if not poly:
        return ()
    out = []
    cur = poly[0]
    fc = a * cur[0] + b * cur[1] - c
    for nxt in poly[1:] + poly[:1]:
        fn = a * nxt[0] + b * nxt[1] - c
        # a vertex on the line is kept as itself, so only an edge with an end
        # strictly on each side crosses; a repeated point is dropped as it comes
        if fc <= 0 and (not out or out[-1] != cur):
            out.append(cur)
        if (fc < 0 < fn) or (fn < 0 < fc):
            den = fc - fn
            p = (_shift(cur[0], fc * (nxt[0] - cur[0]), den),
                 _shift(cur[1], fc * (nxt[1] - cur[1]), den))
            if not out or out[-1] != p:
                out.append(p)
        cur, fc = nxt, fn
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out) if len(out) >= 3 else ()


def clip_convex(subject, clip):
    """Intersection of a polygon with a CCW convex clip polygon.

    Clipped edge by edge on the vertices as given, so int input gives int
    vertices but at crossings off its lattice.
    """
    out = subject
    for p, q in zip(clip, clip[1:] + clip[:1]):
        # inside of edge p->q of a CCW polygon is cross(p, q, x) >= 0,
        # which rearranges to (qy-py)*x + (px-qx)*y <= (qy-py)*px + (px-qx)*py
        a = q[1] - p[1]
        b = p[0] - q[0]
        out = clip_halfplane(out, a, b, a * p[0] + b * p[1])
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


# A degree-<=2 integrand is a dict {(p, q): coefficient} over MONOMIALS, or,
# for the square of an affine map, its three coefficients.  Both kernels take
# a region's moments (t, s) as Prefractal.moments gives them and return
# (numerator, denominator) ints: multiplied by 24 * s^4, monomial (p, q) is
# t[i] * s^(2-p-q).  _TERMS maps each monomial to its i and 2-p-q.
_TERMS = {key: (i, 2 - key[0] - key[1]) for i, key in enumerate(MONOMIALS)}


def poly_dot(f, moments):
    """Integral of f over a region, given the region's moments (t, s), as an
    int pair over 24 * s^4 times the lcm of f's coefficient denominators.
    The coefficients are ints or Fractions.  Only f's own nonzero terms are
    summed, each looked up in MONOMIALS; a nonzero coefficient on any other
    key raises ``ValueError``, and a zero one is skipped."""
    t, s = moments
    den = lcm(*[c.denominator for c in f.values() if type(c) is not int])
    num = 0
    for key, c in f.items():
        if c:
            term = _TERMS.get(key)
            if term is None:
                raise ValueError(f"unsupported monomial {key}")
            i, e = term
            num += c.numerator * (den // c.denominator) * t[i] * s ** e
    return num, 24 * s ** 4 * den


def square_integral(c0, cx, cy, d, moments):
    """Integral of ((c0 + cx*x + cy*y) / d)^2 over a region, for ints c0, cx,
    cy and d, given the region's moments (t, s), as an int pair over
    24 * s^4 * d^2.  The terms of a zero cx or cy are skipped, so a constant
    map costs one product and a map with one slope three."""
    (m00, m10, m01, m20, m11, m02), s = moments
    out = c0 * c0 * m00 * s * s
    if cx:
        out += cx * (2 * c0 * m10 * s + cx * m20)
        if cy:
            out += 2 * cx * cy * m11
    if cy:
        out += cy * (2 * c0 * m01 * s + cy * m02)
    return out, 24 * s ** 4 * d * d
