from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from carpetcurl.carpet import CarpetSpec, Prefractal
from carpetcurl.geometry import (
    MONOMIALS,
    clip_convex,
    cross,
    poly_dot,
    polygon_area,
    square_integral,
    strictly_convex,
)
from oracles import (
    _normalize,
    affine_poly,
    clip_to_box,
    fraction_moments,
    fraction_poly_dot,
    fraction_square_integral,
    make_patch,
    normalize_polygon,
    on_lattice,
    point_in_convex,
    poly_mul,
    polygon_area2,
    polygon_moments,
)

F = Fraction

SQUARE = ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)))


def test_normalize_orients_counterclockwise():
    cw = ((F(0), F(0)), (F(0), F(1)), (F(1), F(1)), (F(1), F(0)))
    assert polygon_area(normalize_polygon(cw)) == 1


def test_normalize_drops_collinear_vertices():
    poly = ((F(0), F(0)), (F(1, 2), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)))
    assert len(normalize_polygon(poly)) == 4


@pytest.mark.parametrize("poly", [
    ((0, 0), (0, 0), (1, 0), (1, 1), (0, 1)),  # a doubled corner
    ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0)),  # a closed ring
    ((0, 1), (1, 1), (1, 0), (1, 0), (1, 0), (0, 0), (0, 1)),  # clockwise, both
])
def test_normalize_keeps_one_copy_of_a_repeated_vertex(poly):
    out = normalize_polygon(poly)
    assert len(out) == 4 and set(out) == set(SQUARE) and polygon_area(out) == 1
    assert make_patch(poly, 1).vertices == out
    # Prefractal takes canonical regions only: the oracle's canonical form
    pf = Prefractal(CarpetSpec((F(1, 3), F(1, 5))), 2)
    assert pf.moments(*on_lattice(out)) == pf.moments(*on_lattice(SQUARE))
    with pytest.raises(ValueError, match="not convex"):
        pf.moments(*on_lattice(poly))


def test_unit_square_moments_match_analytic_integrals():
    mom = polygon_moments(SQUARE)
    assert mom[(0, 0)] == 1
    assert mom[(1, 0)] == F(1, 2)
    assert mom[(0, 1)] == F(1, 2)
    assert mom[(2, 0)] == F(1, 3)
    assert mom[(0, 2)] == F(1, 3)
    assert mom[(1, 1)] == F(1, 4)


def test_triangle_moments_match_analytic_integrals():
    tri = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))
    mom = polygon_moments(tri)
    assert mom[(0, 0)] == F(1, 2)
    assert mom[(1, 0)] == F(1, 6)
    assert mom[(2, 0)] == F(1, 12)
    assert mom[(1, 1)] == F(1, 24)


def test_clip_to_box_cuts_a_corner():
    out = clip_to_box(SQUARE, F(1, 2), F(1, 2), F(2), F(2))
    assert polygon_area(out) == F(1, 4)


def test_clip_disjoint_is_empty():
    assert clip_to_box(SQUARE, F(2), F(2), F(3), F(3)) == ()


def test_clip_convex_intersection_of_triangles():
    a = ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)))
    b = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))
    out = clip_convex(a, b)
    assert polygon_area(out) == F(1, 4)


def test_point_in_convex_boundary_counts_as_inside():
    assert point_in_convex(SQUARE, (F(0), F(1, 2)))
    assert point_in_convex(SQUARE, (F(1, 3), F(1, 3)))
    assert not point_in_convex(SQUARE, (F(2), F(0)))


coords = st.fractions(min_value=0, max_value=1, max_denominator=12)

# the int kernels: coefficients as ints over one denominator d, moments as
# int numerators t over a scale s, monomial (p, q) being t / (24 * s^(2+p+q))
small_ints = st.integers(-40, 40)
int_slope = st.one_of(st.just(0), small_ints)
int_moments = st.tuples(st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 6), st.integers(1, 60))
MOMENTS = ((11, -3, 5, 7, -13, 2), 6)


@given(small_ints, int_slope, int_slope, st.integers(1, 30), int_moments)
@example(5, 0, 0, 3, MOMENTS)      # a constant map: one product
@example(-5, 7, 0, 3, MOMENTS)     # one slope in x: three
@example(-5, 0, -7, 3, MOMENTS)    # one slope in y: three
@example(0, -7, 9, 1, MOMENTS)     # both slopes
@settings(max_examples=300, deadline=None)
def test_square_integral_matches_the_fraction_oracles(c0, cx, cy, d, moments):
    # the int kernel against the Fraction kernel it replaced, which skips the
    # same zero-slope terms, and against the dict product, which never does
    num, den = square_integral(c0, cx, cy, d, moments)
    t, s = moments
    assert type(num) is int and den == 24 * s ** 4 * d * d
    unit = fraction_moments(moments)
    coefficients = (F(c0, d), F(cx, d), F(cy, d))
    assert F(num, den) == fraction_square_integral(*coefficients, unit)
    a = affine_poly(*coefficients)
    assert F(num, den) == fraction_poly_dot(poly_mul(a, a), unit)


polys = st.dictionaries(st.sampled_from(MONOMIALS),
                        st.fractions(min_value=-9, max_value=9, max_denominator=12)
                        | st.integers(-9, 9), max_size=6)


@given(polys, int_moments)
@example({}, MOMENTS)
@example({(0, 0): 1}, MOMENTS)
@example({(1, 1): F(-2, 3), (0, 2): F(0)}, MOMENTS)
# terms out of MONOMIALS order, and int and Fraction coefficients mixed
@example({(0, 2): 3, (1, 0): F(5, 4), (0, 0): -2, (2, 0): F(-1, 6)}, MOMENTS)
@example({(1, 1): F(7, 9), (0, 1): 4, (1, 0): F(0), (0, 0): F(3)}, MOMENTS)
@settings(max_examples=300, deadline=None)
def test_poly_dot_matches_the_fraction_oracle(f, moments):
    # the pair is over 24 * s^4 times the lcm of the coefficient denominators
    num, den = poly_dot(f, moments)
    assert type(num) is int and type(den) is int
    assert den == 24 * moments[1] ** 4 * lcm(*(F(c).denominator for c in f.values()))
    assert F(num, den) == fraction_poly_dot(f, fraction_moments(moments))


@st.composite
def convex_quads(draw):
    # quadrilateral sampled inside the unit square around its center
    x1 = draw(st.fractions(min_value=F(1, 12), max_value=F(5, 12), max_denominator=24))
    x2 = draw(st.fractions(min_value=F(7, 12), max_value=F(11, 12), max_denominator=24))
    y1 = draw(st.fractions(min_value=F(1, 12), max_value=F(5, 12), max_denominator=24))
    y2 = draw(st.fractions(min_value=F(7, 12), max_value=F(11, 12), max_denominator=24))
    quad = ((x1, y1), (x2, y1), (x2, y2), (x1, y2))
    return normalize_polygon(quad)


@given(convex_quads(), coords)
@settings(max_examples=60, deadline=None)
def test_moments_additive_under_vertical_split(quad, t):
    x0 = min(p[0] for p in quad)
    x1 = max(p[0] for p in quad)
    cut = x0 + t * (x1 - x0)
    left = clip_to_box(quad, F(-1), F(-1), cut, F(2))
    right = clip_to_box(quad, cut, F(-1), F(2), F(2))
    whole = polygon_moments(quad)
    for key in whole:
        parts = 0
        if left:
            parts += polygon_moments(left)[key]
        if right:
            parts += polygon_moments(right)[key]
        assert parts == whole[key]


@given(convex_quads())
@settings(max_examples=30, deadline=None)
def test_convexity_detected(quad):
    assert strictly_convex(on_lattice(quad)[0])


# Reference versions of the lattice predicates, written directly in Fractions:
# the oracle for the integer code in carpetcurl.geometry.

def ref_polygon_area2(poly):
    s = F(0)
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return s


def ref_normalize_polygon(points):
    raw = [(F(x), F(y)) for x, y in points]
    if ref_polygon_area2(tuple(raw)) < 0:
        raw.reverse()
    # one copy of each run of repeated vertices, the ring being cyclic
    raw = [p for i, p in enumerate(raw) if p != raw[i - 1]]
    out = []
    n = len(raw)
    for i in range(n):
        prev = raw[(i - 1) % n]
        cur = raw[i]
        nxt = raw[(i + 1) % n]
        if cross(prev, cur, nxt) == 0 and (cur[0] - prev[0]) * (nxt[0] - cur[0]) >= 0 \
                and (cur[1] - prev[1]) * (nxt[1] - cur[1]) >= 0:
            continue
        out.append(cur)
    return tuple(out)


def ref_is_strictly_convex(poly):
    # strict left turns at distinct vertices, each edge with every vertex on
    # its closed left side: a boundary that turns around once
    n = len(poly)
    if n < 3 or len(set(poly)) < n:
        return False
    return all(cross(poly[i], poly[(i + 1) % n], poly[(i + 2) % n]) > 0
               and all(cross(poly[i], poly[(i + 1) % n], v) >= 0 for v in poly)
               for i in range(n))


def ref_clip_halfplane(poly, a, b, c):
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
    dedup = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return tuple(dedup) if len(dedup) >= 3 else ()


def ref_clip_convex(subject, clip):
    out = subject
    n = len(clip)
    for i in range(n):
        p = clip[i]
        q = clip[(i + 1) % n]
        a = q[1] - p[1]
        b = p[0] - q[0]
        out = ref_clip_halfplane(out, a, b, a * p[0] + b * p[1])
        if not out:
            return ()
    return out


wide_coords = st.fractions(min_value=-1, max_value=2, max_denominator=9)
# the same range as ints over the scale 12, the way a stage polygon is given
lattice_coords = st.integers(-12, 24)


@st.composite
def rough_polygons(draw, coords=wide_coords):
    """Polygons in either orientation, with repeated vertices and collinear
    vertices inserted on their edges; not necessarily simple.  On int
    ``coords`` an inserted vertex is a lattice point of its edge."""
    pts = draw(st.lists(st.tuples(coords, coords), min_size=3, max_size=7))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(pts) - 1))
        (x0, y0), (x1, y1) = pts[i], pts[(i + 1) % len(pts)]
        # k = 0 or t = 0 repeats the vertex, anything else is a collinear
        # point on the edge
        if coords is lattice_coords:
            g = gcd(x1 - x0, y1 - y0) or 1
            k = draw(st.integers(0, g - 1))
            pts.insert(i + 1, (x0 + k * (x1 - x0) // g, y0 + k * (y1 - y0) // g))
        else:
            t = draw(st.sampled_from((F(0), F(1, 3), F(1, 2), F(3, 4))))
            pts.insert(i + 1, (x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    if draw(st.booleans()):
        pts.reverse()
    return tuple(pts)


@st.composite
def convex_clips(draw, coords=wide_coords):
    """CCW convex polygons with slanted edges: the hull of ``coords`` points."""
    pts = draw(st.lists(st.tuples(coords, coords), min_size=3, max_size=6))
    n = len(pts)
    # gift wrapping keeps the code independent of the predicates under test
    hull = []
    start = min(pts)
    cur = start
    while True:
        hull.append(cur)
        nxt = pts[0] if pts[0] != cur else pts[1 % n]
        for p in pts:
            turn = cross(cur, nxt, p)
            if turn < 0 or (turn == 0 and (p[0] - cur[0]) ** 2 + (p[1] - cur[1]) ** 2
                            > (nxt[0] - cur[0]) ** 2 + (nxt[1] - cur[1]) ** 2):
                nxt = p
        cur = nxt
        if cur == start or len(hull) > n:
            break
    assume(len(hull) >= 3 and ref_polygon_area2(hull) > 0)
    return tuple(hull)


# the unit square clipped by x + 2y <= 2 crosses x = 1 at y = 1/2, off the
# integer lattice of both inputs
OFF_LATTICE_CLIP = ((F(0), F(0)), (F(2), F(0)), (F(0), F(1)))
# the same two as ints over the scale 1, and both doubled, where the
# crossing (2, 1) is a lattice point
INT_SQUARE = ((0, 0), (1, 0), (1, 1), (0, 1))
INT_CLIP = ((0, 0), (2, 0), (0, 1))


# every vertex a strict left turn, on boundaries that turn around twice
PENTAGRAM = ((F(1, 2), F(1, 10)), (F(37, 50), F(17, 20)), (F(1, 10), F(39, 100)),
             (F(9, 10), F(39, 100)), (F(13, 50), F(17, 20)))
SQUARE_TWICE = SQUARE + SQUARE


@given(rough_polygons())
@example(PENTAGRAM)
@example(SQUARE_TWICE)
@settings(max_examples=200, deadline=None)
def test_lattice_predicates_match_the_fraction_reference(poly):
    assert 2 * polygon_area(poly) == polygon_area2(poly) == ref_polygon_area2(poly)
    assert normalize_polygon(poly) == ref_normalize_polygon(poly)
    # the convexity test of make_patch, build_flattened and
    # Prefractal.moments, on the lattice points as given and as _normalize
    # leaves them
    assert strictly_convex(on_lattice(poly)[0]) == ref_is_strictly_convex(poly)
    canon = ref_normalize_polygon(poly)
    assert strictly_convex(_normalize(poly)[1]) == ref_is_strictly_convex(canon)


def fraction_image(poly):
    return tuple((F(x), F(y)) for x, y in poly)


@given(rough_polygons() | rough_polygons(lattice_coords),
       convex_clips() | convex_clips(lattice_coords))
@example(SQUARE, OFF_LATTICE_CLIP)
@example(INT_SQUARE, INT_CLIP)
@example(tuple((2 * x, 2 * y) for x, y in INT_SQUARE), tuple((2 * x, 2 * y) for x, y in INT_CLIP))
@settings(max_examples=300, deadline=None)
def test_lattice_clip_matches_the_fraction_reference(subject, clip):
    # the clip of the vertices as given, equal by value to the reference
    # clip of their Fraction images; on int input a crossing at a lattice
    # point comes back an int and one between lattice points a Fraction
    out = clip_convex(subject, clip)
    assert out == ref_clip_convex(fraction_image(subject), fraction_image(clip))
    if all(type(v) is int for poly in (subject, clip) for p in poly for v in p):
        assert all(type(v) is (int if v.denominator == 1 else F) for p in out for v in p)


def test_clip_crossing_off_the_lattice_stays_exact():
    out = clip_convex(SQUARE, OFF_LATTICE_CLIP)
    assert out == ref_clip_convex(SQUARE, OFF_LATTICE_CLIP)
    assert (F(1), F(1, 2)) in out
    assert polygon_area(out) == F(3, 4)
    # on ints the lattice points stay ints, and the crossing (1, 1/2) is an
    # int and a Fraction
    assert clip_convex(INT_SQUARE, INT_CLIP) == ((0, 0), (1, 0), (1, F(1, 2)), (0, 1))
    assert [tuple(map(type, p)) for p in clip_convex(INT_SQUARE, INT_CLIP)] == [
        (int, int), (int, int), (int, F), (int, int)]
