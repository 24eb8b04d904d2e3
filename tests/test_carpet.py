import functools
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import carpetcurl
from carpetcurl import carpet
from carpetcurl.carpet import (
    MONOMIALS,
    CarpetSpec,
    NonOddReciprocal,
    OutOfUnitSquare,
    Prefractal,
    RatioOutOfRange,
    SpecError,
    StageBeyondSpec,
    TailDiverges,
    _shifted_moments,
    column_obstacles,
    enumerate_holes,
    enumerate_squares,
    gap_height,
    geometry_json_records,
    parse_spec_config,
    prefractal_measure,
    side_length,
    stage_lines,
    stage_scale,
    tail_measure_bounds,
    validate_spec,
)
from carpetcurl.geometry import (
    MOMENT_DIVISORS,
    bbox,
    clip_halfplane,
    cross,
    moment_sums,
    strictly_convex,
)
from carpetcurl.witness import _cells
from oracles import (
    _normalize,
    contains,
    fraction_moments,
    hole_moments,
    meets_closed_hole,
    normalize_polygon,
    on_lattice,
    same_moments,
    square_count,
    strictly_inside_hole,
    unit_polygon,
)
from test_partition import SPECS

F = Fraction

UNIT = ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)))

ORACLE_RATIOS = (F(1, 3), F(1, 5), F(1, 7))
# every hole edge down to level 3 lies on the 1/105 lattice; the finer 1/210
# lattice lets region edges run along hole edges and also cut holes in half
LATTICE = 210


def convex_hull(points):
    """CCW hull (Andrew's monotone chain), collinear points dropped."""
    pts = sorted(set(points))
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


@st.composite
def oracle_cases(draw):
    """(depth, region): a convex polygon or a rectangle."""
    depth = draw(st.integers(0, 3))
    # at depth 3 the region stays within a window a third wide, so the
    # brute-force oracle clips at most about a ninth of the 9216 leaf squares
    span = LATTICE if depth < 3 else LATTICE // 3
    ox = draw(st.integers(0, LATTICE - span))
    oy = draw(st.integers(0, LATTICE - span))

    def coords(k):
        vals = draw(st.lists(st.integers(0, span), min_size=k, max_size=k, unique=True))
        return sorted(vals)

    if draw(st.booleans()):
        n = draw(st.integers(3, 6))
        raw = [(draw(st.integers(0, span)), draw(st.integers(0, span))) for _ in range(n)]
        pts = convex_hull(raw)
    else:
        x0, x1 = coords(2)
        y0, y1 = coords(2)
        pts = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
    assume(len(pts) >= 3)
    region = normalize_polygon((F(ox + x, LATTICE), F(oy + y, LATTICE)) for (x, y) in pts)
    return depth, region


# a prime lattice coprime to the carpet's 1/105: region edges with steep and
# shallow slopes force a large lattice refinement in the walk
PRIME_LATTICE = 211


@st.composite
def refined_lattice_cases(draw):
    """(depth, region): a convex hull, a needle triangle or a kite."""
    depth = draw(st.integers(0, 3))
    span = PRIME_LATTICE if depth < 3 else PRIME_LATTICE // 3
    ox = draw(st.integers(0, PRIME_LATTICE - span))
    oy = draw(st.integers(0, PRIME_LATTICE - span))
    kind = draw(st.sampled_from(("convex", "needle", "kite")))
    e = draw(st.integers(1, 4))
    f = draw(st.integers(1, 4))
    if kind == "convex":
        n = draw(st.integers(3, 6))
        pts = convex_hull([(draw(st.integers(0, span)), draw(st.integers(0, span)))
                           for _ in range(n)])
    elif kind == "needle":
        # a shallow edge (span, f), a steep edge (e, span) and a near-diagonal
        pts = ((0, 0), (span, f), (e, span))
    else:
        # a convex vertex at (m, m) between a shallow and a steep edge
        m = draw(st.integers(span // 2 + 1, span))
        pts = convex_hull(((0, 0), (span, e), (m, m), (f, span)))
    if draw(st.booleans()):
        pts = tuple((span - x, y) for (x, y) in pts)
    if draw(st.booleans()):
        pts = tuple((x, span - y) for (x, y) in pts)
    assume(len(pts) >= 3)
    region = normalize_polygon((F(ox + x, PRIME_LATTICE), F(oy + y, PRIME_LATTICE))
                               for (x, y) in pts)
    assume(len(region) >= 3)
    return depth, region


def lattice_case(depth, lattice, pts):
    """(depth, region) for a case given as int points over ``lattice``."""
    return depth, normalize_polygon((F(x, lattice), F(y, lattice)) for x, y in pts)


# a fourth stage of ratio 1/3 behind ORACLE_RATIOS: the level-4 squares are
# 1/315 wide, and a region on the doubled lattice stays in a window one
# level-2 square wide, where the brute-force oracle clips about 500 leaves
DEPTH_FOUR_SPEC = CarpetSpec(ORACLE_RATIOS + (F(1, 3),))
DEPTH_FOUR_LATTICE = 630


@st.composite
def depth_four_cases(draw):
    """(4, region): a convex hull inside a window a fifteenth wide."""
    span = DEPTH_FOUR_LATTICE // 15
    ox = draw(st.integers(0, DEPTH_FOUR_LATTICE - span))
    oy = draw(st.integers(0, DEPTH_FOUR_LATTICE - span))
    pts = convex_hull([(ox + draw(st.integers(0, span)), oy + draw(st.integers(0, span)))
                       for _ in range(draw(st.integers(3, 6)))])
    assume(len(pts) >= 3)
    return lattice_case(4, DEPTH_FOUR_LATTICE, pts)


# the eight rational directions of a star around the centre of the unit square
STAR_DIRECTIONS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


@st.composite
def star_regions(draw):
    """Non-convex star-shaped octagons: vertex k at a rational radius along
    direction k from (1/2, 1/2), inside the unit square."""
    radii = [draw(st.fractions(min_value=F(1, 12), max_value=F(1, 2), max_denominator=12))
             for _ in STAR_DIRECTIONS]
    region = tuple((F(1, 2) + r * dx, F(1, 2) + r * dy)
                   for r, (dx, dy) in zip(radii, STAR_DIRECTIONS))
    assume(not strictly_convex(_normalize(region)[1]))
    return region


def assert_walk_matches_brute_force(depth, region, spec=CarpetSpec(ORACLE_RATIOS), k=1):
    """The walk's integrals and moments against clipping the region to every
    surviving leaf square, on the integer lattice of the region and the leaves;
    so the hole complement, the region less every hole it meets, which
    shares no step with the leaf clips; and so the moments of the region's
    lattice vertices times k over k times its scale, on a fresh prefractal,
    since they are the same polygon."""
    pf = Prefractal(spec, depth)
    d = side_length(spec, depth)
    scale = math.lcm(d.denominator, *(v.denominator for p in region for v in p))
    poly = tuple((int(x * scale), int(y * scale)) for x, y in region)
    # the leaf corners are ints over 1 / d, on which a leaf has side 1
    side = scale // d.denominator
    bx0, by0, bx1, by1 = bbox(poly)
    sums = [0] * len(MONOMIALS)
    for (x0, y0) in enumerate_squares(spec, depth):
        x0, y0 = x0 * side, y0 * side
        if x0 >= bx1 or y0 >= by1 or x0 + side <= bx0 or y0 + side <= by0:
            continue
        piece = poly
        for a, b, c in ((-1, 0, -x0), (1, 0, x0 + side), (0, -1, -y0), (0, 1, y0 + side)):
            piece = clip_halfplane(piece, a, b, c)
        for i, v in enumerate(moment_sums(piece)):
            sums[i] += v
    expected = [F(v) / (div * scale ** (2 + p + q))
                for v, div, (p, q) in zip(sums, MOMENT_DIVISORS, MONOMIALS)]
    for key, value in zip(MONOMIALS, expected):
        assert pf.integrate(*on_lattice(region), {key: F(1)}) == value
    assert fraction_moments(pf.moments(*on_lattice(region))) == tuple(expected)
    assert fraction_moments(hole_moments(spec, depth, *on_lattice(region))) == tuple(expected)
    pts, lattice = on_lattice(region)
    scaled = tuple((k * x, k * y) for x, y in pts)
    assert fraction_moments(Prefractal(spec, depth).moments(scaled, k * lattice)) == tuple(expected)


class TestValidateSpec:
    def test_shrink_ratio_diagnostics(self, spec357):
        diag = validate_spec(spec357)
        assert diag["shrink_ratios"] == (F(3), F(5, 3), F(7, 15))
        assert diag["shrink_monotone_nonincreasing"]

    def test_even_reciprocal_rejected(self):
        with pytest.raises(NonOddReciprocal) as err:
            validate_spec(CarpetSpec((F(1, 4),)))
        assert err.value.index == 1

    def test_ratio_above_one_third_rejected(self):
        with pytest.raises(RatioOutOfRange):
            validate_spec(CarpetSpec((F(1, 2),)))

    def test_constant_sequence_fails_the_hypothesis(self):
        # shrink ratios 3, 1, 1/3 do tend to zero; what fails for the
        # self-similar carpet is square summability (zero area in the limit)
        diag = validate_spec(CarpetSpec((F(1, 3),) * 3, generator="constant"))
        assert diag["shrink_ratios"] == (F(3), F(1), F(1, 3))
        assert diag["square_summable"] is False
        assert diag["hypothesis_satisfied"] is False

    def test_generated_sequence_satisfies_the_hypothesis(self):
        diag = validate_spec(CarpetSpec((), generator="odd-reciprocal"))
        assert diag["hypothesis_satisfied"] is True

    def test_bad_ratios_rejected_under_optimization(self):
        # the checks live in CarpetSpec itself and are no asserts, so they
        # hold under python -O too
        script = (
            "from fractions import Fraction as F\n"
            "from carpetcurl.carpet import CarpetSpec, Prefractal\n"
            "for ratios in ((F(1, 4),), (F(2, 7),), (F(1, 3), F(1, 2))):\n"
            "    try:\n"
            "        print(Prefractal(CarpetSpec(ratios), len(ratios)).measure)\n"
            "    except ValueError as exc:\n"
            "        print(type(exc).__name__, exc.index)\n"
        )
        src = str(Path(carpetcurl.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, check=True, env={"PYTHONPATH": src})
        assert out.stdout.split("\n") == [
            "NonOddReciprocal 1", "NonOddReciprocal 1", "RatioOutOfRange 2", ""]


class TestScales:
    def test_side_lengths(self, spec357):
        assert side_length(spec357, 0) == 1
        assert side_length(spec357, 2) == F(1, 15)
        assert side_length(spec357, 3) == F(1, 105)

    def test_gap_heights(self, spec35, spec357):
        assert gap_height(spec35, 1) == F(2, 3)
        assert gap_height(spec35, 2) == F(4, 15)
        assert gap_height(spec357, 3) == F(2, 35)

    def test_gap_is_side_difference(self, spec357):
        for n in (1, 2, 3):
            assert gap_height(spec357, n) == side_length(spec357, n - 1) - side_length(spec357, n)

    def test_stage_beyond_spec(self, spec35):
        with pytest.raises(StageBeyondSpec):
            side_length(spec35, 3)

    def test_generator_extends(self):
        spec = CarpetSpec((F(1, 3),), generator="odd-reciprocal")
        assert spec.ratio(2) == F(1, 5)
        assert side_length(spec, 3) == F(1, 105)


class TestHoles:
    # int boxes (x0, y0, x1, y1) on the stage-n lattice of scale L_n
    def test_first_stage_single_central_hole(self, spec35):
        assert stage_scale(spec35, 1) == 12
        assert list(enumerate_holes(spec35, 1)) == [(4, 4, 8, 8)]

    def test_second_stage_holes_at_surviving_centers(self, spec35):
        scale = stage_scale(spec35, 2)
        holes = list(enumerate_holes(spec35, 2))
        assert len(holes) == 8
        assert all(F(x1 - x0, scale) == F(y1 - y0, scale) == F(1, 15)
                   for x0, y0, x1, y1 in holes)
        centers = {(F(a, 6), F(b, 6)) for a in (1, 3, 5) for b in (1, 3, 5)}
        centers.discard((F(1, 2), F(1, 2)))
        assert {(F(x0 + x1, 2 * scale), F(y0 + y1, 2 * scale))
                for x0, y0, x1, y1 in holes} == centers

    def test_third_stage_count(self, spec357):
        holes = list(enumerate_holes(spec357, 3))
        assert len(holes) == 192
        # 1/105 on the lattice of scale 420
        assert all(x1 - x0 == y1 - y0 == 4 for x0, y0, x1, y1 in holes)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", SPECS)
    def test_hole_boxes_against_the_membership_oracle(self, name, n):
        # each box is 4 x 4 ints on the stage-n lattice; its centre lies in a
        # stage-n hole and in no earlier one, and its corners on the closure
        spec = SPECS[name]
        scale = stage_scale(spec, n)
        pf = Prefractal(spec, n)
        holes = list(enumerate_holes(spec, n))
        assert len(set(holes)) == len(holes) == square_count(spec, n - 1)
        for x0, y0, x1, y1 in holes:
            assert all(type(v) is int for v in (x0, y0, x1, y1))
            assert x1 - x0 == y1 - y0 == 4
            centre = (F(x0 + 2, scale), F(y0 + 2, scale))
            assert strictly_inside_hole(pf, centre, up_to_stage=n)
            assert not strictly_inside_hole(pf, centre, up_to_stage=n - 1)
            assert meets_closed_hole(pf, (F(x0, scale), F(y1, scale)))

    def test_json_records_shape(self, spec35):
        recs = geometry_json_records(spec35, 1)
        assert recs == [{"stage": 1, "center": [1, 2, 1, 2], "side": [1, 3]}]


class TestMeasure:
    def test_known_values(self, spec3, spec35, spec357):
        assert prefractal_measure(spec3, 1) == F(8, 9)
        assert prefractal_measure(spec35, 2) == F(64, 75)
        assert prefractal_measure(spec357, 0) == 1

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_counting_oracle(self, spec357, m):
        d = side_length(spec357, m)
        total = sum(d * d for _ in enumerate_squares(spec357, m))
        assert total == prefractal_measure(spec357, m)
        assert prefractal_measure(spec357, m) == square_count(spec357, m) * d * d

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_squares_have_side_one_on_their_lattice(self, spec357, m):
        # int corners over 1 / d: each unit square's centre is in the
        # carpet, and the squares tile P_m without overlap
        d = side_length(spec357, m)
        pf = Prefractal(spec357, m)
        corners = list(enumerate_squares(spec357, m))
        assert len(set(corners)) == len(corners) == square_count(spec357, m)
        assert all(type(x) is type(y) is int and 0 <= x < d.denominator and 0 <= y < d.denominator
                   for x, y in corners)
        assert all(contains(pf, ((x + F(1, 2)) * d, (y + F(1, 2)) * d)) for x, y in corners)
        assert list(enumerate_squares(CarpetSpec((F(1, 3),)), 1)) == [
            (0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2), (2, 2)]


class TestCellGrid:
    # the int grid: the stage lines and the cells between them, over L_n
    def test_first_stage(self, spec35):
        scale, lines = stage_lines(spec35, 1)
        assert tuple(F(x, scale) for x in lines[1:-1]) == (F(1, 2),)
        assert len(_cells(lines)) == 4

    def test_second_stage(self, spec35):
        scale, lines = stage_lines(spec35, 2)
        assert tuple(F(x, scale) for x in lines[1:-1]) == (F(1, 6), F(1, 2), F(5, 6))
        cells = _cells(lines)
        assert len(cells) == 16
        cell = next(c for c in cells if F(c[0], scale) == F(1, 6) and F(c[1], scale) == F(1, 6))
        d1 = side_length(spec35, 1)
        assert F((cell[2] - cell[0]) ** 2 + (cell[3] - cell[1]) ** 2, scale ** 2) == 2 * d1 * d1

    def test_third_stage_cuts_match_hole_centers(self, spec357):
        scale, lines = stage_lines(spec357, 3)
        cuts = lines[1:-1]
        xs = {x0 + 2 for x0, _, _, _ in enumerate_holes(spec357, 3)}
        assert set(cuts) == xs
        assert len(cuts) == 15
        assert len(_cells(lines)) == (len(cuts) + 1) ** 2

    def test_cells_cover_unit_square(self, spec35):
        scale, lines = stage_lines(spec35, 2)
        total = sum((x1 - x0) * (y1 - y0) for (x0, y0, x1, y1) in _cells(lines))
        assert total == scale ** 2

    def test_every_hole_center_on_cut_lines(self, spec35):
        _, lines = stage_lines(spec35, 2)
        cuts = set(lines[1:-1])
        for x0, y0, _, _ in enumerate_holes(spec35, 2):
            assert x0 + 2 in cuts
            assert y0 + 2 in cuts

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", SPECS)
    def test_stage_lines_check_their_cells(self, name, n, monkeypatch):
        # every stage_lines call checks its own lines against the previous
        # side, 4 * q_n lattice steps
        spec = SPECS[name]
        checked = []
        monkeypatch.setattr(carpet, "_check_cell_diagonals",
                            lambda *args: checked.append(args))
        scale, lines = stage_lines(spec, n)
        assert checked == [(n, lines, 4 * spec.subdivisions(n))]
        assert scale == lines[-1] == stage_scale(spec, n)

    def test_a_wide_cell_is_rejected_under_optimization(self):
        # the diagonal check is no assert, so it holds under python -O too: a
        # cut moved one step into a half-width border cell widens no gap past
        # the previous side, 20 steps at stage 2, and one moved the other way
        # widens a full gap to 21
        script = (
            "from carpetcurl.carpet import (CarpetSpec, ConstructionError,\n"
            "                               _check_cell_diagonals, stage_lines)\n"
            "spec = CarpetSpec((), 'odd-reciprocal')\n"
            "scale, lines = stage_lines(spec, 2)\n"
            "side = 4 * spec.subdivisions(2)\n"
            "for cuts in (lines, (0, 11, 30, 50, 60), (0, 10, 30, 49, 60), (0, 9, 30, 50, 60),\n"
            "             (0, 10, 29, 50, 60), (0, 10, 31, 50, 60), (0, 10, 30, 51, 60)):\n"
            "    try:\n"
            "        _check_cell_diagonals(2, cuts, side)\n"
            "        print('ok', cuts)\n"
            "    except ConstructionError as exc:\n"
            "        print(type(exc).__name__, exc)\n"
        )
        src = str(Path(carpetcurl.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, check=True, env={"PYTHONPATH": src})
        wide = ("ConstructionError a stage-2 cell 21/60 wide has a diagonal longer than "
                "sqrt(2) * 20/60")
        assert out.stdout.split("\n") == [
            "ok (0, 10, 30, 50, 60)", "ok (0, 11, 30, 50, 60)", "ok (0, 10, 30, 49, 60)",
            wide, wide, wide, wide, ""]


class TestRegionMeasure:
    def test_full_square_equals_measure(self, pf3_1):
        assert pf3_1.region_measure(*on_lattice(UNIT)) == F(8, 9)

    def test_hole_has_zero_measure(self, pf3_1):
        hole = ((F(1, 3), F(1, 3)), (F(2, 3), F(1, 3)), (F(2, 3), F(2, 3)), (F(1, 3), F(2, 3)))
        assert pf3_1.region_measure(*on_lattice(hole)) == 0

    def test_quadrant_by_symmetry(self, pf35_2):
        quad = ((F(0), F(0)), (F(1, 2), F(0)), (F(1, 2), F(1, 2)), (F(0), F(1, 2)))
        assert pf35_2.region_measure(*on_lattice(quad)) == F(16, 75)
        assert pf35_2.region_measure(*on_lattice(quad)) == prefractal_measure(pf35_2.spec, 2) / 4

    @given(oracle_cases(), st.integers(1, 12))
    @example((2, ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))), 7)
    # one region line crosses the unit square and cuts its hole in half
    @example(lattice_case(1, 2, ((0, 0), (2, 0), (2, 1), (0, 1))), 1)
    # holes wholly inside the triangle, beside leaves crossed by one line
    # and corner leaves crossed by two
    @example(lattice_case(3, LATTICE, ((20, 30), (190, 40), (50, 180))), 3)
    # a region inside one level-2 square: the walk starts at j == level
    @example(lattice_case(2, LATTICE, ((1, 1), (10, 2), (3, 9))), 1)
    # a needle whose tip lies in one level-2 square, which all three lines
    # cross, two levels below the level-1 square the walk starts at
    @example(lattice_case(3, LATTICE, ((20, 30), (61, 31), (60, 33))), 1)
    @settings(max_examples=50, deadline=None)
    def test_brute_force_oracle_on_a_triangle(self, case, k):
        # interior closed forms, hole complements and leaf clips
        assert_walk_matches_brute_force(*case, k=k)

    @given(refined_lattice_cases(), st.integers(1, 12))
    # two region lines cross one leaf and meet off the lattice outside the
    # region, so that leaf's cut square is the moved region clipped by the
    # square; the other leaves
    # and a hole are crossed by one line
    @example(lattice_case(2, PRIME_LATTICE, ((66, 156), (169, 7), (183, 56), (180, 62),
                                             (156, 84))), 2)
    # the same at depth 1: all four lines cross the unit square, and two of
    # them its hole
    @example(lattice_case(1, PRIME_LATTICE, ((52, 44), (72, 37), (160, 155), (62, 66))), 1)
    @settings(max_examples=40, deadline=None)
    def test_brute_force_oracle_on_a_refined_lattice(self, case, k):
        # slanted edges cross the grid lines off the carpet's lattice, so the
        # walk must refine its integer lattice until every crossing is on it
        assert_walk_matches_brute_force(*case, k=k)

    @given(depth_four_cases(), st.integers(1, 12))
    # a quadrilateral over one level-2 square: every kind of leaf and hole
    @example(lattice_case(4, DEPTH_FOUR_LATTICE, ((128, 130), (166, 127), (160, 165),
                                                  (131, 150))), 1)
    @settings(max_examples=20, deadline=None)
    def test_brute_force_oracle_in_a_depth_four_window(self, case, k):
        assert_walk_matches_brute_force(*case, spec=DEPTH_FOUR_SPEC, k=k)

    def test_unsupported_monomial_rejected(self, pf35_2):
        tiny = ((F(1, 100), F(1, 100)), (F(1, 50), F(1, 100)), (F(1, 100), F(1, 50)))
        for region in (tiny, UNIT):
            with pytest.raises(ValueError, match="unsupported monomial"):
                pf35_2.integrate(*on_lattice(region), {(3, 0): 1})
            with pytest.raises(ValueError, match="unsupported monomial"):
                pf35_2.integrate(*on_lattice(region), {(0, 0): 1, (1, 2): F(1, 5)})
            # a zero coefficient on it is no term at all
            assert pf35_2.integrate(*on_lattice(region), {(3, 0): F(0), (0, 0): 1}) == \
                pf35_2.region_measure(*on_lattice(region))

    def test_monotone_in_depth(self, spec357):
        tri = ((F(0), F(0)), (F(1), F(0)), (F(1, 3), F(2, 3)))
        vals = [Prefractal(spec357, m).region_measure(*on_lattice(tri)) for m in (0, 1, 2, 3)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_additive_over_partition(self, pf35_2):
        quad = ((F(1, 7), F(1, 9)), (F(6, 7), F(1, 9)), (F(6, 7), F(5, 6)), (F(1, 7), F(5, 6)))
        a = ((F(1, 7), F(1, 9)), (F(6, 7), F(1, 9)), (F(6, 7), F(5, 6)))
        b = ((F(1, 7), F(1, 9)), (F(6, 7), F(5, 6)), (F(1, 7), F(5, 6)))
        assert pf35_2.region_measure(*on_lattice(quad)) == \
            pf35_2.region_measure(*on_lattice(a)) + pf35_2.region_measure(*on_lattice(b))

    @staticmethod
    def assert_rejected(pf, region):
        for _ in range(2):
            with pytest.raises(ValueError, match="not convex"):
                pf.moments(*on_lattice(region))
            with pytest.raises(ValueError, match="not convex"):
                pf.region_measure(*on_lattice(region))
        assert pf._regions == {}

    def test_an_l_shape_is_rejected(self):
        # every region the verifier integrates is a convex patch
        ell = ((F(0), F(0)), (F(1), F(0)), (F(1), F(1, 3)), (F(1, 3), F(1, 3)),
               (F(1, 3), F(1)), (F(0), F(1)))
        self.assert_rejected(Prefractal(CarpetSpec((F(1, 3),)), 1), ell)

    @given(star_regions(), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_a_star_region_is_rejected(self, region, depth):
        self.assert_rejected(Prefractal(CarpetSpec(ORACLE_RATIOS), depth), region)

    @pytest.mark.parametrize("region", [
        ((F(0), F(0)), (F(1, 2), F(1, 2)), (F(1), F(1))),
        ((F(1, 5), F(1, 3)), (F(4, 5), F(1, 3)), (F(2, 5), F(1, 3)), (F(3, 5), F(1, 3))),
        ((F(1, 7), F(1, 9)),),
        (),
    ])
    def test_a_collinear_region_is_rejected(self, spec35, region):
        # a region of zero area is no canonical convex polygon
        self.assert_rejected(Prefractal(spec35, 2), region)

    @pytest.mark.parametrize("region", [
        ((0, 0), (0, 12), (12, 12), (12, 0)),         # clockwise
        ((0, 0), (6, 0), (12, 0), (12, 12), (0, 12)),  # a collinear vertex
        ((0, 0), (12, 0), (12, 0), (12, 12), (0, 12)),  # a repeated vertex
        ((0, 0), (12, 0), (12, 12), (0, 12), (0, 0)),  # a closed ring
    ])
    def test_a_non_canonical_polygon_is_rejected(self, spec35, region):
        # the region is taken as given: nothing reorients or prunes it
        pf = Prefractal(spec35, 2)
        for _ in range(2):
            with pytest.raises(ValueError, match="not convex"):
                pf.moments(region, 12)
        assert pf._regions == {} and pf._classes == {}
        canon = on_lattice(normalize_polygon(unit_polygon(region, 12)))
        assert pf.moments(*canon) == pf.moments(((0, 0), (1, 0), (1, 1), (0, 1)), 1)

    def test_a_non_canonical_region_outside_the_unit_square_raises_out_of_it(self, spec35):
        # the unit-square check comes first; convexity is tested once per
        # shape, when a placement of it has passed that check
        pf = Prefractal(spec35, 2)
        for _ in range(2):
            with pytest.raises(OutOfUnitSquare):
                pf.moments(((0, 0), (0, 12), (18, 12), (18, 0)), 12)  # clockwise
        assert pf._regions == {} and pf._classes == {} and pf._shapes == {}

    @pytest.mark.parametrize("region", [
        ((50, 10), (74, 85), (10, 39), (90, 39), (26, 85)),  # a pentagram
        ((0, 0), (100, 0), (100, 100), (0, 100)) * 2,       # a square twice around
    ])
    def test_a_boundary_winding_twice_is_rejected(self, spec357, region):
        # every vertex is a strict left turn, but the region is no convex polygon
        pf = Prefractal(spec357, 2)
        with pytest.raises(ValueError, match="not convex"):
            pf.moments(region, 100)
        assert pf._regions == {}

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    @pytest.mark.parametrize("rect", [
        (F(2, 105), F(1, 15), F(31, 105), F(2, 5)),    # on the level-3 side lattice
        (F(1, 210), F(11, 211), F(97, 210), F(7, 11)),  # off it
        (F(1, 5), F(3, 10), F(4, 5), F(7, 10)),         # over the stage-1 hole
    ])
    def test_brute_force_oracle_on_a_rectangle(self, rect, depth):
        # a rectangle takes the half-plane test and the lattice-checked clip
        # like any other convex region
        x0, y0, x1, y1 = rect
        assert_walk_matches_brute_force(depth, ((x0, y0), (x1, y0), (x1, y1), (x0, y1)))

    def test_second_moment_recursion_against_hand_integral(self, pf3_1):
        # integral of x^2 over the level-1 set: 1/3 minus 7/243 over the hole
        assert pf3_1.integrate(*on_lattice(UNIT), {(2, 0): F(1)}) == F(74, 243)


PATTERN_SPECS = {"ORACLE_RATIOS": CarpetSpec(ORACLE_RATIOS), **SPECS}


def power_sums(vectors):
    """(count, sum a, sum b, sum a^2, sum ab, sum b^2) of the vectors (a, b)."""
    return (len(vectors), sum(a for a, _ in vectors), sum(b for _, b in vectors),
            sum(a * a for a, _ in vectors), sum(a * b for a, b in vectors),
            sum(b * b for _, b in vectors))


vectors = st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), max_size=5)


class TestPatternMoments:
    @pytest.mark.parametrize("k, m", [(k, m) for m in range(4) for k in range(m + 1)])
    @pytest.mark.parametrize("name", PATTERN_SPECS)
    def test_a_level_k_square_against_the_leaves(self, name, k, m):
        # the level-k square at the origin is covered at level k: its moments
        # are pattern[k]; its left half on the doubled lattice is covered at
        # the levels below and clipped at the leaves
        spec = PATTERN_SPECS[name]
        d = side_length(spec, k)
        for w in (d, d / 2):
            assert_walk_matches_brute_force(m, ((F(0), F(0)), (w, F(0)), (w, d), (F(0), d)),
                                            spec)

    @pytest.mark.parametrize("name", PATTERN_SPECS)
    def test_the_measure_is_the_product_of_the_survival_fractions(self, name):
        # up to level 4, or to the last level a spec without generator defines
        spec = PATTERN_SPECS[name]
        for m in range(5 if spec.generator else len(spec.ratios) + 1):
            assert Prefractal(spec, m).measure == prefractal_measure(spec, m)

    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=6, max_size=6), vectors, vectors)
    @settings(max_examples=200, deadline=None)
    def test_the_shift_is_additive_and_composes(self, t, a, b):
        assert _shifted_moments(t, power_sums(a + b)) == tuple(
            u + v for u, v in zip(_shifted_moments(t, power_sums(a)),
                                  _shifted_moments(t, power_sums(b))))
        assert _shifted_moments(t, power_sums([])) == (0,) * 6
        for (a1, a2), (b1, b2) in zip(a, b):
            assert _shifted_moments(_shifted_moments(t, power_sums([(a1, a2)])),
                                    power_sums([(b1, b2)])) == \
                _shifted_moments(t, power_sums([(a1 + b1, a2 + b2)]))

    @given(oracle_cases(), st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
    @settings(max_examples=50, deadline=None)
    def test_the_shift_moves_a_polygon(self, case, shift):
        # 24 times the moments of a lattice polygon, against its translate's
        _, region = case
        pts = [(int(x * LATTICE), int(y * LATTICE)) for x, y in region]
        moved = [(x + shift[0], y + shift[1]) for x, y in pts]

        def numerators(poly):
            return tuple(v * (24 // div) for v, div in zip(moment_sums(poly), MOMENT_DIVISORS))

        assert _shifted_moments(numerators(pts), power_sums([shift])) == numerators(moved)


@functools.lru_cache(maxsize=None)
def level_survivors(j):
    """Survival flags of the level-j squares of the ORACLE_RATIOS carpet, row
    by row from the bottom, read off ``contains`` at each square's centre
    (which lies on no grid line of level <= j); and the lower-left indices of
    the blocks of 1 x 1 up to 2 x 2 of them, keyed by the blocks' masks."""
    spec = CarpetSpec(ORACLE_RATIOS)
    pf = Prefractal(spec, len(ORACLE_RATIOS))
    d = side_length(spec, j)
    count = int(1 / d)
    alive = [[contains(pf, ((ix + F(1, 2)) * d, (iy + F(1, 2)) * d), up_to_stage=j)
              for ix in range(count)] for iy in range(count)]
    blocks = {}
    for nx, ny in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for iy in range(count - ny + 1):
            for ix in range(count - nx + 1):
                mask = tuple(tuple(row[ix:ix + nx]) for row in alive[iy:iy + ny])
                blocks.setdefault(mask, []).append((ix, iy))
    return alive, blocks


@st.composite
def translated_regions(draw):
    """(depth, region, moved): a convex region and its translate by a level-j
    lattice vector onto a block with the same survival mask, j being the
    deepest level <= depth whose side is at least the region's bbox extent."""
    spec = CarpetSpec(ORACLE_RATIOS)
    depth = draw(st.integers(0, 3))
    # a window as wide as a level-k square, anywhere on the 1/210 lattice
    w = side_length(spec, draw(st.integers(0, depth)))
    ox = F(draw(st.integers(0, int((1 - w) * LATTICE))), LATTICE)
    oy = F(draw(st.integers(0, int((1 - w) * LATTICE))), LATTICE)
    n = draw(st.integers(3, 6))
    region = convex_hull([(ox + w * draw(st.integers(0, 12)) / 12,
                           oy + w * draw(st.integers(0, 12)) / 12) for _ in range(n)])
    assume(len(region) >= 3)
    bx0, by0, bx1, by1 = bbox(region)
    j = max(k for k in range(depth + 1) if side_length(spec, k) >= max(bx1 - bx0, by1 - by0))
    d = side_length(spec, j)
    # the level-j squares that the open bbox meets
    ix0, iy0 = math.floor(bx0 / d), math.floor(by0 / d)
    ix1, iy1 = math.ceil(bx1 / d), math.ceil(by1 / d)
    alive, blocks = level_survivors(j)
    mask = tuple(tuple(row[ix0:ix1]) for row in alive[iy0:iy1])
    ix, iy = draw(st.sampled_from(blocks[mask]))
    moved = tuple((x + (ix - ix0) * d, y + (iy - iy0) * d) for x, y in region)
    return depth, region, moved


class TestTranslationClasses:
    @given(translated_regions())
    @settings(max_examples=80, deadline=None)
    def test_a_warm_class_gives_a_translate_its_fresh_moments(self, case):
        depth, region, moved = case
        spec = CarpetSpec(ORACLE_RATIOS)
        warm = Prefractal(spec, depth)
        warm.moments(*on_lattice(moved))
        assert warm.moments(*on_lattice(region)) == Prefractal(spec, depth).moments(*on_lattice(region))
        # the region was read off its translate's class, not walked again
        assert len(warm._classes) == 1

    def test_a_translate_onto_another_mask_gets_its_own_class(self):
        # level-1 squares (0, 0) and (1, 0) survive; moved up by 1/3 the
        # triangle lies over (0, 1) and the stage-1 hole (1, 1)
        spec = CarpetSpec(ORACLE_RATIOS)
        pf = Prefractal(spec, 2)
        tri = ((F(1, 6), F(1, 30)), (F(1, 2), F(1, 30)), (F(1, 3), F(3, 10)))
        moved = tuple((x, y + F(1, 3)) for x, y in tri)
        area = pf.region_measure(*on_lattice(tri))
        assert 0 < pf.region_measure(*on_lattice(moved)) < area
        assert len(pf._classes) == 2
        assert pf.moments(*on_lattice(moved)) == Prefractal(spec, 2).moments(*on_lattice(moved))


def common_lattice(*regions):
    """The int vertices of rational regions over the lcm of their lattices,
    and that scale."""
    scale = math.lcm(*(on_lattice(r)[1] for r in regions))
    return [tuple((int(x * scale), int(y * scale)) for x, y in r) for r in regions], scale


class TestShapes:
    @given(translated_regions(), st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_translates_on_two_scales_against_the_hole_complement(self, case, k):
        # a region and its translate share one shape per scale: the moments
        # are the hole complement's, cold and with the shapes warm, and the
        # translates share one class per refined lattice, which both scales
        # refine to when their lcms with the level-m side lattice agree
        depth, region, moved = case
        spec = CarpetSpec(ORACLE_RATIOS)
        (pts, to), scale = common_lattice(region, moved)
        queries = [(r, scale) for r in (pts, to)]
        queries += [(tuple((k * x, k * y) for x, y in r), k * scale) for r in (pts, to)]
        pf = Prefractal(spec, depth)
        expected = [hole_moments(spec, depth, *q) for q in queries]
        got = [pf.moments(*q) for q in queries]
        assert all(same_moments(a, b) for a, b in zip(got, expected, strict=True))
        assert len(pf._shapes) == 2
        side = pf.side_scale
        assert len(pf._classes) == (1 if math.lcm(scale, side) == math.lcm(k * scale, side) else 2)
        pf._regions.clear()
        assert [pf.moments(*q) for q in queries] == got
        assert len(pf._shapes) == 2

    @pytest.mark.parametrize("region", [
        ((0, 0), (18, 0), (18, 12), (0, 12)),   # wider than the unit square
        ((0, 0), (12, 0), (12, 13), (0, 13)),   # taller
        ((-3, 0), (15, 6), (0, 9)),             # wider, and past both sides
    ])
    @pytest.mark.parametrize("depth", [0, 2])
    def test_a_region_wider_than_the_unit_square_raises_on_every_call(self, spec35, region, depth):
        # no level's squares are as wide as the region: it raises
        # OutOfUnitSquare, and the level search does not fail on it first
        pf = Prefractal(spec35, depth)
        for _ in range(2):
            with pytest.raises(OutOfUnitSquare):
                pf.moments(region, 12)
        assert pf._regions == {} and pf._classes == {} and pf._shapes == {}

    def test_a_rejected_shape_is_not_kept(self, spec35):
        # a clockwise square fails, and so does its translate: neither the
        # region, nor a class, nor the shape is kept
        pf = Prefractal(spec35, 2)
        square = ((1, 1), (1, 5), (5, 5), (5, 1))
        for shift in (0, 3, 0):
            with pytest.raises(ValueError, match="not convex"):
                pf.moments(tuple((x + shift, y + shift) for x, y in square), 12)
            assert pf._regions == {} and pf._classes == {} and pf._shapes == {}

    def test_a_kept_shape_still_checks_each_placement(self, spec35):
        # a shape first seen outside the unit square is not kept; once a
        # placement inside passed, a placement outside still raises
        pf = Prefractal(spec35, 2)
        tri, out = ((0, 0), (6, 0), (0, 6)), ((8, 8), (14, 8), (8, 14))
        with pytest.raises(OutOfUnitSquare):
            pf.moments(out, 12)
        assert pf._shapes == {}
        assert same_moments(pf.moments(tri, 12), hole_moments(spec35, 2, tri, 12))
        assert len(pf._shapes) == 1
        for _ in range(2):
            with pytest.raises(OutOfUnitSquare):
                pf.moments(out, 12)
        assert list(pf._regions) == [(12, tri)]


class TestRegionMemo:
    TRI = ((F(1, 7), F(1, 9)), (F(6, 7), F(1, 9)), (F(1, 3), F(5, 6)))

    @pytest.mark.parametrize("region, scale", [
        (((0, 0), (0, 0), (0, 0)), 0),
        (((0, 0), (1, 0), (0, 1)), 0),
        (((0, 0), (-1, 0), (0, -1)), -1),
    ])
    def test_a_scale_below_one_is_rejected(self, spec35, region, scale):
        # a named error on every call, before the memo: no division by zero,
        # and nothing is stored
        pf = Prefractal(spec35, 2)
        for _ in range(2):
            with pytest.raises(ValueError, match="scale"):
                pf.moments(region, scale)
            with pytest.raises(ValueError, match="scale"):
                pf.region_measure(region, scale)
        assert pf._regions == {} and pf._classes == {} and pf._shapes == {}

    def test_a_list_region_is_rejected(self, spec357):
        # regions are tuples of vertex pairs; a list is neither computed nor stored
        pf = Prefractal(spec357, 3)
        pts, scale = on_lattice(self.TRI)
        listed = [list(p) for p in pts]
        with pytest.raises(TypeError):
            pf.moments(listed, scale)
        with pytest.raises(TypeError):
            pf.region_measure(listed, scale)
        assert pf._regions == {}

    def test_fraction_vertices_are_rejected(self, spec357):
        # vertices are ints over an int scale; the rectangle has no slanted
        # edge, so only the type check can reject it
        pf = Prefractal(spec357, 3)
        rect = ((F(1, 7), F(1, 9)), (F(6, 7), F(1, 9)), (F(6, 7), F(5, 6)), (F(1, 7), F(5, 6)))
        pts, scale = on_lattice(self.TRI)
        for region, over in ((self.TRI, 1), (rect, 1), (pts, F(scale))):
            for _ in range(2):
                with pytest.raises(TypeError):
                    pf.moments(region, over)
        assert pf._regions == {} and pf._classes == {}
        # equal values hash alike, so the check runs on a stored region too
        pf.moments(pts, scale)
        with pytest.raises(TypeError):
            pf.moments(tuple((F(x), F(y)) for x, y in pts), scale)

    def test_one_int_tuple_on_two_scales_is_two_regions(self, spec357):
        pf = Prefractal(spec357, 3)
        tri = ((1, 1), (7, 1), (1, 7))
        at_60, at_420 = pf.moments(tri, 60), pf.moments(tri, 420)
        assert fraction_moments(at_60) != fraction_moments(at_420)
        assert at_60 == Prefractal(spec357, 3).moments(tri, 60)
        assert at_420 == Prefractal(spec357, 3).moments(tri, 420)
        assert len(pf._regions) == 2

    def test_the_memo_keys_a_region_as_given(self, spec357, monkeypatch):
        # one polygon on two lattices is two entries with equal moments;
        # each is computed once and then looked up
        computed = []
        compute = Prefractal._region_moments

        def counted(self, region, scale):
            computed.append((region, scale))
            return compute(self, region, scale)

        monkeypatch.setattr(Prefractal, "_region_moments", counted)
        pf = Prefractal(spec357, 3)
        tri = ((1, 1), (7, 1), (1, 7))
        on_420 = tuple((7 * x, 7 * y) for x, y in tri)
        assert fraction_moments(pf.moments(tri, 60)) == fraction_moments(pf.moments(on_420, 420))
        assert pf.region_measure(on_420, 420) == fraction_moments(pf.moments(tri, 60))[0]
        assert computed == [(tri, 60), (on_420, 420)]
        assert list(pf._regions) == [(60, tri), (420, on_420)]

    @pytest.mark.parametrize("tri, scale", [
        (((1, 1), (7, 1), (1, 7)), 60),    # axis edges and a diagonal
        (((1, 1), (7, 2), (3, 9)), 60),    # slanted edges refine the lattice
        (((0, 0), (1, 0), (0, 1)), 1),
    ])
    def test_moments_are_int_numerators_over_a_refined_scale(self, spec357, tri, scale):
        # monomial (p, q) is t[i] / (24 * s^(2+p+q)) with s a multiple of the
        # region's scale and of the level-3 side lattice, and the memo keeps
        # that int pair
        pf = Prefractal(spec357, 3)
        t, s = moments = pf.moments(tri, scale)
        assert len(t) == len(MONOMIALS)
        assert all(type(v) is int for v in (*t, s))
        assert s % scale == 0 and s % 105 == 0
        assert pf._regions == {(scale, tri): moments}
        assert pf.region_measure(tri, scale) == F(t[0], 24 * s * s)

    @pytest.mark.parametrize("shift", [(F(0), F(1, 2)), (F(0), F(-1, 2)),
                                       (F(1, 2), F(0)), (F(-1, 2), F(0))])
    def test_a_region_outside_the_unit_square_raises_on_every_call(self, spec35, shift):
        # past each of the four sides in turn
        pf = Prefractal(spec35, 2)
        out = tuple((x + shift[0], y + shift[1]) for x, y in self.TRI)
        for _ in range(2):
            with pytest.raises(OutOfUnitSquare):
                pf.moments(*on_lattice(out))
            with pytest.raises(OutOfUnitSquare):
                pf.region_measure(*on_lattice(out))
        assert pf._regions == {}


class TestTailBounds:
    def test_generated_tail_after_two_stages(self):
        spec = CarpetSpec((F(1, 3), F(1, 5)), generator="odd-reciprocal")
        tail = tail_measure_bounds(spec, 2)
        assert tail.lower == F(11, 12)
        assert tail.lower >= F(3, 4)
        assert tail.upper == 1

    def test_full_product_inside_interval(self):
        spec = CarpetSpec((), generator="odd-reciprocal")
        tail = tail_measure_bounds(spec, 0)
        product = 1.0
        for n in range(1, 4000):
            product *= 1 - 1.0 / (2 * n + 1) ** 2
        assert float(tail.lower) <= product <= float(tail.upper)

    def test_constant_tail_diverges(self):
        spec = CarpetSpec((F(1, 3),), generator="constant")
        with pytest.raises(TailDiverges):
            tail_measure_bounds(spec, 5)

    def test_no_generator_raises(self, spec35):
        with pytest.raises(StageBeyondSpec):
            tail_measure_bounds(spec35, 1)


class TestHoleMembership:
    # the membership oracle of tests/oracles.py
    def test_points(self, pf35_2):
        assert strictly_inside_hole(pf35_2, (F(1, 2), F(1, 2)))
        assert strictly_inside_hole(pf35_2, (F(1, 6), F(1, 6)), up_to_stage=2)
        assert not strictly_inside_hole(pf35_2, (F(1, 6), F(1, 6)), up_to_stage=1)
        # hole boundaries belong to the carpet
        assert not strictly_inside_hole(pf35_2, (F(1, 3), F(1, 2)))
        assert contains(pf35_2, (F(0), F(0)))


class TestColumnObstacles:
    # on the stage-2 lattice of scale 60
    def test_center_column_sees_the_big_hole(self, spec35):
        assert stage_scale(spec35, 2) == 60
        obs = column_obstacles(spec35, 2, 30)
        assert obs == [(8, 12, 2), (20, 40, 1), (48, 52, 2)]
        assert all(type(v) is int for ob in obs for v in ob)

    def test_side_column_sees_three_small_holes(self, spec35):
        obs = column_obstacles(spec35, 2, 10)
        assert [stage for (_, _, stage) in obs] == [2, 2, 2]


class TestConfigParsing:
    def test_ratios_and_generator(self):
        spec = parse_spec_config("ratios = 1/3, 1/5\ngenerator = odd-reciprocal\n")
        assert spec.ratios == (F(1, 3), F(1, 5))
        assert spec.generator == "odd-reciprocal"

    def test_malformed_line_rejected(self):
        with pytest.raises(SpecError):
            parse_spec_config("ratios 1/3\n")

    def test_bad_ratio_rejected(self):
        with pytest.raises(SpecError):
            parse_spec_config("ratios = 1/3, zebra\n")
