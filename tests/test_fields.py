from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpetcurl.carpet import CarpetSpec, Prefractal, prefractal_measure
from carpetcurl.fields import (
    PCScalarField,
    PiecewiseAffineField,
    SupportMismatch,
    _BoxIndex,
    affine_field,
    constant_field,
    coordinate_field,
    curl,
    dirichlet_energy,
    field_from_json,
    field_to_json,
    gradient,
    l2_norm_sq,
    make_patch,
    overlay,
    product_with_gradient,
    refine_pairs,
    sup_norm,
)
from carpetcurl.geometry import bbox, clip_convex, normalize_polygon, polygon_area
from carpetcurl.witness import (
    build_flattened,
    build_ramp,
    build_staircase,
    build_tent_field,
    build_tents,
    coordinate_minus,
)

from conftest import UNIT, random_grid_field, seeded

F = Fraction


class TestGradient:
    def test_coordinate_field(self):
        g = gradient(coordinate_field("y"))
        assert g.pieces[0][1:] == (F(0), F(1))

    def test_constant_strip_patch(self):
        field = PiecewiseAffineField((make_patch(UNIT, F(7), 0, 0),))
        assert gradient(field).pieces[0][1:] == (F(0), F(0))

    def test_tent_side_patch_slope(self, spec35):
        # side slope 4 * gap / width at stage two: 4 * (4/15) / (1/15) = 16
        psi = build_tent_field(spec35, 2)
        slopes = {abs(p.cx) for p in psi.patches if p.cx != 0}
        assert F(16) in slopes


class TestCurl:
    def test_vertical_shear(self):
        v = product_with_gradient(coordinate_field("x"), coordinate_field("y"))
        assert curl(v).pieces[0][1] == 1

    def test_curl_of_gradients_vanishes(self):
        rng = seeded(7)
        one = constant_field(1)
        for _ in range(50):
            f = random_grid_field(rng)
            pieces = curl(product_with_gradient(one, f)).pieces
            assert all(val == 0 for (_, val) in pieces)


class TestOverlay:
    def test_two_by_two(self):
        a = [((F(0), F(0)), (F(1, 2), F(0)), (F(1, 2), F(1)), (F(0), F(1))),
             ((F(1, 2), F(0)), (F(1), F(0)), (F(1), F(1)), (F(1, 2), F(1)))]
        b = [((F(0), F(0)), (F(1), F(0)), (F(1), F(1, 3)), (F(0), F(1, 3))),
             ((F(0), F(1, 3)), (F(1), F(1, 3)), (F(1), F(1)), (F(0), F(1)))]
        pieces = overlay(a, b)
        assert len(pieces) == 4
        assert sum(polygon_area(r) for r, _, _ in pieces) == 1

    def test_self_overlay_preserves_area(self, spec35):
        phi = build_staircase(spec35, 2)
        pieces = overlay(phi, phi)
        assert sum(polygon_area(r) for r, _, _ in pieces) == 1

    def test_support_mismatch_detected(self):
        a = [UNIT]
        b = [((F(0), F(0)), (F(1, 2), F(0)), (F(1, 2), F(1)), (F(0), F(1)))]
        with pytest.raises(SupportMismatch):
            overlay(a, b)

    def test_grid_times_strips_all_rectangles(self, spec35):
        from carpetcurl.carpet import cell_grid
        grid = cell_grid(spec35, 2)
        cells = [((x0, y0), (x1, y0), (x1, y1), (x0, y1)) for (x0, y0, x1, y1) in grid.cells]
        phi = build_staircase(spec35, 2)
        pieces = overlay(cells, phi)
        assert sum(polygon_area(r) for r, _, _ in pieces) == 1
        assert all(len(r) == 4 for r, _, _ in pieces)


def boxes_overlap(b, q, closed):
    if closed:
        return b[0] <= q[2] and q[0] <= b[2] and b[1] <= q[3] and q[1] <= b[3]
    return b[0] < q[2] and q[0] < b[2] and b[1] < q[3] and q[1] < b[3]


@st.composite
def indexed_boxes(draw):
    # boxes on two lattices, 1/105 and 1/420, so the index's scale is their
    # lcm; widths and heights are often zero, and some boxes are full-width
    # strips like the staircase bands
    den = draw(st.sampled_from((105, 420)))

    def interval():
        lo = draw(st.integers(0, den))
        size = draw(st.sampled_from((0, 1)) | st.integers(0, den - lo))
        return F(lo, den), F(min(den, lo + size), den)

    y0, y1 = interval()
    if draw(st.integers(0, 3)) == 0:
        return (F(0), y0, F(1), y1)
    x0, x1 = interval()
    return (x0, y0, x1, y1)


@st.composite
def query_boxes(draw, boxes):
    # denominators 11 and 13 (and 420 times them) occur in no indexed box
    den = draw(st.sampled_from((11, 13)))
    if boxes and draw(st.booleans()):
        # each end within two steps of an edge of an indexed box: the query
        # touches it along an edge or at a corner, straddles an edge, covers
        # it or misses it, by less than one lattice step for the fine unit
        unit = draw(st.sampled_from((F(1, den), F(1, 420 * den))))

        def near(lo, hi):
            return sorted(draw(st.sampled_from((lo, hi))) + unit * draw(st.integers(-2, 2))
                          for _ in range(2))

        x0, y0, x1, y1 = draw(st.sampled_from(boxes))
        (qx0, qx1), (qy0, qy1) = near(x0, x1), near(y0, y1)
        return (qx0, qy0, qx1, qy1)
    x0, y0 = (F(draw(st.integers(-den // 2, den)), den) for _ in range(2))
    w, h = (F(draw(st.integers(0, den)), den) for _ in range(2))
    return (x0, y0, x0 + w, y0 + h)


class TestBoxIndex:
    @given(st.lists(indexed_boxes(), max_size=30), st.data())
    @settings(max_examples=200, deadline=None)
    def test_candidates_are_the_exact_overlaps_in_index_order(self, boxes, data):
        index = _BoxIndex(boxes, key=lambda b: b)
        for _ in range(4):
            q = data.draw(query_boxes(boxes))
            for closed in (False, True):
                assert list(index.candidates(q, closed)) == \
                    [i for i, b in enumerate(boxes) if boxes_overlap(b, q, closed)]

    def test_empty_index(self):
        index = _BoxIndex([], key=bbox)
        for closed in (False, True):
            assert list(index.candidates((F(0), F(0), F(1), F(1)), closed)) == []

    def test_refine_pairs_against_all_pairs(self):
        # stage-2 ramp (92 patches) against the flattened field (57): the
        # index must find exactly the pieces that trying every pair finds,
        # in the same order
        spec = CarpetSpec((), "odd-reciprocal")
        tents = build_tents(spec, 2)
        flattened, _ = build_flattened(spec, 2, tents)
        ramp = build_ramp(spec, 2, constant_field(1), tents)
        regions_a = [p.vertices for p in ramp.patches]
        regions_b = [p.vertices for p in flattened.patches]
        assert (len(regions_a), len(regions_b)) == (92, 57)
        expected = []
        for ia, ra in enumerate(regions_a):
            for ib, rb in enumerate(regions_b):
                if not boxes_overlap(bbox(rb), bbox(ra), closed=False):
                    continue
                piece = clip_convex(ra, rb)
                if piece and polygon_area(piece) > 0:
                    expected.append((normalize_polygon(piece), ia, ib))
        assert refine_pairs(regions_a, regions_b) == expected


class TestDirichletEnergy:
    def test_coordinate_energy_is_the_measure(self, spec357):
        for m in (0, 1, 2):
            pf = Prefractal(spec357, m)
            assert dirichlet_energy(coordinate_field("y"), pf) == prefractal_measure(spec357, m)

    def test_constant_has_no_energy(self, pf35_2):
        assert dirichlet_energy(constant_field(3), pf35_2) == 0

    def test_strip_defect_energy_at_stage_two(self, spec35, pf35_2):
        # the defect of the staircase lives on the strips: three rows of
        # surviving level-2 squares give (12 + 8 + 12) / 225
        defect = coordinate_minus(build_staircase(spec35, 2))
        value = dirichlet_energy(defect, pf35_2)
        assert value == F(32, 225)
        assert value <= F(1, 5)

    def test_energy_invariant_under_refinement(self, spec35, pf35_2):
        from carpetcurl.carpet import cell_grid
        phi = build_staircase(spec35, 2)
        grid = cell_grid(spec35, 2)
        cells = [((x0, y0), (x1, y0), (x1, y1), (x0, y1)) for (x0, y0, x1, y1) in grid.cells]
        refined = []
        for region, ip, _ in refine_pairs([p.vertices for p in phi.patches], cells):
            src = phi.patches[ip]
            refined.append(make_patch(region, src.c0, src.cx, src.cy))
        assert dirichlet_energy(PiecewiseAffineField(tuple(refined)), pf35_2) == \
            dirichlet_energy(phi, pf35_2)

    def test_tail_interval_scales_the_value(self):
        spec = CarpetSpec((F(1, 3), F(1, 5)), generator="odd-reciprocal")
        pf = Prefractal(spec, 2)
        value, (lo, hi) = dirichlet_energy(coordinate_field("y"), pf, with_tail=True)
        assert value == F(64, 75)
        assert lo == value * F(11, 12)
        assert hi == value


class TestL2Norm:
    def test_constant_one(self, pf35_2):
        assert l2_norm_sq(constant_field(1), pf35_2) == F(64, 75)

    def test_coordinate_on_full_square(self, spec3):
        pf0 = Prefractal(spec3, 0)
        assert l2_norm_sq(coordinate_field("x"), pf0) == F(1, 3)

    def test_coordinate_on_level_one(self, pf3_1):
        assert l2_norm_sq(coordinate_field("x"), pf3_1) == F(74, 243)

    def test_moment_oracle_on_full_square(self, spec3):
        pf0 = Prefractal(spec3, 0)
        assert l2_norm_sq(constant_field(1), pf0) == 1
        assert l2_norm_sq(coordinate_field("x"), pf0) == F(1, 3)
        assert l2_norm_sq(coordinate_field("y"), pf0) == F(1, 3)
        # the squared quadratic x^2 integrates to 1/5 over the unit square
        sq = pf0.integrate(UNIT, {(2, 0): F(0), (0, 0): F(0), (1, 0): F(0)})
        assert sq == 0
        quartic = {(2, 0): F(1)}
        assert pf0.integrate(UNIT, quartic) == F(1, 3)

    def test_pc_scalar(self, pf3_1):
        field = PCScalarField(((UNIT, F(2)),))
        assert l2_norm_sq(field, pf3_1) == 4 * F(8, 9)


class TestSupNorm:
    def test_coordinate(self):
        assert sup_norm(coordinate_field("y")) == 1

    def test_shifted(self):
        assert sup_norm(affine_field(F(-1, 2), 1, 0)) == F(1, 2)

    def test_tent_cover_peaks_at_gap_height(self, spec35):
        assert sup_norm(build_tent_field(spec35, 2)) == F(4, 15)

    def test_vertex_dominates_interior_samples(self):
        rng = seeded(11)
        field = random_grid_field(rng)
        bound = sup_norm(field)
        for _ in range(1000):
            p = (F(rng.randint(0, 64), 64), F(rng.randint(0, 64), 64))
            v = field.value_at(p)
            if v is not None:
                assert abs(v) <= bound


class TestPatchInvariants:
    def test_cauchy_schwarz_pointwise(self):
        rng = seeded(3)
        for _ in range(25):
            f = random_grid_field(rng)
            g = random_grid_field(rng)
            for region, i, j in refine_pairs([p.vertices for p in f.patches],
                                             [p.vertices for p in g.patches]):
                pf_, pg_ = f.patches[i], g.patches[j]
                dot = pf_.cx * pg_.cx + pf_.cy * pg_.cy
                assert dot * dot <= (pf_.cx ** 2 + pf_.cy ** 2) * (pg_.cx ** 2 + pg_.cy ** 2)

    def test_continuity_check_accepts_grid_fields(self):
        rng = seeded(5)
        for _ in range(5):
            f = random_grid_field(rng)
            assert f.continuity_defects() == []

    def test_continuity_check_spots_a_jump(self):
        left = make_patch(((F(0), F(0)), (F(1, 2), F(0)), (F(1, 2), F(1)), (F(0), F(1))), 0, 0, 0)
        right = make_patch(((F(1, 2), F(0)), (F(1), F(0)), (F(1), F(1)), (F(1, 2), F(1))), 1, 0, 0)
        field = PiecewiseAffineField((left, right))
        assert field.continuity_defects() != []


class TestSerialization:
    def test_round_trip(self, spec35):
        phi = build_staircase(spec35, 2)
        data = field_to_json(phi)
        back = field_from_json(data)
        assert back == phi


class TestVectorSerialization:
    def test_product_field_wire_format(self, spec35):
        from carpetcurl.fields import product_with_gradient, vector_field_to_json
        from carpetcurl.witness import build_flattened, build_ramp

        flattened, _ = build_flattened(spec35, 1)
        ramp = build_ramp(spec35, 1, constant_field(1))
        v = product_with_gradient(ramp, flattened)
        payload = vector_field_to_json(v)
        assert payload["kind"] == "product"
        piece = payload["pieces"][0]
        assert len(piece["coeffs"]) == 2
        assert all(len(triple) == 3 for triple in piece["coeffs"])

    def test_constant_field_wire_format(self):
        from carpetcurl.fields import vector_field_to_json
        payload = vector_field_to_json(gradient(coordinate_field("y")))
        assert payload["kind"] == "constant"
        assert payload["pieces"][0]["coeffs"][1][0] == [1, 1]
