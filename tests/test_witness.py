import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import carpetcurl
from carpetcurl.carpet import Prefractal, enumerate_holes, side_length
from carpetcurl.fields import (
    constant_field,
    dirichlet_energy,
    l2_norm_sq,
    product_with_gradient,
    sup_norm,
)
from carpetcurl.geometry import clip_to_box, polygon_area
from carpetcurl.report import leq_sqrt_sum_sq
from carpetcurl.witness import (
    build_flattened,
    build_neighborhoods,
    build_ramp,
    build_staircase,
    build_strips,
    build_tent_field,
    build_tents,
    check_local_constancy,
    coordinate_minus,
    curl_defect_sq,
    per_tent_bound,
    tent_field_bound,
    tents_per_column,
    vertical_defect_sq,
    verify_witness_sequence,
)

F = Fraction


def lambda_energy_minus_holes(spec, m, field):
    """Independent energy oracle: full-plane energy minus hole overlaps."""
    holes = []
    for stage in range(1, m + 1):
        for h in enumerate_holes(spec, stage):
            (x0, x1), (y0, y1) = h.x_range, h.y_range
            holes.append((x0, y0, x1, y1))
    total = F(0)
    for patch in field.patches:
        g2 = patch.cx ** 2 + patch.cy ** 2
        if g2 == 0:
            continue
        area = polygon_area(patch.vertices)
        xs = [v[0] for v in patch.vertices]
        ys = [v[1] for v in patch.vertices]
        for (hx0, hy0, hx1, hy1) in holes:
            if hx1 <= min(xs) or hx0 >= max(xs) or hy1 <= min(ys) or hy0 >= max(ys):
                continue
            piece = clip_to_box(patch.vertices, hx0, hy0, hx1, hy1)
            if piece:
                area -= polygon_area(piece)
        total += g2 * area
    return total


class TestStrips:
    def test_stage_two(self, spec35):
        s = build_strips(spec35, 2)
        assert s.y_centers == (F(1, 6), F(1, 2), F(5, 6))
        assert s.height == F(1, 15)
        assert s.total_area == F(1, 5)

    def test_stage_one(self, spec3):
        s = build_strips(spec3, 1)
        assert s.y_centers == (F(1, 2),)
        assert s.total_area == F(1, 3)

    def test_stage_three_count_is_inverse_side(self, spec357):
        s = build_strips(spec357, 3)
        assert len(s.y_centers) == 15
        assert s.total_area == F(15, 105) == F(1, 7)
        assert len(s.y_centers) <= 1 / side_length(spec357, 2)


class TestStaircase:
    def test_profile_shape(self, spec35):
        phi = build_staircase(spec35, 2)
        assert phi.value_at((F(1, 2), F(0))) == 0
        assert phi.value_at((F(1, 2), F(1))) == 1 - F(1, 5)
        grads = {(p.cx, p.cy) for p in phi.patches}
        assert grads <= {(F(0), F(0)), (F(0), F(1))}

    def test_nondecreasing_in_y(self, spec35):
        phi = build_staircase(spec35, 2)
        samples = [F(k, 37) for k in range(38)]
        values = [phi.value_at((F(1, 3), y)) for y in samples]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_defect_energy_below_ratio(self, spec3579, n):
        pf = Prefractal(spec3579, n + 1)
        defect = coordinate_minus(build_staircase(spec3579, n))
        assert dirichlet_energy(defect, pf) <= spec3579.ratio(n)


class TestTents:
    def test_stage_one_boundary_tents(self, spec3):
        tents = build_tents(spec3, 1)
        assert len(tents) == 2
        assert all(t.width == F(1, 3) for t in tents)
        # the template height 2/3 exceeds the boundary gaps of 1/3
        assert all(t.template_height == F(2, 3) for t in tents)
        assert sorted((t.y_lo, t.y_hi) for t in tents) == [(F(0), F(1, 3)), (F(2, 3), F(1))]

    def test_stage_two_census(self, spec35):
        tents = build_tents(spec35, 2)
        assert len(tents) == 12
        per_col = tents_per_column(tents)
        assert set(per_col.values()) == {4}
        assert max(per_col.values()) <= 2 / side_length(spec35, 1)
        full = [t for t in tents if t.height == t.template_height]
        assert len(full) == 4
        assert all(t.height == F(2, 15) for t in tents if t not in full)

    def test_interior_gap_is_template_height(self, spec35):
        for t in build_tents(spec35, 2):
            if t.lower_kind == t.upper_kind == "hole":
                assert t.height == t.template_height

    def test_closed_form_energy_bound(self, spec3579):
        for n in (1, 2, 3):
            bound = per_tent_bound(spec3579, n)
            for t in build_tents(spec3579, n):
                e = t.lambda_energy()
                assert e == F(3, 4) * t.height * t.width + 4 * t.height ** 3 / t.width
                assert e <= bound


class TestTentField:
    def test_sup_is_the_gap_height(self, spec35):
        assert sup_norm(build_tent_field(spec35, 2)) == F(4, 15)

    def test_stage_two_energy_against_hole_oracle(self, spec357):
        pf = Prefractal(spec357, 3)
        psi = build_tent_field(spec357, 2)
        value = dirichlet_energy(psi, pf)
        assert value == F(7096, 1225)
        assert value == lambda_energy_minus_holes(spec357, 3, psi)
        assert value <= tent_field_bound(spec357, 2)

    def test_stage_one_energy(self, spec35):
        pf = Prefractal(spec35, 2)
        psi = build_tent_field(spec35, 1)
        assert dirichlet_energy(psi, pf) == F(157, 150)

    def test_stage_three_exceeds_the_advertised_bound(self, spec3579):
        # the tent census scales with the inverse squared side, not with the
        # inverse side: the printed stage-three envelope is exceeded even
        # though every per-tent estimate holds
        pf = Prefractal(spec3579, 4)
        psi = build_tent_field(spec3579, 3)
        value = dirichlet_energy(psi, pf)
        assert value == F(1337344, 99225)
        assert value > tent_field_bound(spec3579, 3) == F(33, 7)


class TestFlattened:
    def test_total_cover_and_continuity(self, spec35):
        field, _ = build_flattened(spec35, 2)
        assert field.total_area() == 1
        pf = Prefractal(spec35, 2)
        assert field.continuity_defects(pf, 2) == []

    def test_local_constancy_stage_two(self, spec35):
        field, neighborhoods = build_flattened(spec35, 2)
        assert check_local_constancy(field, neighborhoods) == []

    def test_neighborhood_census(self, spec35):
        nbs = build_neighborhoods(spec35, 2)
        interior = [nb for nb in nbs
                    if nb.cell[0] > 0 and nb.cell[1] > 0 and nb.cell[2] < 1 and nb.cell[3] < 1]
        assert len(interior) == 4
        for nb in interior:
            assert len(nb.rectangles) == 2
            assert len(nb.trapezoids) == 2

    def test_triangle_inequality_instance(self, spec357):
        pf = Prefractal(spec357, 3)
        field, _ = build_flattened(spec357, 2)
        e_flat = dirichlet_energy(coordinate_minus(field), pf)
        e_tent = dirichlet_energy(build_tent_field(spec357, 2), pf)
        assert leq_sqrt_sum_sq(e_flat, F(1, 5), e_tent)

    def test_vertical_defect_below_full_defect(self, spec357):
        pf = Prefractal(spec357, 3)
        field, _ = build_flattened(spec357, 2)
        vd = vertical_defect_sq(field, pf)
        assert vd <= dirichlet_energy(coordinate_minus(field), pf)


class TestRamp:
    def test_sup_below_previous_side(self, spec35):
        ramp = build_ramp(spec35, 2, constant_field(1))
        assert sup_norm(ramp) == F(1, 6)
        assert sup_norm(ramp) <= side_length(spec35, 1)

    def test_core_gradient_is_horizontal(self, spec35):
        # off the seams the ramp must slide horizontally at unit rate
        ramp = build_ramp(spec35, 2, constant_field(1))
        horizontal = [p for p in ramp.patches if (p.cx, p.cy) == (F(1), F(0))]
        assert sum(polygon_area(p.vertices) for p in horizontal) > F(1, 2)

    def test_continuity_off_holes(self, spec35):
        pf = Prefractal(spec35, 2)
        ramp = build_ramp(spec35, 2, constant_field(1))
        assert ramp.continuity_defects(pf, 2) == []


    def test_uncovered_target_rejected_under_optimization(self):
        # the coverage check is no assert, so it holds under python -O too
        script = (
            "from fractions import Fraction as F\n"
            "from carpetcurl.carpet import CarpetSpec, ConstructionError\n"
            "from carpetcurl.fields import constant_field\n"
            "from carpetcurl.witness import build_ramp\n"
            "corner = ((0, 0), (F(1, 10), 0), (F(1, 10), F(1, 10)), (0, F(1, 10)))\n"
            "try:\n"
            "    build_ramp(CarpetSpec((F(1, 3),)), 1, constant_field(1, corner))\n"
            "except ConstructionError as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        src = str(Path(carpetcurl.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, check=True, env={"PYTHONPATH": src})
        assert out.stdout == \
            "ConstructionError target function does not cover the cell center (1/4, 1/4)\n"


class TestWitnessField:
    def test_vanishes_on_neighborhoods(self, spec35):
        from carpetcurl.geometry import clip_convex

        flattened, neighborhoods = build_flattened(spec35, 2)
        ramp = build_ramp(spec35, 2, constant_field(1))
        v = product_with_gradient(ramp, flattened)
        # product pieces only exist where the flattened gradient is nonzero,
        # so no piece may overlap a boundary neighborhood
        overlap = F(0)
        for nb in neighborhoods:
            for region in nb.pieces():
                for (piece_region, _, _) in v.pieces:
                    inner = clip_convex(piece_region, region)
                    if inner:
                        overlap += polygon_area(inner)
        assert overlap == 0

    def test_norm_against_forms_path(self, spec357, pf357_3):
        # the same integral arises as the squared norm of the stage-two
        # cutoff one-form; the two code paths must agree exactly
        flattened, _ = build_flattened(spec357, 2)
        ramp = build_ramp(spec357, 2, constant_field(1))
        v = product_with_gradient(ramp, flattened)
        assert l2_norm_sq(v, pf357_3) == F(138571421, 1944810000)

    def test_curl_defect_equals_vertical_defect_for_unit_target(self, spec357, pf357_3):
        flattened, _ = build_flattened(spec357, 2)
        ramp = build_ramp(spec357, 2, constant_field(1))
        cd = curl_defect_sq(ramp, flattened, constant_field(1), pf357_3)
        assert cd == vertical_defect_sq(flattened, pf357_3)
        assert cd == F(536, 2205)


class TestVerifySequence:
    def test_small_run_flags(self, spec35):
        report = verify_witness_sequence(spec35, constant_field(1), n_max=2, m=2)
        assert report.get("witness", 1, "strip_area").value == F(1, 3)
        assert report.get("witness", 2, "tent_count_per_column_max").passed
        assert report.get("witness", 2, "local_constancy_violations").passed
        assert report.get("witness", 2, "curl_defect_l2").passed
        # the witness norm rises from the degenerate first stage to the
        # second: the strict-decrease flag reports that honestly
        assert report.get("witness", None, "witness_l2_strictly_decreasing").passed is False


class TestBuildWitnessApi:
    def test_checked_build_passes(self, spec35):
        from carpetcurl.witness import build_witness
        field, _ = build_flattened(spec35, 2, check=True)
        v = build_witness(spec35, 2, constant_field(1), flattened=field)
        assert len(v.pieces) > 0

    def test_violation_detected_on_a_broken_field(self, spec35):
        from carpetcurl.fields import PiecewiseAffineField, make_patch

        field, neighborhoods = build_flattened(spec35, 2)
        # tilt one constant strip-band patch: it overlaps the neighborhoods
        band = next(p for p in field.patches if (p.cx, p.cy) == (F(0), F(0)))
        others = tuple(p for p in field.patches if p is not band)
        broken = PiecewiseAffineField(others + (
            make_patch(band.vertices, band.c0, 1, 1),))
        assert check_local_constancy(broken, neighborhoods) != []
