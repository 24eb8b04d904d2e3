import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import carpetcurl
from carpetcurl import witness
from carpetcurl.carpet import (
    ConstructionError,
    Prefractal,
    enumerate_holes,
    side_length,
    stage_lines,
    stage_scale,
)
from carpetcurl.fields import refine_pairs
from carpetcurl.geometry import polygon_area
from carpetcurl.report import leq_sqrt_sum_sq
from carpetcurl.witness import (
    _largest,
    build_flattened,
    build_neighborhoods,
    build_ramp,
    build_staircase,
    build_tents,
    check_local_constancy,
    flattening_density,
    per_tent_bound,
    tent_field_bound,
    tents_per_column,
    verify_witness_sequence,
)
from oracles import (
    affine_field,
    build_tent_field,
    build_witness,
    clip_to_box,
    constant_field,
    continuity_defects,
    coordinate_minus,
    curl_defect_sq,
    dirichlet_energy,
    fraction_field,
    fraction_tents,
    lambda_energy,
    l2_norm_sq,
    product_with_gradient,
    staircase_field,
    sup_norm,
    value_at,
    vertical_defect_sq,
)
from test_partition import SPECS

F = Fraction

# the source tree of the imported package, for the python -O subprocesses
SRC = str(Path(carpetcurl.__file__).resolve().parents[1])


def lambda_energy_minus_holes(spec, m, field):
    """Independent energy oracle: full-plane energy minus hole overlaps."""
    holes = []
    for stage in range(1, m + 1):
        scale = stage_scale(spec, stage)
        for box in enumerate_holes(spec, stage):
            holes.append(tuple(F(v, scale) for v in box))
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


def strips(spec, n):
    """The strip bands of the stage-n flattened field, full-width rectangles
    on the stage lattice: their centres, their heights and their total area,
    in unit coordinates."""
    flat = build_flattened(spec, n)
    s = flat.scale
    bands = [flat.patches[i][0] for i in flat.band_tags]
    assert all(b == ((0, b[0][1]), (s, b[0][1]), (s, b[2][1]), (0, b[2][1])) for b in bands)
    centers = tuple(F(b[0][1] + b[2][1], 2 * s) for b in bands)
    heights = {F(b[2][1] - b[0][1], s) for b in bands}
    return centers, heights, sum((polygon_area(b) for b in bands), F(0)) / s ** 2


class TestStrips:
    def test_stage_two(self, spec35):
        centers, heights, area = strips(spec35, 2)
        assert centers == (F(1, 6), F(1, 2), F(5, 6))
        assert heights == {F(1, 15)}
        assert area == F(1, 5)

    def test_stage_one(self, spec3):
        centers, _, area = strips(spec3, 1)
        assert centers == (F(1, 2),)
        assert area == F(1, 3)

    def test_stage_three_count_is_inverse_side(self, spec357):
        centers, _, area = strips(spec357, 3)
        assert len(centers) == 15
        assert area == F(15, 105) == F(1, 7)
        assert len(centers) <= 1 / side_length(spec357, 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", SPECS)
    def test_strip_area_row_is_the_band_area(self, name, n):
        # the strips are centred on the cuts, one stage-n side high, and the
        # strip_area row, 4 steps per band over L_n, is their area and a_n
        spec = SPECS[name]
        scale, lines = stage_lines(spec, n)
        centers, heights, area = strips(spec, n)
        assert centers == tuple(F(c, scale) for c in lines[1:-1])
        assert heights == {side_length(spec, n)}
        flat = build_flattened(spec, n)
        assert F(4 * len(flat.band_tags), flat.scale) == area == spec.ratio(n)

    def test_strip_cover_rejected_under_optimization(self):
        # the strip cover is no assert: a slab rectangle tagged as a band
        # keeps the total cover but not the strip area, under python -O too
        script = (
            "from carpetcurl import witness\n"
            "from carpetcurl.carpet import CarpetSpec, ConstructionError\n"
            "layout = witness._stage_layout\n"
            "def tagged(*args):\n"
            "    for k, (part, *rest) in enumerate(layout(*args)):\n"
            "        yield (witness._BAND if k == 0 else part, *rest)\n"
            "witness._stage_layout = tagged\n"
            "try:\n"
            "    witness.build_flattened(CarpetSpec((), 'odd-reciprocal'), 2)\n"
            "except ConstructionError as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, check=True, env={"PYTHONPATH": SRC})
        # the first slab rectangle, a square of side 8/60, adds 4/225 to the bands' 1/5
        assert out.stdout == "ConstructionError stage-2 strips cover 49/225, not the ratio 1/5\n"


class TestStaircase:
    def test_bands_are_ints_on_the_stage_lattice(self, spec35):
        # full-width bands bottom to top, flat on the strips 4 steps high
        # about each cut, and the profile continuous from 0 at the bottom
        scale, bands = build_staircase(spec35, 2)
        _, lines = stage_lines(spec35, 2)
        assert scale == stage_scale(spec35, 2)
        assert all(type(v) is int for band in bands for v in band)
        assert [b[0] for b in bands[1:]] == [b[1] for b in bands[:-1]]
        assert (bands[0][0], bands[-1][1], bands[0][2]) == (0, scale, 0)
        assert [(y0, y1) for y0, y1, _, slope in bands if not slope] == [
            (c - 2, c + 2) for c in lines[1:-1]]
        for (y0, y1, value, slope), nxt in zip(bands, bands[1:]):
            assert value + slope * (y1 - y0) == nxt[2]

    def test_profile_shape(self, spec35):
        phi = staircase_field(spec35, 2)
        assert value_at(phi, (F(1, 2), F(0))) == 0
        assert value_at(phi, (F(1, 2), F(1))) == 1 - F(1, 5)
        grads = {(p.cx, p.cy) for p in phi.patches}
        assert grads <= {(F(0), F(0)), (F(0), F(1))}

    def test_nondecreasing_in_y(self, spec35):
        phi = staircase_field(spec35, 2)
        samples = [F(k, 37) for k in range(38)]
        values = [value_at(phi, (F(1, 3), y)) for y in samples]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_defect_energy_below_ratio(self, spec3579, n):
        pf = Prefractal(spec3579, n + 1)
        defect = coordinate_minus(staircase_field(spec3579, n))
        assert dirichlet_energy(defect, pf) <= spec3579.ratio(n)


class TestTents:
    def test_stage_one_boundary_tents(self, spec3):
        # on the stage-1 lattice of scale 12
        tents = build_tents(spec3, 1)
        assert len(tents) == 2
        assert all(t.rectangle[2] - t.rectangle[0] == 4 for t in tents)  # 1/3
        # the boundary gaps of 1/3 are half the template height 4 * (3 - 1), 2/3
        assert sorted((t.y_lo, t.y_hi) for t in tents) == [(0, 4), (8, 12)]

    def test_stage_two_census(self, spec35):
        tents = build_tents(spec35, 2)
        assert len(tents) == 12
        per_col = tents_per_column(tents)
        assert set(per_col.values()) == {4}
        assert max(per_col.values()) <= 2 / side_length(spec35, 1)
        template = 4 * (spec35.subdivisions(2) - 1)  # 4/15 at scale 60
        full = [t for t in tents if t.height == template]
        assert len(full) == 4
        assert all(t.height == 8 for t in tents if t not in full)  # 2/15 at scale 60

    def test_interior_gap_is_template_height(self, spec35):
        # between two stage-n holes the gap is the template 4 * (q_n - 1); the
        # Fraction construction names the obstacles on either side
        template = 4 * (spec35.subdivisions(2) - 1)
        kinds = [(o.lower_kind, o.upper_kind) for o in fraction_tents(spec35, 2)]
        assert kinds.count(("hole", "hole")) == 4
        for t, kind in zip(build_tents(spec35, 2), kinds, strict=True):
            assert (t.height == template) == (kind == ("hole", "hole"))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", SPECS)
    def test_tents_carry_their_cell_edge(self, name, n):
        # cut and row name the edge between cells cut and cut + 1 of the row
        # on the int grid: cut k is line k + 1, and row j lies between lines j and j + 1
        spec = SPECS[name]
        _, lines = stage_lines(spec, n)
        tents = build_tents(spec, n)
        for t in tents:
            assert lines[1 + t.cut] == t.column_x
            assert lines[t.row] <= t.y_lo < t.y_hi <= lines[t.row + 1]
        assert len({(t.cut, t.row) for t in tents}) == len(tents)

    def test_tent_outside_its_row_rejected_under_optimization(self):
        # the layout checks each tent against the slab of its own row with
        # no assert, so a shifted row fails under python -O too
        script = (
            "from carpetcurl.carpet import CarpetSpec, ConstructionError\n"
            "from carpetcurl.witness import _stage_layout, build_tents\n"
            "spec = CarpetSpec((), 'odd-reciprocal')\n"
            "tents = build_tents(spec, 2)\n"
            "tents[0] = tents[0]._replace(row=tents[0].row + 1)\n"
            "try:\n"
            "    next(_stage_layout(spec, 2, tents))\n"
            "except ConstructionError as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, check=True, env={"PYTHONPATH": SRC})
        assert out.stdout == "ConstructionError tent at 10/60 not inside the slab of its row 1\n"

    def test_bad_layout_polygon_rejected_under_optimization(self):
        # the int checks that replace make_patch on the stage layout are no
        # asserts: a clockwise and a non-convex trapezoid, then a clockwise
        # core piece, all fail under python -O too
        script = (
            "from carpetcurl import witness\n"
            "from carpetcurl.carpet import CarpetSpec, ConstructionError\n"
            "spec = CarpetSpec((), 'odd-reciprocal')\n"
            "tents = witness.build_tents(spec, 2)\n"
            "witness.build_tents = lambda spec, n: tents\n"
            "bl, br, tr, tl = tents[0].trapezoid\n"
            "dart = (br[0] - 2, bl[1] + 1)\n"
            "layout = witness._stage_layout\n"
            "def flipped(*args):\n"
            "    for part, verts, coeffs, pieces in layout(*args):\n"
            "        yield part, verts, coeffs, [(v[::-1], owner) for v, owner in pieces]\n"
            "for bad in ((bl, tl, tr, br), (bl, br, dart, tl), None):\n"
            "    if bad is None:\n"
            "        del tents[0].__dict__['trapezoid']\n"
            "        witness._stage_layout = flipped\n"
            "    else:\n"
            "        tents[0].__dict__['trapezoid'] = bad\n"
            "    try:\n"
            "        witness.build_flattened(spec, 2)\n"
            "    except ConstructionError as exc:\n"
            "        print(type(exc).__name__, exc)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, check=True, env={"PYTHONPATH": SRC})
        assert out.stdout == (
            "ConstructionError stage-2 patch 1 is not a counterclockwise convex polygon: "
            "(8, 0), (9, 8), (11, 8), (12, 0)\n"
            "ConstructionError stage-2 patch 1 is not a counterclockwise convex polygon: "
            "(8, 0), (12, 0), (10, 1), (9, 8)\n"
            "ConstructionError stage-2 piece 0 is not a counterclockwise convex polygon: "
            "(0, 8), (8, 8), (8, 0), (0, 0)\n")

    def test_closed_form_energy_bound(self, spec3579):
        for n in (1, 2, 3):
            bound = per_tent_bound(spec3579, n)
            scale = stage_scale(spec3579, n)
            for t in build_tents(spec3579, n):
                e = lambda_energy(t, scale)
                h, w = F(t.height, scale), F(4, scale)
                assert e == F(3, 4) * h * w + 4 * h ** 3 / w
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
        field = build_flattened(spec35, 2)
        assert sum(polygon_area(verts) for verts, _, _, _ in field.patches) / field.scale ** 2 == 1
        pf = Prefractal(spec35, 2)
        assert continuity_defects(field, pf, 2) == []

    def test_local_constancy_stage_two(self, spec35):
        field = build_flattened(spec35, 2)
        neighborhoods = build_neighborhoods(spec35, 2, field.tents)
        assert check_local_constancy(field, neighborhoods) == []

    def test_neighborhood_census(self, spec35):
        nbs = build_neighborhoods(spec35, 2, build_tents(spec35, 2))
        interior = [nb for nb in nbs
                    if nb.cell[0] > 0 and nb.cell[1] > 0 and nb.cell[2] < 60 and nb.cell[3] < 60]
        assert len(interior) == 4
        for nb in interior:
            assert len(nb.rectangles) == 2
            assert len(nb.trapezoids) == 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_clockwise_translate_of_a_passed_piece_is_named(self, n, monkeypatch):
        # convexity is tested once per shape: the last piece whose shape
        # passed earlier, turned clockwise about its first vertex, has the
        # same vertex set relative to it but is a new shape and is rejected
        spec = SPECS["odd-reciprocal"]
        layout = witness._stage_layout
        pieces = [verts for *_, ps in layout(spec, n, tuple(build_tents(spec, n)))
                  for verts, _ in ps]
        shapes = [tuple((x - v[0][0], y - v[0][1]) for x, y in v) for v in pieces]
        first = {}
        for i, shape in enumerate(shapes):
            first.setdefault(shape, i)
        bad = max(i for i, shape in enumerate(shapes) if first[shape] < i)

        def clockwise(verts):
            return verts[:1] + verts[:0:-1]

        def flipped(*args):
            index = 0
            for part, verts, coeffs, cell_pieces in layout(*args):
                out = []
                for piece in cell_pieces:
                    out.append((clockwise(piece[0]), piece[1]) if index == bad else piece)
                    index += 1
                yield part, verts, coeffs, out

        monkeypatch.setattr(witness, "_stage_layout", flipped)
        with pytest.raises(ConstructionError) as exc:
            build_flattened(spec, n)
        assert str(exc.value) == (
            f"stage-{n} piece {bad} is not a counterclockwise convex polygon: "
            + ", ".join(f"({x}, {y})" for x, y in clockwise(pieces[bad])))

    def test_triangle_inequality_instance(self, spec357):
        pf = Prefractal(spec357, 3)
        field = build_flattened(spec357, 2)
        e_flat = dirichlet_energy(coordinate_minus(field), pf)
        e_tent = dirichlet_energy(build_tent_field(spec357, 2), pf)
        assert leq_sqrt_sum_sq(e_flat, F(1, 5), e_tent)

    def test_vertical_defect_below_full_defect(self, spec357):
        pf = Prefractal(spec357, 3)
        field = build_flattened(spec357, 2)
        vd = vertical_defect_sq(field, pf)
        assert vd <= dirichlet_energy(coordinate_minus(field), pf)


    @pytest.mark.parametrize("gx, gy", [(0, 1), (-7, 1), (0, 0)])
    def test_flattening_density_is_the_int_pair_of_the_squared_gradient(self, gx, gy):
        # the stage's flattened slopes are ints; the pair is |grad(y - p)|^2
        num, den = flattening_density(gx, gy)
        assert den == 1 and F(num, den) == gx ** 2 + (1 - gy) ** 2


class TestRamp:
    def test_sup_below_previous_side(self, spec35):
        ramp = build_ramp(build_flattened(spec35, 2), (1, 0, 0))
        assert F(*ramp.sup_norm) == F(1, 6)
        assert F(*ramp.sup_norm) <= side_length(spec35, 1)

    def test_core_gradient_is_horizontal(self, spec35):
        # off the seams the ramp must slide horizontally at unit rate
        ramp = build_ramp(build_flattened(spec35, 2), (1, 0, 0))
        horizontal = [p for p in fraction_field(ramp).patches if (p.cx, p.cy) == (F(1), F(0))]
        assert sum(polygon_area(p.vertices) for p in horizontal) > F(1, 2)

    def test_continuity_off_holes(self, spec35):
        pf = Prefractal(spec35, 2)
        ramp = build_ramp(build_flattened(spec35, 2), (1, 0, 0))
        assert continuity_defects(ramp, pf, 2) == []


    def test_bad_seam_rejected_under_optimization(self):
        # a seam keeps its vertex tuple unnormalized, so its orientation
        # check, and the check that two of its vertices share an owner, are
        # no asserts: a clockwise, a degenerate and a three-owner seam
        script = (
            "from carpetcurl.carpet import ConstructionError\n"
            "from carpetcurl.witness import FlattenedField, build_cell_field\n"
            "z, h, o = 0, 1, 2  # on the lattice of scale 2\n"
            "cells = ((z, z, h, h), (h, z, o, h), (z, h, o, o))\n"
            "for seam in ((((z, z), (z, o), (o, z)), (0, 1, 1)),\n"
            "             (((z, z), (h, h), (o, o)), (0, 1, 1)),\n"
            "             (((z, z), (o, z), (o, o)), (0, 1, 2))):\n"
            "    flattened = FlattenedField((), 2, (seam,), (0,), (), (), cells, ())\n"
            "    try:\n"
            "        build_cell_field(flattened, [(1, 0)] * 3, 1)\n"
            "    except ConstructionError as exc:\n"
            "        print(type(exc).__name__, exc)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, check=True, env={"PYTHONPATH": SRC})
        assert out.stdout == (
            "ConstructionError seam 0 is not a counterclockwise triangle: (0, 0), (0, 2), (2, 0)\n"
            "ConstructionError seam 0 is not a counterclockwise triangle: "
            "(0, 0), (1, 1), (2, 2)\n"
            "ConstructionError seam 0 has three owners (0, 1, 2)\n")


class TestWitnessField:
    def test_vanishes_on_neighborhoods(self, spec35):
        from carpetcurl.geometry import clip_convex

        flattened = build_flattened(spec35, 2)
        neighborhoods = build_neighborhoods(spec35, 2, flattened.tents)
        ramp = build_ramp(flattened, (1, 0, 0))
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
        flattened = build_flattened(spec357, 2)
        ramp = build_ramp(flattened, (1, 0, 0))
        v = product_with_gradient(ramp, flattened)
        assert l2_norm_sq(v, pf357_3) == F(138571421, 1944810000)

    def test_curl_defect_equals_vertical_defect_for_unit_target(self, spec357, pf357_3):
        flattened = build_flattened(spec357, 2)
        ramp = build_ramp(flattened, (1, 0, 0))
        cd = curl_defect_sq(ramp, flattened, constant_field(1), pf357_3)
        assert cd == vertical_defect_sq(flattened, pf357_3)
        assert cd == F(536, 2205)


class TestVerifySequence:
    def test_small_run_flags(self, spec35):
        report = verify_witness_sequence((1, 0, 0), n_max=2, pf=Prefractal(spec35, 2))
        assert report.get("witness", 1, "strip_area").value == F(1, 3)
        assert report.get("witness", 2, "tent_count_per_column_max").passed
        assert report.get("witness", 2, "local_constancy_violations").passed
        assert report.get("witness", 2, "curl_defect_l2").passed
        # the witness norm rises from the degenerate first stage to the
        # second: the strict-decrease flag reports that honestly
        assert report.get("witness", None, "witness_l2_strictly_decreasing").passed is False

    @pytest.mark.parametrize("f", [(1, 0, 0), (F(-7, 3), 0, 0), (0, 1, 0),
                                   (F(1, 3), F(2, 5), F(-3, 7)), (F(1, 2), -1, -1)])
    def test_f_sup_is_the_vertex_sup_norm(self, spec35, f):
        # sup|f| is read off the target's corners: the oracle's max of
        # |value| over the patch vertices, times the previous side
        report = verify_witness_sequence(f, n_max=2, pf=Prefractal(spec35, 1))
        for n in (1, 2):
            assert report.get("witness", n, "ramp_sup").bound == \
                sup_norm(affine_field(*f)) * side_length(spec35, n - 1)

    @given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 10 ** 6)), max_size=8))
    # the larger numerator is the smaller value, and the product of a pair's
    # own parts would rank them the other way too
    @example([(2, 3), (1, 1)])
    @example([])
    @settings(max_examples=200, deadline=None)
    def test_the_worst_tent_is_the_largest_pair(self, pairs):
        # tent_energy_max compares the tents' int pairs by cross-multiplication
        assert _largest(pairs) == max((F(n, d) for n, d in pairs), default=F(0))


class TestBuildWitnessApi:
    def test_checked_build_passes(self, spec35):
        field = build_flattened(spec35, 2)
        neighborhoods = build_neighborhoods(spec35, 2, field.tents)
        assert check_local_constancy(field, neighborhoods) == []
        v = build_witness(spec35, 2, (1, 0, 0), flattened=field)
        assert len(v.pieces) > 0

    def test_violation_detected_on_a_broken_field(self, spec35):
        field = build_flattened(spec35, 2)
        neighborhoods = build_neighborhoods(spec35, 2, field.tents)
        # tilt one constant strip-band patch: it overlaps the neighborhoods
        i = field.band_tags[0]
        verts, c0, _, _ = field.patches[i]
        patches = field.patches[:i] + ((verts, c0, 1, 1),) + field.patches[i + 1:]
        broken = field._replace(patches=patches)
        violations = check_local_constancy(broken, neighborhoods)
        assert violations and {patch for _, patch in violations} == {i}
        # each distinct piece is clipped once: the violations must be the
        # ones a clip of every cell's own pieces gives, in that order
        sloped = [k for k, (_, _, cx, cy) in enumerate(patches) if cx or cy]
        brute = [(nb.cell_index, sloped[ib]) for nb in neighborhoods
                 for _, _, ib in refine_pairs(nb.pieces(), [patches[k][0] for k in sloped])]
        assert violations == brute
        # the band's strip rectangles are shared by the cells below and above
        # it, and each of those cells reports the tilted band
        shared = [r for r in {r for nb in neighborhoods for r in nb.rectangles}
                  if refine_pairs([r], [verts])]
        assert shared
        for r in shared:
            owners = {nb.cell_index for nb in neighborhoods if r in nb.rectangles}
            assert len(owners) == 2 and {(cell, i) for cell in owners} <= set(violations)
