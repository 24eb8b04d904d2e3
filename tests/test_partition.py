"""The tagged stage partition against the generic refinement API.

``verify`` evaluates every stage integral as a sum over one partition whose
patches carry, by construction, the index of the flattened patch containing
them, and reads the wedge constants off closed forms.  The refinement
calculus in ``oracles`` (``refine_pairs``, ``product_with_gradient``,
``curl_defect_sq``, the form inner products) recomputes the same quantities
independently, so these tests pin the tags and every tagged row to it.
"""

import functools
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import carpetcurl
from carpetcurl import cli, forms, witness
from carpetcurl.carpet import (
    CarpetSpec,
    ConstructionError,
    Prefractal,
    _row_ranges,
    _survival,
    side_length,
    stage_lines,
    stage_scale,
)
from carpetcurl.fields import refine_pairs
from carpetcurl.forms import verify_wedge_approximation
from carpetcurl.geometry import bbox, polygon_area
from carpetcurl.witness import (
    affine_target,
    build_cell_field,
    build_flattened,
    build_neighborhoods,
    build_ramp,
    build_stage,
    build_tents,
    verify_witness_sequence,
)
from oracles import (
    AffinePatch,
    PiecewiseAffineField,
    affine_field,
    build_cutoff_form,
    coordinate_field,
    coordinate_minus,
    crossing,
    curl_defect_sq,
    d0,
    d1,
    dirichlet_energy,
    field_patches,
    fraction_cell_field,
    fraction_cells,
    fraction_field,
    fraction_layout,
    fraction_neighborhoods,
    fraction_ramp,
    fraction_tents,
    fraction_wedge_rows,
    fraction_witness_rows,
    flattened_field,
    in_unit,
    int_slopes,
    unit_polygon,
    gamma,
    hole_moments,
    l2_norm_sq,
    make_patch,
    norm_sq_one,
    norm_sq_two,
    patch_from_vertex_values,
    product_with_gradient,
    same_moments,
    staircase_field,
    sup_norm,
    vertical_defect_sq,
    wedge,
)
from test_geometry import ref_clip_convex, ref_polygon_area2

F = Fraction

SPECS = {
    "odd-reciprocal": CarpetSpec((), generator="odd-reciprocal"),
    "1/3,1/5 constant": CarpetSpec((F(1, 3), F(1, 5)), generator="constant"),
    "1/5,1/3,1/7": CarpetSpec((F(1, 5), F(1, 3), F(1, 7))),
}
# an affine target (c0, cx, cy), so the curl defect needs all six moments
# of a patch
TARGET = (2, -3, 5)
# the row oracle's targets, as ``--f`` spells them and ``cli._target`` reads
# them: the int constant 1, as the benchmark's seeds draw, a Fraction
# constant, and a sloped one, whose curl defect has degree 2
ROW_TARGETS = {selector: cli._target(selector)
               for selector in ("const", "affine:-7/3,0,0", "affine:1/2,1/3,-1/5")}
# the cell fields' targets: the row targets and TARGET, which varies in y
CELL_TARGETS = {**ROW_TARGETS, "TARGET": TARGET}
RATIONALS = st.builds(F, st.integers(-4, 4), st.integers(1, 5))


def regions(field):
    return [p.vertices for p in field.patches]


def patch_tuples(field):
    return [(p.vertices, p.c0, p.cx, p.cy) for p in field.patches]


@functools.lru_cache(maxsize=None)
def flattened_stage(name, n):
    return build_flattened(SPECS[name], n)


def unit_centers(flat):
    """The grid cells' centres in unit coordinates."""
    return [(F(x0 + x1, 2 * flat.scale), F(y0 + y1, 2 * flat.scale))
            for x0, y0, x1, y1 in flat.cells]


def solved_cell_field(flat, slopes):
    """The cell field with each cell's map written about its centre and every
    seam solved from its three vertex values, each its owner's map there, in
    unit coordinates."""
    maps = [(F(gx), F(gy), cx, cy)
            for (cx, cy), (gx, gy) in zip(unit_centers(flat), slopes, strict=True)]

    def value(owner, p):
        gx, gy, cx, cy = maps[owner]
        return gx * (p[0] - cx) + gy * (p[1] - cy)

    patches = []
    for verts, owner in flat.pieces:
        verts = unit_polygon(verts, flat.scale)
        if isinstance(owner, int):
            gx, gy, cx, cy = maps[owner]
            patches.append(make_patch(verts, -gx * cx - gy * cy, gx, gy))
        else:
            patches.append(patch_from_vertex_values(
                verts, *(value(o, p) for o, p in zip(owner, verts))))
    return PiecewiseAffineField(tuple(patches), 1)


class TestTags:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", SPECS)
    def test_tags_equal_the_refinement(self, name, n):
        spec = SPECS[name]
        stage = build_stage(spec, n, (1, 0, 0))
        flat, ramp = stage.flattened, fraction_field(stage.ramp)
        assert len(flat.cell_tags) == len(ramp.patches)
        # every ramp patch lies inside exactly its tagged flattened patch
        assert refine_pairs(regions(ramp), regions(flattened_field(flat))) == [
            (p.vertices, i, t) for i, (p, t) in enumerate(zip(ramp.patches, flat.cell_tags))]
        # the cutoff remainder has the ramp's polygons, so the same refinement
        _, remainder = build_cutoff_form(spec, n, coordinate_field("x"), flat)
        assert regions(fraction_field(remainder)) == regions(ramp)
        # a tent's trapezoid and side triangles are flattened patches
        for t, tags in zip(stage.tents, flat.tent_tags):
            assert [unit_polygon(flat.patches[i][0], flat.scale) for i in tags] == regions(
                PiecewiseAffineField(field_patches(t, flat.scale), 1))
        # the tagged pieces tile each flattened patch, except that the cell
        # field leaves out the stage-n hole squares on the strip bands:
        # side_n^2 per cut a band crosses, a_n^2 in all; areas on the lattice
        tiled = [F(0)] * len(flat.patches)
        for p, t in zip(ramp.patches, flat.cell_tags):
            tiled[t] += polygon_area(p.vertices)
        hole = (side_length(spec, n) * flat.scale) ** 2
        cuts = len(stage_lines(spec, n)[1]) - 2
        for i, (verts, _, _, _) in enumerate(flat.patches):
            short = cuts * hole if i in flat.band_tags else 0
            assert tiled[i] == polygon_area(verts) - short
        assert len(flat.band_tags) * cuts * hole == (spec.ratio(n) * flat.scale) ** 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", SPECS)
    def test_local_constancy_refinement_is_the_brute_force(self, name, n):
        # check_local_constancy's overlay of the int neighbourhood pieces
        # with the sloped flattened patches, then with every flattened patch
        # so that the pairs are not all empty: refine_pairs finds the pairs,
        # and pieces of the unit areas, that clipping every pair whose open
        # bboxes meet finds on the Fraction images
        flat = flattened_stage(name, n)
        scale = flat.scale
        pieces = [piece for nb in build_neighborhoods(SPECS[name], n, flat.tents)
                  for piece in nb.pieces()]
        sloped = [verts for verts, _, cx, cy in flat.patches if cx or cy]
        for regions_b in (sloped, [verts for verts, _, _, _ in flat.patches]):
            boxes_b = [bbox(b) for b in regions_b]
            expected = []
            for ia, a in enumerate(pieces):
                ax0, ay0, ax1, ay1 = bbox(a)
                for ib, (bx0, by0, bx1, by1) in enumerate(boxes_b):
                    if ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1:
                        clip = ref_clip_convex(unit_polygon(a, scale),
                                               unit_polygon(regions_b[ib], scale))
                        if clip and ref_polygon_area2(clip) > 0:
                            expected.append((ia, ib, ref_polygon_area2(clip) / 2))
            assert [(ia, ib, polygon_area(piece) / scale ** 2)
                    for piece, ia, ib in refine_pairs(pieces, regions_b)] == expected
        assert expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", SPECS)
    def test_the_flattened_field_carries_its_tents(self, name, n):
        flat = flattened_stage(name, n)
        assert flat.tents == tuple(build_tents(SPECS[name], n))
        # tent_tags[k] are the patches built on the very tuples of tents[k]
        for t, tags in zip(flat.tents, flat.tent_tags, strict=True):
            verts = [flat.patches[i][0] for i in tags]
            assert len(verts) == 3
            assert all(v is w for v, w in zip(verts, (t.trapezoid, *t.triangles)))

    def test_each_stage_walks_its_layout_once(self, monkeypatch):
        calls = []
        walk = witness._stage_layout

        def counted(*args):
            calls.append(args[1])
            return walk(*args)

        monkeypatch.setattr(witness, "_stage_layout", counted)
        spec = SPECS["odd-reciprocal"]
        stage = build_stage(spec, 2, (1, 0, 0))
        assert calls == [2]
        # the tents' own tuples are the flattened trapezoids and triangles
        # and the neighbourhood trapezoids
        flat, t = stage.flattened, stage.tents[0]
        assert [flat.patches[i][0] for i in flat.tent_tags[0]] == [t.trapezoid, *t.triangles]
        assert flat.patches[flat.tent_tags[0][0]][0] is t.trapezoid
        assert any(q is t.trapezoid for nb in stage.neighborhoods for q in nb.trapezoids)
        calls.clear()
        verify_wedge_approximation((0, 1, 0), (2, 3), pf=Prefractal(spec, 1))
        assert calls == [2, 3]

    def test_every_cell_patch_holds_its_piece_tuple(self):
        # cores, tent sides and seams keep the vertex tuple the layout
        # yields: the ramp maps the stage's own pieces, and each witness
        # piece is one of them
        stage = build_stage(SPECS["odd-reciprocal"], 3, (1, 0, 0))
        pieces = stage.flattened.pieces
        assert stage.ramp.flattened is stage.flattened
        assert len(pieces) == len(stage.ramp.maps) == 1668
        sloped = [verts for (verts, _), t in zip(pieces, stage.flattened.cell_tags)
                  if stage.flattened.patches[t][2:] != (0, 0)]
        assert len(stage.witness.pieces) == len(sloped)
        assert all(v is verts for (v, _, _), verts in zip(stage.witness.pieces, sloped))

    def test_witness_equals_the_product_with_gradient(self):
        stage = build_stage(SPECS["1/5,1/3,1/7"], 2, TARGET)
        assert in_unit(stage.witness) == product_with_gradient(stage.ramp, stage.flattened)


# L_n, the scale of the stage-n lattice, for stages 1 to 3
SCALES = {"odd-reciprocal": (12, 60, 420), "1/3,1/5 constant": (12, 60, 300),
          "1/5,1/3,1/7": (20, 60, 420)}


def int_polygons(polys):
    return all(type(v) is int for poly in polys for p in poly for v in p)


class TestStageLattice:
    """The int stage against the Fraction construction it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", SPECS)
    def test_the_stage_is_the_fraction_stage_on_its_lattice(self, name, n):
        spec = SPECS[name]
        flat = flattened_stage(name, n)
        scale = flat.scale
        assert scale == stage_scale(spec, n) == SCALES[name][n - 1]

        def unit(poly):
            return unit_polygon(poly, scale)

        old_tents = fraction_tents(spec, n)
        # a tent is 4 steps wide, its template gap 4 * (q_n - 1), and its
        # side slope its int height
        template = 4 * (spec.subdivisions(n) - 1)
        for t, o in zip(flat.tents, old_tents, strict=True):
            lengths = (t.column_x, t.y_lo, t.y_hi, 4, template)
            assert all(type(v) is int for v in lengths)
            assert [F(v, scale) for v in lengths] == [
                o.column_x, o.y_lo, o.y_hi, o.width, o.template_height]
            assert (t.cut, t.row) == (o.cut, o.row)
            assert t.height == o.side_slope
            assert [F(v, scale) for v in t.rectangle] == list(o.rectangle)
            shapes = (t.trapezoid, *t.triangles)
            assert int_polygons(shapes)
            assert [unit(p) for p in shapes] == [o.trapezoid, *o.triangles]

        pieces = []
        for (part, verts, (c0, cx, cy), cell_pieces), old, patch in zip(
                witness._stage_layout(spec, n, flat.tents),
                fraction_layout(spec, n, old_tents), flat.patches, strict=True):
            o_part, o_verts, o_coeffs, o_pieces = old
            assert part == o_part
            assert patch == (verts, c0, cx, cy) and int_polygons([verts])
            assert all(type(v) is int for v in (c0, cx, cy))
            assert (F(c0, scale), cx, cy) == o_coeffs
            # make_patch of the Fraction patch, which the int checks replace
            assert AffinePatch(unit(verts), F(c0, scale), cx, cy) == make_patch(
                o_verts, *o_coeffs)
            assert int_polygons([v for v, _ in cell_pieces])
            assert [(unit(v), owner) for v, owner in cell_pieces] == o_pieces
            assert all(make_patch(v, 0).vertices == v for v, _ in o_pieces)
            pieces += cell_pieces
        assert list(flat.pieces) == pieces

        old_neighborhoods = fraction_neighborhoods(spec, n, old_tents)
        assert [tuple(F(v, scale) for v in cell) for cell in flat.cells] == [
            old.cell for old in old_neighborhoods]
        assert [tuple(F(v, scale) for v in cell) for cell in flat.cells] == fraction_cells(
            spec, n)
        for nb, old in zip(build_neighborhoods(spec, n, flat.tents), old_neighborhoods,
                           strict=True):
            assert nb.cell_index == old.cell_index
            assert all(type(v) is int for v in nb.cell)
            assert tuple(F(v, scale) for v in nb.cell) == old.cell
            assert int_polygons(nb.pieces())
            assert [unit(p) for p in nb.pieces()] == list(old.pieces())


class TestCellFields:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", SPECS)
    def test_owned_pieces_carry_their_cell_maps(self, name, n):
        # a core or tent-side piece takes its owner's map verbatim, written
        # out here in full: b(c)*(x - c_x) for the ramp of the target triple
        # and b - b(c) for the oracle's wedge remainder of its field b
        spec = SPECS[name]
        flat = build_flattened(spec, n)
        centers = unit_centers(flat)
        cases = {}
        for label, f in CELL_TARGETS.items():
            b = affine_field(*f)
            _, remainder = build_cutoff_form(spec, n, b, flat)
            b = b.patches[0]
            cases[f"ramp of {label}"] = (build_ramp(flat, f), [
                (-b.value_at(c) * c[0], b.value_at(c), F(0)) for c in centers])
            cases[f"remainder of {label}"] = (remainder, [
                (b.c0 - b.value_at(c), b.cx, b.cy) for c in centers])
        for label, (field, maps) in cases.items():
            owned = [((p.c0, p.cx, p.cy), maps[owner])
                     for p, (_, owner) in zip(fraction_field(field).patches, flat.pieces)
                     if isinstance(owner, int)]
            assert owned, label
            assert all(got == want for got, want in owned), label

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", SPECS)
    def test_seams_equal_the_vertex_value_solve(self, name, n):
        # the closed-form seams against the 3x3 solve, patch for patch
        flat = flattened_stage(name, n)
        centers = unit_centers(flat)
        cases = {}
        for label, f in CELL_TARGETS.items():
            b = affine_field(*f).patches[0]
            cases[f"ramp of {label}"] = [(b.value_at(c), 0) for c in centers]
            cases[f"wedge gradient of {label}"] = [b.gradient] * len(centers)
        for label, slopes in cases.items():
            field = build_cell_field(flat, *int_slopes(slopes))
            assert patch_tuples(in_unit(field)) == patch_tuples(solved_cell_field(flat, slopes)), label
            # the one int sup against every patch at every vertex over L
            assert F(*field.sup_norm) == max(abs(p.value_at(v)) for p in in_unit(field).patches
                                             for v in p.vertices), label
        # TARGET varies in y, so the owners of a band seam differ there and
        # the seam is sloped in y although every cell map is horizontal
        ramp = build_ramp(flat, TARGET)
        band = set(flat.band_tags)
        assert any(cy for (_, _, cy, _), t in zip(ramp.maps, flat.cell_tags) if t in band)

    # no shrink phase: shrinking a list of 256 slopes takes minutes, and the
    # failing patch shows in the assertion's first differing index anyway
    @given(st.data())
    @settings(max_examples=30, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_seams_equal_the_solve_for_any_slopes(self, data):
        flat = flattened_stage(data.draw(st.sampled_from(sorted(SPECS))),
                               data.draw(st.integers(1, 3)))
        slopes = data.draw(st.lists(st.tuples(RATIONALS, RATIONALS),
                                    min_size=len(flat.cells), max_size=len(flat.cells)))
        field = build_cell_field(flat, *int_slopes(slopes))
        assert patch_tuples(in_unit(field)) == patch_tuples(solved_cell_field(flat, slopes))
        assert F(*field.sup_norm) == max(abs(p.value_at(v)) for p in in_unit(field).patches
                                         for v in p.vertices)

    def test_one_slope_per_cell(self):
        flat = build_flattened(SPECS["odd-reciprocal"], 1)
        for slopes in ([(1, 0)] * (len(flat.cells) - 1), [(1, 0)] * (len(flat.cells) + 1)):
            with pytest.raises(ValueError):
                build_cell_field(flat, slopes, 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", SPECS)
    def test_the_remainder_of_x_is_the_ramp_of_one(self, name, n):
        # x - c_x on every cell either way, so the two fields agree patch
        # for patch, seams included
        flat = build_flattened(SPECS[name], n)
        _, remainder = build_cutoff_form(SPECS[name], n, coordinate_field("x"), flat)
        ramp = build_ramp(flat, (1, 0, 0))
        assert any(not isinstance(owner, int) for _, owner in flat.pieces)
        assert patch_tuples(fraction_field(remainder)) == patch_tuples(fraction_field(ramp))



class TestIntCellFields:
    """The int cell fields against the ``Fraction`` construction they
    replaced (``oracles.fraction_cell_field``): every piece's map and the
    sup, on the three specs at stages 1 to 3."""

    @staticmethod
    def assert_equals_the_oracle(field, oracle, label):
        assert all(type(v) is int for m in field.maps for v in m), label
        assert all(type(v) is int for v in field.sup_norm), label
        assert patch_tuples(fraction_field(field)) == patch_tuples(oracle), label
        assert F(*field.sup_norm) == sup_norm(oracle), label

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", SPECS)
    def test_the_ramps_and_the_wedge_remainder(self, name, n):
        # the ramp's int evaluation at the cell centres against value_at on
        # the Fraction centres, for each row target
        flat = flattened_stage(name, n)
        for label, f in ROW_TARGETS.items():
            self.assert_equals_the_oracle(build_ramp(flat, f), fraction_ramp(flat, f), label)
        # the wedge section's remainder for the gradient (1, 0), as for f = x
        wedge_slopes = [(1, 0)] * len(flat.cells)
        self.assert_equals_the_oracle(build_cell_field(flat, wedge_slopes, 1),
                                      fraction_cell_field(flat, wedge_slopes), "wedge (1, 0)")

    def test_a_seam_takes_its_owners_values_into_the_sup(self):
        # on a stage every seam vertex lies on its owner's own pieces, so a
        # field of seams alone is what shows the seam vertices in the sup
        cells = ((0, 0, 1, 1), (1, 0, 2, 1), (0, 1, 2, 2))
        seams = ((((0, 0), (2, 0), (0, 2)), (0, 1, 1)), (((2, 0), (2, 2), (0, 2)), (1, 2, 1)))
        flat = witness.FlattenedField((), 2, seams, (0, 0), (), (), cells, ())
        slopes = [(3, -1), (-2, 5), (1, 4)]
        field = build_cell_field(flat, slopes, 7)
        oracle = fraction_cell_field(flat, [(F(gx, 7), F(gy, 7)) for gx, gy in slopes])
        self.assert_equals_the_oracle(field, oracle, "seams alone")
        assert field.sup_norm[0] > 0

    # no shrink phase, as for the seam solve above
    @given(st.data())
    @settings(max_examples=30, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_any_int_slopes_over_any_denominator(self, data):
        flat = flattened_stage(data.draw(st.sampled_from(sorted(SPECS))),
                               data.draw(st.integers(1, 3)))
        den = data.draw(st.integers(1, 60))
        slopes = data.draw(st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
                                    min_size=len(flat.cells), max_size=len(flat.cells)))
        self.assert_equals_the_oracle(
            build_cell_field(flat, slopes, den),
            fraction_cell_field(flat, [(F(gx, den), F(gy, den)) for gx, gy in slopes]), den)


def generic_rows(spec, f, n, m):
    """Stage-n rows of both verifiers for the target triple ``f``, recomputed
    through the refinement API on its field."""
    pf = Prefractal(spec, m)
    stage = build_stage(spec, n, f)
    f = affine_field(*f)
    flat, ramp = stage.flattened, stage.ramp
    tent_energies = [dirichlet_energy(PiecewiseAffineField(field_patches(t, flat.scale), 1), pf)
                     for t in stage.tents]
    e_flat = dirichlet_energy(coordinate_minus(flat), pf)
    ramp_sup_sq = F(*ramp.sup_norm) ** 2
    omega, _ = build_cutoff_form(spec, n, f, flat)
    y = coordinate_field("y")
    wedge_fg = wedge(d0(f), d0(y))
    wedge_flat = wedge(d0(f), d0(flat))
    return {
        ("witness", n, "strip_defect_energy"): (
            dirichlet_energy(coordinate_minus(staircase_field(spec, n)), pf), None),
        ("witness", n, "tent_energy_max"): (max(tent_energies), None),
        ("witness", n, "tent_field_energy"): (sum(tent_energies), None),
        ("witness", n, "flattened_defect_energy"): (e_flat, None),
        ("witness", n, "witness_l2"): (l2_norm_sq(product_with_gradient(ramp, flat), pf),
                                       ramp_sup_sq * dirichlet_energy(flat, pf)),
        ("witness", n, "curl_defect_l2"): (curl_defect_sq(ramp, flat, f, pf), None),
        ("witness", n, "vertical_defect"): (vertical_defect_sq(flat, pf), e_flat),
        ("wedge", None, "wedge_norm_sq"): (norm_sq_two(wedge_fg, pf), None),
        ("wedge", n, "cutoff_form_l2"): (norm_sq_one(omega, pf), None),
        ("wedge", n, "wedge_defect_primary"): (
            norm_sq_two(wedge_fg - wedge_flat, pf),
            2 * gamma(f, f, pf).essential_sup ** 2 * e_flat),
        ("wedge", n, "wedge_defect_secondary"): (norm_sq_two(wedge_flat - d1(omega), pf), None),
    }


@functools.lru_cache(maxsize=None)
def stage_regions(name, n):
    """The vertex tuples of the stage-n ramp and flattened patches, and their scale."""
    flat = flattened_stage(name, n)
    return (tuple(verts for verts, _ in flat.pieces)
            + tuple(verts for verts, _, _, _ in flat.patches), flat.scale)


class TestTranslationClasses:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", SPECS)
    def test_shared_classes_give_every_patch_its_fresh_moments(self, name, n):
        spec = SPECS[name]
        regions, scale = stage_regions(name, n)
        for m in spec_depths(name):
            shared = Prefractal(spec, m)
            # cold, the regions share translation classes, and
            # TestHoleComplement checks each cold value on this same grid;
            # warm, each region's moments come from its kept shape and class
            # and must repeat them
            cold = [shared.moments(r, scale) for r in regions]
            assert [shared.moments(r, scale) for r in regions] == cold, m
            assert all(type(v) is tuple for v in cold)

    def test_no_state_is_kept_per_region(self):
        # two passes over the distinct stage-3 regions give equal moments,
        # and the prefractal keeps state per shape, class, orbit and cut
        # square only: every dict it holds is smaller than the region count
        regions, scale = stage_regions("odd-reciprocal", 3)
        distinct = sorted(set(regions))
        assert len(distinct) == 1933
        pf = Prefractal(SPECS["odd-reciprocal"], 4)
        first = [pf.moments(r, scale) for r in distinct]
        assert [pf.moments(r, scale) for r in distinct] == first
        sizes = {name: len(v) for name, v in vars(pf).items() if type(v) is dict}
        assert sizes and all(n < len(distinct) for n in sizes.values()), sizes
        assert sizes["_classes"] == 70

    def test_stage_three_at_depth_four_takes_few_walks(self, monkeypatch):
        walks = []
        walk = Prefractal._walk

        def counted(self, *args):
            walks.append(args)
            return walk(self, *args)

        monkeypatch.setattr(Prefractal, "_walk", counted)
        pf = Prefractal(SPECS["odd-reciprocal"], 4)
        regions, scale = stage_regions("odd-reciprocal", 3)
        for region in regions:
            pf.moments(region, scale)
        # one walk per mirror orbit of translation classes, which was one
        # walk per class before the orbits and one per each of the 2,605
        # patches before the classes
        assert len(walks) == len(pf._orbits) == 37 <= len(pf._classes) == 70


def flip_x(moments, side):
    """A set's six moment numerators on an int lattice moved to those of its
    image under x -> side - x, monomial by monomial: x^p y^q integrates over
    the image as (side - x)^p y^q over the set."""
    t00, t10, t01, t20, t11, t02 = moments
    return (t00, side * t00 - t10, t01, side * side * t00 - 2 * side * t10 + t20,
            side * t01 - t11, t02)


def swap_xy(moments):
    """The moments of a set's image under (x, y) -> (y, x)."""
    t00, t10, t01, t20, t11, t02 = moments
    return (t00, t01, t10, t02, t11, t20)


class TestMirrorOrbits:
    """A class walk serves every class in its orbit under the eight
    symmetries of the square, which the prefractal's pattern has."""

    @pytest.mark.parametrize("name", SPECS)
    def test_every_level_pattern_has_the_squares_symmetries(self, name):
        pf = Prefractal(SPECS[name], spec_depths(name)[-1])
        for k, pattern in enumerate(pf.pattern):
            side = pf.side_ints[k]
            t00, t10, t01, t20, _, t02 = pattern
            # the centroid is the square's centre and m20 = m02
            assert 2 * t10 == 2 * t01 == side * t00 and t20 == t02, k
            # the flip and the swap generate the eight symmetries
            assert flip_x(pattern, side) == pattern and swap_xy(pattern) == pattern, k

    # a triangle whose bbox meets four level-1 squares of side 30 on the
    # lattice 1/90, one of them the stage-1 hole [30, 60]^2, and none of
    # whose images under the unit square's symmetries is a translate of
    # another
    SPEC = CarpetSpec((F(1, 3), F(1, 3)))
    TRIANGLE = ((22, 24), (40, 27), (26, 42))
    # its translate down by 20, whose bbox meets two surviving level-1
    # squares of one row: a block wider than high
    LOW_TRIANGLE = ((22, 4), (40, 7), (26, 22))

    def images(self, side, triangle=TRIANGLE):
        # the triangle's images under the symmetries of [0, side]^2,
        # counterclockwise: a reflection reverses the vertex order
        out = []
        for swap in (False, True):
            for fx in (False, True):
                for fy in (False, True):
                    verts = [(y, x) if swap else (x, y) for x, y in triangle]
                    verts = [(side - x if fx else x, side - y if fy else y) for x, y in verts]
                    out.append(tuple(verts[::-1] if swap ^ fx ^ fy else verts))
        return out

    @pytest.fixture
    def walks(self, monkeypatch):
        walks = []
        walk = Prefractal._walk

        def counted(self, *args):
            walks.append(args)
            return walk(self, *args)

        monkeypatch.setattr(Prefractal, "_walk", counted)
        return walks

    @pytest.mark.parametrize("triangle, masks", [
        # the four 2 x 2 blocks, each holding the hole in another corner
        (TRIANGLE, {((True, True), (True, False)), ((True, True), (False, True)),
                    ((True, False), (True, True)), ((False, True), (True, True))}),
        # blocks of two squares in a row or a column, where a flip moves
        # the region by the block's width or height, which differ
        (LOW_TRIANGLE, {((True, True),), ((True,), (True,))}),
    ])
    def test_an_asymmetric_region_is_walked_once_for_its_eight_images(self, walks,
                                                                      triangle, masks):
        # the carpet has the unit square's symmetries, so the triangle's
        # images under them are the images of its class: eight classes and
        # one orbit
        pf = Prefractal(self.SPEC, 2)
        images = self.images(90, triangle)
        assert len(set(images)) == 8
        for k, region in enumerate(images):
            assert same_moments(pf.moments(region, 90), hole_moments(self.SPEC, 2, region, 90)), k
            assert len(walks) == 1, k
        assert len(pf._classes) == 8 and len(pf._orbits) == 1
        assert {key[2] for key in pf._classes} == masks

    def test_a_mirror_image_on_the_same_block_is_walked(self, walks):
        # the negative control: the triangle's images under the block's
        # symmetries, placed on the block itself, whose hole does not move
        # with them.  Only the swap keeps the hole where it is, so it alone
        # maps the triangle's class onto one of theirs
        pf = Prefractal(self.SPEC, 2)
        images = self.images(60)
        for region in images:
            assert same_moments(pf.moments(region, 90), hole_moments(self.SPEC, 2, region, 90))
        assert len(pf._classes) == 8 and len(walks) == len(pf._orbits) == 4


def spec_depths(name):
    # every depth the spec reaches up to 4
    spec = SPECS[name]
    return range(1, 5 if spec.generator else len(spec.ratios) + 1)


# the number of translation classes of the distinct stage-n regions at
# depth m: (spec, n) -> {m: classes}.  A class is keyed by the refined
# scale, the level j, the survival mask and the vertices relative to the
# block corner, and the key built once per shape must split the regions
# into exactly these
CLASS_COUNTS = {
    ("odd-reciprocal", 1): {1: 9, 2: 9, 3: 9, 4: 9},
    ("odd-reciprocal", 2): {1: 46, 2: 46, 3: 46, 4: 46},
    ("odd-reciprocal", 3): {1: 444, 2: 70, 3: 70, 4: 70},
    ("odd-reciprocal", 4): {4: 196},
    ("1/3,1/5 constant", 1): {1: 9, 2: 9, 3: 9, 4: 9},
    ("1/3,1/5 constant", 2): {1: 46, 2: 46, 3: 46, 4: 46},
    ("1/3,1/5 constant", 3): {1: 444, 2: 70, 3: 70, 4: 70},
    ("1/5,1/3,1/7", 1): {1: 19, 2: 19, 3: 19},
    ("1/5,1/3,1/7", 2): {1: 49, 2: 36, 3: 36},
    ("1/5,1/3,1/7", 3): {1: 211, 2: 68, 3: 68},
}
# every depth of the three SPECS at stages 1-3, and stage 4 at depth 4
HOLE_CASES = [(name, n, m) for name in SPECS for n in (1, 2, 3) for m in spec_depths(name)]
HOLE_CASES.append(("odd-reciprocal", 4, 4))


class TestHoleComplement:
    """``Prefractal.moments`` against ``oracles.hole_moments``: a region's
    moments less those of each open hole of levels 1..m that meets it."""

    @pytest.mark.parametrize("name, n, m", HOLE_CASES)
    def test_every_stage_region_against_the_hole_complement(self, name, n, m):
        # every distinct ramp piece and flattened patch, compared exactly;
        # the regions fall into fewer shapes than there are regions, and
        # into the classes of their own keys
        spec = SPECS[name]
        regions, scale = stage_regions(name, n)
        regions = set(regions)
        pf = Prefractal(spec, m)
        assert [r for r in regions if not same_moments(pf.moments(r, scale),
                                                       hole_moments(spec, m, r, scale))] == []
        assert len(pf._shapes) < len(regions)
        assert len(pf._classes) == CLASS_COUNTS[name, n][m]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", SPECS)
    def test_holes_one_level_short_miss_a_band(self, name, n):
        # the negative control: the strip bands lie on the stage-n gaps and
        # meet stage-n holes, which the ramp pieces never do, so without
        # the level-n holes the complement is wrong on some band patch
        spec = SPECS[name]
        flat = flattened_stage(name, n)
        pf = Prefractal(spec, n)
        assert any(not same_moments(pf.moments(flat.patches[i][0], flat.scale),
                                    hole_moments(spec, n - 1, flat.patches[i][0], flat.scale))
                   for i in flat.band_tags)


# a plane (a, b, c) is the half-plane a*x + b*y >= c
PLANES = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-60, 60))


# the stages whose every patch is checked against its pieces: the three
# SPECS at stages 1-3 and odd-reciprocal at stage 4
TILING_CASES = [(name, n) for name in SPECS for n in (1, 2, 3)] + [("odd-reciprocal", 4)]


class TestPatchTiling:
    """Every flattened patch but a strip band is tiled by its cell pieces,
    so its measure is the sum of theirs (``witness._patch_measures``)."""

    @pytest.mark.parametrize("name, n", TILING_CASES)
    def test_the_pieces_of_every_patch_but_a_band_tile_it(self, name, n):
        # the pieces lie in their patch and do not overlap (TestTags), so
        # equal doubled areas mean they tile it; a band's seams miss the
        # crossings of the cuts, which lie in stage-n holes
        flat = flattened_stage(name, n)
        area2 = [0] * len(flat.patches)
        for (verts, _), tag in zip(flat.pieces, flat.cell_tags, strict=True):
            area2[tag] += ref_polygon_area2(verts)
        bands = set(flat.band_tags)
        assert [i for i, (verts, _, _, _) in enumerate(flat.patches)
                if i not in bands and area2[i] != ref_polygon_area2(verts)] == []
        assert all(area2[i] < ref_polygon_area2(flat.patches[i][0]) for i in bands)

    @pytest.mark.parametrize("name, n, m", [
        ("odd-reciprocal", 3, 2),      # depth < n: the stage-n holes carry measure
        ("odd-reciprocal", 3, 3),
        ("1/5,1/3,1/7", 2, 3),         # depth > n
    ])
    def test_summed_measures_equal_the_walked_ones(self, name, n, m):
        # every piece's moments given, as in the witness section, and only
        # the pieces of the sloped patches, as in the wedge section
        flat = flattened_stage(name, n)
        pf = Prefractal(SPECS[name], m)
        walked = [pf.region_measure(verts, flat.scale) for verts, _, _, _ in flat.patches]
        moments = [pf.moments(verts, flat.scale) for verts, _ in flat.pieces]
        assert witness._patch_measures(pf, flat, moments) == walked
        sloped = [None if flat.patches[t][2:] == (0, 0) else mom
                  for t, mom in zip(flat.cell_tags, moments)]
        assert witness._patch_measures(pf, flat, sloped) == walked

    @pytest.mark.parametrize("name", SPECS)
    def test_a_band_is_more_than_its_seams_at_a_shallower_depth(self, name):
        # the negative control: at depth < n the stage-n holes on the cuts
        # are not removed, and the band's seams miss them, so the sum of a
        # band's seams falls short of its measure
        n = 2
        flat = flattened_stage(name, n)
        pf = Prefractal(SPECS[name], n - 1)
        seams = [F(0)] * len(flat.patches)
        for (verts, _), tag in zip(flat.pieces, flat.cell_tags):
            seams[tag] += pf.region_measure(verts, flat.scale)
        assert all(seams[i] < pf.region_measure(flat.patches[i][0], flat.scale)
                   for i in flat.band_tags)


class TestRowWalk:
    @given(st.lists(PLANES, min_size=1, max_size=4), st.integers(-12, 12), st.integers(-12, 12),
           st.integers(1, 4), st.integers(0, 6), st.integers(0, 6))
    # x + y >= 4 through a corner of each child: child 0 touches the line
    # at a corner, child 1 is crossed and child 2 inside with a corner on it
    @example([(1, 1, 4)], 0, 0, 2, 0, 2)
    # x >= 2 and x <= 2 along the grid line between children 0 and 1
    @example([(1, 0, 2)], 0, 0, 2, 0, 2)
    @example([(-1, 0, -2)], 0, 0, 2, 0, 2)
    # a == 0: the line y = 1 crosses the whole row, y >= 0 holds on all of
    # it and y <= -1 nowhere
    @example([(0, 1, 1)], 0, 0, 2, 0, 2)
    @example([(0, 1, 0), (1, 1, 4)], 0, 0, 2, 0, 2)
    @example([(1, 1, 4), (0, -1, 1)], 0, 0, 2, 0, 2)
    @settings(max_examples=200, deadline=None)
    def test_row_ranges_agree_with_crossing(self, cut, x0, y0, d, i, j):
        # child by child against the corner-evaluation reference: inside
        # every plane iff in [lo, hi], outside none iff in [kept_lo,
        # kept_hi], a corner on a line counting as inside, and a crossed
        # child's sub-cut, the planes whose run misses it, is the
        # reference's plane list in order
        first, last = min(i, j), max(i, j)
        lo, hi, kept_lo, kept_hi, runs = _row_ranges(cut, x0, y0, d, first, last)
        for jx in range(first, last + 1):
            crossed = crossing(cut, x0 + jx * d, y0, d)
            assert (crossed == []) == (lo <= jx <= hi), jx
            assert (crossed is None) == (not kept_lo <= jx <= kept_hi), jx
            if crossed is not None:
                assert [plane for plane, a, b in runs if not a <= jx <= b] == crossed, jx
        assert lo > hi or first <= lo <= hi <= last
        assert kept_lo > kept_hi or first <= kept_lo <= kept_hi <= last

    @pytest.mark.parametrize("name", SPECS)
    def test_central_digit_masks_follow_the_digit_rule(self, name):
        # a level-j square is removed iff its two level-k digits are both
        # the centre digit at some k <= j
        spec = SPECS[name]
        depth = 4 if spec.generator else len(spec.ratios)
        pf = Prefractal(spec, depth)
        for j in range(depth + 1):
            subdiv = pf.subdiv[:j]
            digits = [[i // prod(subdiv[k + 1:]) % q for k, q in enumerate(subdiv)]
                      for i in range(prod(subdiv))]
            bits = pf._central_digits(j)
            assert len(bits) == len(digits)
            for iy, dy in enumerate(digits):
                assert [bool(bits[ix] & bits[iy]) for ix in range(len(digits))] == [
                    any(a == b == q // 2 for a, b, q in zip(dx, dy, subdiv)) for dx in digits], (j, iy)

    @pytest.mark.parametrize("name", SPECS)
    def test_survival_masks_follow_the_digit_rule(self, name):
        # every 1 x 1, 1 x 2, 2 x 1 and 2 x 2 block of level-j squares, for
        # boxes starting at either end of their first square: the mask's square
        # (ix, iy) is removed iff its two level-k digits are both the centre
        # digit at some k <= j
        spec = SPECS[name]
        pf = Prefractal(spec, 3)
        d = 6
        # (offset in the first square, extent) of a box over one square and
        # over two
        spans = {1: ((0, d), (d - 1, 1)), 2: ((1, d), (d - 1, 2))}
        for j in range(4):
            subdiv = pf.subdiv[:j]
            count = prod(subdiv)
            digits = [[i // prod(subdiv[k + 1:]) % q for k, q in enumerate(subdiv)]
                      for i in range(count)]
            alive = [[not any(a == b == q // 2 for a, b, q in zip(dx, dy, subdiv))
                      for dx in digits] for dy in digits]
            bits = pf._central_digits(j)
            for nx in (1, 2):
                for ny in (1, 2):
                    for ix in range(count - nx + 1):
                        for iy in range(count - ny + 1):
                            want = tuple(tuple(alive[iy + b][ix:ix + nx]) for b in range(ny))
                            for ox, w in spans[nx]:
                                for oy, h in spans[ny]:
                                    got = _survival(bits, ix * d + ox, iy * d + oy, w, h, d)
                                    assert got == (ox, oy, want), (j, ix, iy, nx, ny)

    def test_a_box_over_three_squares_raises(self):
        # a box at most one square wide and high meets at most 2 x 2 of
        # them; one that spills into a third column or row is a broken
        # level choice, raised also under python -O
        bits = Prefractal(SPECS["odd-reciprocal"], 2)._central_digits(2)
        for box in ((1, 0, 12, 6), (0, 1, 6, 12), (6, 6, 13, 1), (6, 6, 1, 13)):
            with pytest.raises(ConstructionError, match="more than 2 x 2"):
                _survival(bits, *box, 6)
        script = (
            "from carpetcurl.carpet import CarpetSpec, ConstructionError, Prefractal, _survival\n"
            "bits = Prefractal(CarpetSpec((), 'odd-reciprocal'), 2)._central_digits(2)\n"
            "for box in ((1, 0, 12, 6), (0, 1, 6, 12), (6, 6, 6, 6)):\n"
            "    try:\n"
            "        print(_survival(bits, *box, 6))\n"
            "    except ConstructionError as exc:\n"
            "        print(type(exc).__name__, exc)\n"
        )
        src = str(Path(carpetcurl.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, check=True, env={"PYTHONPATH": src})
        assert out.stdout.split("\n") == [
            "ConstructionError a 12 x 6 box at (1, 0) meets more than 2 x 2 squares of side 6",
            "ConstructionError a 6 x 12 box at (0, 1) meets more than 2 x 2 squares of side 6",
            "(0, 0, ((True,),))", ""]

    def test_an_off_lattice_cut_raises_on_every_walk(self):
        # the hypotenuse 2x + 3y = 6 cuts the level-0 square at lattice
        # points but crosses the hole's side x = 1 at y = 4/3, so the hole's
        # cut square keeps a Fraction vertex, raises when first seen, is not
        # kept, and raises again
        pf = Prefractal(CarpetSpec((F(1, 3),)), 1)
        region = ((0, 0), (3, 0), (0, 2))
        for _ in range(2):
            with pytest.raises(ConstructionError, match="off the lattice"):
                pf._walk(region, [3, 1], 0, ((True,),))
        assert list(pf._templates) == [(3, -2, -3, -6)]
        # the region's own path refines the lattice first
        assert same_moments(pf.moments(region, 3), hole_moments(pf.spec, 1, region, 3))

    def test_an_off_lattice_multi_line_cut_raises_on_every_walk(self):
        # all three lines cross the level-0 square, whose cut square is
        # the region itself: clipping the square by the first line makes the
        # Fraction vertex (0, 1/2), which a later line removes.  Two of them
        # cross the hole, where (1, 1) -> (3, 2) crosses its side x = 2 at
        # y = 3/2: that vertex is kept, so the hole's cut square raises when
        # first seen, is not kept, and raises again
        pf = Prefractal(CarpetSpec((F(1, 3),)), 1)
        region = ((1, 1), (3, 2), (2, 3))
        for _ in range(2):
            with pytest.raises(ConstructionError, match="off the lattice"):
                pf._walk(region, [3, 1], 0, ((True,),))
        assert list(pf._templates) == [(3, -1, 2, 1, -1, -1, -5, 2, -1, 1)]
        assert same_moments(pf.moments(region, 3), hole_moments(pf.spec, 1, region, 3))

    def test_a_hole_met_in_a_segment_is_an_empty_cut_square(self):
        # two region lines cross the hole [1, 2]^2, which meets the region
        # only along y = 1, and the edge (0, 0) -> (2, 1) crosses the hole's
        # side line x = 1 at (1, 1/2), off the lattice but outside the hole.
        # The square clipped by the moved lines in turn is a segment, of
        # zero moments, and no clip makes a vertex off the lattice
        pf = Prefractal(CarpetSpec((F(1, 3),)), 1)
        region = ((0, 0), (2, 1), (1, 1))
        moments = pf._walk(region, [3, 1], 0, ((True,),))
        assert same_moments((moments, 3), hole_moments(pf.spec, 1, region, 3))
        assert all(type(v) is int for template in pf._templates.values() for v in template)
        assert (1, 0, -1, 0, 1, -1, 0) in pf._templates

    def test_regions_sharing_multi_line_cut_squares(self):
        # a triangle across the corner of four level-2 squares, and its
        # translate by one square onto a block with a hole: two classes,
        # whose crossed leaves are all cut by two lines and are the same
        # cut squares, so the second walk clips none of its own
        spec = CarpetSpec((F(1, 3), F(1, 3)))
        pf = Prefractal(spec, 2)
        first, second = ((26, 6), (34, 8), (29, 14)), ((16, 6), (24, 8), (19, 14))
        assert same_moments(pf.moments(first, 90), hole_moments(spec, 2, first, 90))
        templates = dict(pf._templates)
        assert len(templates) == 4 and all(len(key) == 7 for key in templates)
        assert same_moments(pf.moments(second, 90), hole_moments(spec, 2, second, 90))
        assert len(pf._classes) == 2 and pf._templates == templates


class TestTaggedRows:
    @pytest.mark.parametrize("name, n, m", [
        ("odd-reciprocal", 3, 2),      # depth < n: the stage-n holes carry measure
        ("1/3,1/5 constant", 2, 3),    # depth >= n
    ])
    def test_rows_equal_the_generic_path(self, name, n, m):
        spec = SPECS[name]
        # one prefractal for both sections, as in ``verify``
        pf = Prefractal(spec, m)
        report = verify_witness_sequence(TARGET, n_max=n, pf=pf)
        report.extend(verify_wedge_approximation(TARGET, (n,), pf))
        for (section, stage, row_name), (value, bound) in generic_rows(spec, TARGET, n, m).items():
            row = report.get(section, stage, row_name)
            assert row.value == value, row_name
            if bound is not None:
                assert row.bound == bound, row_name


    def test_rows_need_no_staircase_and_no_tent_patches(self, spec35, monkeypatch):
        # the strip defect and tent energies are read off the flattened patches
        def rows():
            return verify_witness_sequence(TARGET, n_max=2, pf=Prefractal(spec35, 2)).rows

        expected = rows()

        def fail(*args, **kwargs):
            raise AssertionError("the verifier rebuilt a piece of the flattened partition")

        monkeypatch.setattr(witness, "build_staircase", fail)
        assert rows() == expected


class TestIntRows:
    """Each row both sections sum on ints, one ``Fraction`` per row, equals
    the per-patch ``Fraction`` sum it replaced (``oracles``)."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("name", SPECS)
    def test_rows_equal_the_fraction_rows(self, name, depth):
        spec = SPECS[name]
        # one prefractal for both sections and the oracle, as in ``verify``;
        # the targets share it too, since their ramps have one partition
        pf = Prefractal(spec, depth)
        for label, f in ROW_TARGETS.items():
            report = verify_witness_sequence(f, n_max=3, pf=pf)
            report.extend(verify_wedge_approximation(f, (1, 2, 3), pf))
            for n in (1, 2, 3):
                flat = flattened_stage(name, n)
                expected = {("witness", row): v for row, v in
                            fraction_witness_rows(spec, f, n, flat, pf).items()}
                expected.update((("wedge", row), v) for row, v in
                                fraction_wedge_rows(f, flat, pf).items())
                for (section, row_name), (value, bound) in expected.items():
                    row = report.get(section, n, row_name)
                    where = (label, section, n, row_name)
                    assert type(row.value) is F, where
                    assert (row.value, row.bound) == (value, bound), where


AFFINE = st.builds(affine_field, RATIONALS, RATIONALS, RATIONALS)


class TestWedgeClosedForms:
    @given(st.sampled_from(sorted(SPECS)), st.integers(1, 3), AFFINE, AFFINE)
    @settings(max_examples=60, deadline=None)
    def test_closed_forms_equal_the_oracle(self, name, m, f, g):
        # the wedge section's constants for affine f and g, against the
        # common-refinement inner product and gamma density
        pf = Prefractal(SPECS[name], m)
        a, b = f.patches[0], g.patches[0]
        det = a.cx * b.cy - a.cy * b.cx
        assert det ** 2 * pf.measure == norm_sq_two(wedge(d0(f), d0(g)), pf)
        assert a.cx ** 2 + a.cy ** 2 == gamma(f, f, pf).essential_sup


# the source tree of the imported package, for the python -O subprocess
SRC = str(Path(carpetcurl.__file__).resolve().parents[1])
# targets that are no triple (c0, cx, cy) of ints or Fractions
MALFORMED_TARGETS = {
    "list": [1, 0, 0],
    "2-tuple": (1, 0),
    "4-tuple": (1, 0, 0, 0),
    "float": (1.0, 0, 0),
    "str": (1, "0", 0),
}


class TestTarget:
    @pytest.fixture
    def no_stage(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a stage was built for a rejected target")

        monkeypatch.setattr(witness, "build_stage", fail)
        monkeypatch.setattr(forms, "build_flattened", fail)

    @pytest.mark.parametrize("entry", ["witness", "wedge", "ramp"])
    @pytest.mark.parametrize("f", MALFORMED_TARGETS.values(), ids=MALFORMED_TARGETS)
    def test_malformed_target_rejected(self, spec35, no_stage, entry, f):
        calls = {
            "witness": lambda: verify_witness_sequence(f, n_max=2, pf=Prefractal(spec35, 2)),
            "wedge": lambda: verify_wedge_approximation(f, (2,), Prefractal(spec35, 2)),
            "ramp": lambda: build_ramp(flattened_stage("odd-reciprocal", 1), f),
        }
        with pytest.raises(TypeError, match="the target must be a tuple"):
            calls[entry]()

    def test_malformed_target_rejected_under_optimization(self):
        # the check is no assert, so python -O rejects the target too
        script = (
            "from fractions import Fraction as F\n"
            "from carpetcurl.carpet import CarpetSpec, Prefractal\n"
            "from carpetcurl.witness import verify_witness_sequence\n"
            "spec = CarpetSpec((F(1, 3),))\n"
            "try:\n"
            "    verify_witness_sequence([1, 0, 0], n_max=1, pf=Prefractal(spec, 1))\n"
            "except TypeError as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, check=True, env={"PYTHONPATH": SRC})
        assert out.stdout == ("TypeError the target must be a tuple (c0, cx, cy) of ints or "
                              "Fractions, not [1, 0, 0]\n")

    @pytest.mark.parametrize("selector, triple", [
        ("const", (1, 0, 0)), ("x", (0, 1, 0)), ("y", (0, 0, 1)),
        ("affine:1/2,-3,5", (F(1, 2), F(-3), F(5)))])
    def test_every_cli_target_passes(self, selector, triple):
        target = cli._target(selector)
        assert affine_target(target) == target == triple
        # the named targets are ints, an affine: target Fractions
        kind = int if selector in cli.TARGETS else F
        assert all(type(v) is kind for v in target)
