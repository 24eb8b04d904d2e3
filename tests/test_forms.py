import sys
from fractions import Fraction

from carpetcurl import geometry
from carpetcurl.carpet import Prefractal
from carpetcurl.forms import verify_wedge_approximation
from carpetcurl.witness import build_flattened

from conftest import random_affine_field, random_grid_field, seeded
from oracles import (
    OneForm,
    PiecewiseAffineField,
    ProductField,
    affine_field,
    build_cutoff_form,
    constant_field,
    coordinate_field,
    d0,
    d1,
    dirichlet_energy,
    fraction_field,
    gamma,
    inner_one,
    inner_two,
    multiply,
    multiply_two,
    norm_sq_one,
    norm_sq_two,
    one_form_to_json,
    staircase_field,
    value_at,
    wedge,
)

F = Fraction


class TestGamma:
    def test_orthogonal_coordinates(self, pf3_1):
        fx, fy = coordinate_field("x"), coordinate_field("y")
        assert gamma(fx, fx, pf3_1).essential_sup == 1
        assert gamma(fy, fy, pf3_1).essential_sup == 1
        g = gamma(fx, fy, pf3_1)
        assert all(v == 0 for (_, v) in g.density.pieces)

    def test_rotated_pair(self, pf3_1):
        f = affine_field(0, 1, 1)
        g = affine_field(0, 1, -1)
        d = gamma(f, g, pf3_1)
        assert all(v == 0 for (_, v) in d.density.pieces)

    def test_staircase_against_vertical(self, spec35, pf35_2):
        phi = staircase_field(spec35, 2)
        d = gamma(phi, coordinate_field("y"), pf35_2)
        assert {v for (_, v) in d.density.pieces} <= {F(0), F(1)}


class TestInnerOne:
    def test_coordinate_norms(self, pf3_1):
        fx, fy = coordinate_field("x"), coordinate_field("y")
        assert inner_one(d0(fx), d0(fx), pf3_1) == F(8, 9)
        assert inner_one(d0(fx), d0(fy), pf3_1) == 0

    def test_leibniz_for_coordinates(self, pf3_1):
        fx, fy = coordinate_field("x"), coordinate_field("y")
        defect = d0(ProductField(fx, fy)) - (multiply(fx, d0(fy)) + multiply(fy, d0(fx)))
        assert norm_sq_one(defect, pf3_1) == 0

    def test_leibniz_randomized(self, pf3_1):
        rng = seeded(23)
        for k in range(10):
            f = random_affine_field(rng)
            g = random_grid_field(rng, max_cuts=1) if k % 3 == 0 else random_affine_field(rng)
            defect = d0(ProductField(f, g)) - (multiply(f, d0(g)) + multiply(g, d0(f)))
            assert norm_sq_one(defect, pf3_1) == 0

    def test_derivation_energy_identity(self, spec35, pf35_2):
        assert norm_sq_one(d0(coordinate_field("y")), pf35_2) == F(64, 75)
        assert norm_sq_one(d0(constant_field(5)), pf35_2) == 0
        phi = staircase_field(spec35, 2)
        assert norm_sq_one(d0(phi), pf35_2) == dirichlet_energy(phi, pf35_2)

    def test_refinement_invariance(self, pf3_1):
        from oracles import make_patch
        fy = coordinate_field("y")
        split = PiecewiseAffineField((
            make_patch(((F(0), F(0)), (F(1, 2), F(0)), (F(1, 2), F(1)), (F(0), F(1))), 0, 0, 1),
            make_patch(((F(1, 2), F(0)), (F(1), F(0)), (F(1), F(1)), (F(1, 2), F(1))), 0, 0, 1),
        ), 1)
        fx = coordinate_field("x")
        assert norm_sq_one(multiply(fx, d0(fy)), pf3_1) == \
            norm_sq_one(multiply(fx, d0(split)), pf3_1)


class TestInnerTwo:
    def test_coordinate_wedge_norm(self, pf3_1):
        fx, fy = coordinate_field("x"), coordinate_field("y")
        assert norm_sq_two(wedge(d0(fx), d0(fy)), pf3_1) == F(8, 9)

    def test_wedge_with_itself_vanishes(self, pf3_1):
        f = affine_field(F(1, 7), F(2, 3), F(-1, 2))
        assert norm_sq_two(wedge(d0(f), d0(f)), pf3_1) == 0

    def test_multilinearity(self, pf3_1):
        fx, fy = coordinate_field("x"), coordinate_field("y")
        shifted = affine_field(0, 1, 1)
        assert norm_sq_two(wedge(d0(shifted), d0(fy)), pf3_1) == \
            norm_sq_two(wedge(d0(fx), d0(fy)), pf3_1)

    def test_antisymmetry(self, pf3_1):
        rng = seeded(31)
        fx, fy = coordinate_field("x"), coordinate_field("y")
        probe = wedge(d0(fx), d0(fy))
        for _ in range(10):
            h = random_affine_field(rng)
            f = random_affine_field(rng)
            g = random_affine_field(rng)
            sym = multiply_two(h, wedge(d0(f), d0(g))) + multiply_two(h, wedge(d0(g), d0(f)))
            assert inner_two(sym, probe, pf3_1) == 0
            assert norm_sq_two(sym, pf3_1) == 0

    def test_nonnegativity_randomized(self, pf3_1):
        rng = seeded(37)
        for _ in range(10):
            xi = wedge(d0(random_grid_field(rng, max_cuts=1)), d0(random_affine_field(rng)))
            assert norm_sq_two(xi, pf3_1) >= 0
            omega = multiply(random_affine_field(rng), d0(random_grid_field(rng, max_cuts=1)))
            assert norm_sq_one(omega, pf3_1) >= 0


class TestExteriorDerivative:
    def test_squares_to_zero_randomized(self, pf3_1):
        rng = seeded(41)
        for _ in range(20):
            f = random_grid_field(rng, max_cuts=1)
            assert norm_sq_two(d1(d0(f)), pf3_1) == 0

    def test_shear_form(self, pf3_1):
        fx, fy = coordinate_field("x"), coordinate_field("y")
        assert norm_sq_two(d1(multiply(fx, d0(fy))), pf3_1) == F(8, 9)
        assert norm_sq_two(d1(multiply(fy, d0(fy))), pf3_1) == 0

    def test_graded_product_rule(self, pf3_1):
        # with the wedge representation the rule takes the classical form
        # d(h w) = h d(w) + d0(h) ^ w
        rng = seeded(43)
        for _ in range(8):
            h = random_affine_field(rng)
            g = random_affine_field(rng)
            f = random_affine_field(rng)
            omega = multiply(g, d0(f))
            lhs = d1(OneForm(((F(1), ProductField(h, g), f),)))
            rhs = multiply_two(h, d1(omega)) + wedge(d0(h), omega)
            assert norm_sq_two(lhs - rhs, pf3_1) == 0


class TestCutoffForm:
    def test_remainder_structure(self, spec35, pf35_2):
        fx = coordinate_field("x")
        flattened = build_flattened(spec35, 2)
        omega, remainder = build_cutoff_form(spec35, 2, fx, flattened)
        assert F(*remainder.sup_norm) <= F(1, 5)
        # off the seams the remainder shifts x by the cell-center abscissa
        patches = fraction_field(remainder)
        assert value_at(patches, (F(1, 12), F(1, 12))) == F(1, 12) - F(1, 12)
        assert value_at(patches, (F(1, 3), F(1, 3))) == F(1, 3) - F(1, 3)

    def test_norm_matches_witness_integral(self, spec357, pf357_3):
        fx = coordinate_field("x")
        flattened = build_flattened(spec357, 2)
        omega, _ = build_cutoff_form(spec357, 2, fx, flattened)
        assert norm_sq_one(omega, pf357_3) == F(138571421, 1944810000)

    def test_norm_bounded_by_sup_times_energy(self, spec35, pf35_2):
        fx = coordinate_field("x")
        flattened = build_flattened(spec35, 2)
        omega, remainder = build_cutoff_form(spec35, 2, fx, flattened)
        bound = F(*remainder.sup_norm) ** 2 * dirichlet_energy(flattened, pf35_2)
        assert norm_sq_one(omega, pf35_2) <= bound


class TestWedgeVerification:
    def test_canonical_stage_two(self, spec357):
        report = verify_wedge_approximation(
            spec357, (0, 1, 0), (2,), pf=Prefractal(spec357, 3))
        assert report.get("wedge", None, "wedge_norm_sq").value == F(1024, 1225)
        assert report.get("wedge", 2, "wedge_defect_secondary").value == 0
        primary = report.get("wedge", 2, "wedge_defect_primary")
        assert primary.value == F(536, 2205)
        assert primary.passed

    def test_wedge_section_clips_nothing(self, spec357, monkeypatch):
        def run():
            return verify_wedge_approximation(
                spec357, (0, 1, 0), (2,), pf=Prefractal(spec357, 3)).rows

        expected = run()

        def fail(*args, **kwargs):
            raise AssertionError("the wedge section clipped a polygon")

        # every binding of clip_convex in a carpetcurl module, not only geometry's
        clip = geometry.clip_convex
        bindings = [(module, attr) for name, module in list(sys.modules.items())
                    if name == "carpetcurl" or name.startswith("carpetcurl.")
                    for attr, obj in vars(module).items() if obj is clip]
        assert (geometry, "clip_convex") in bindings
        for module, attr in bindings:
            monkeypatch.setattr(module, attr, fail)
        assert run() == expected


class TestFormSerialization:
    def test_terms_wrapper(self, spec35):
        omega, _ = build_cutoff_form(spec35, 1, coordinate_field("x"))
        payload = one_form_to_json(omega)
        assert len(payload["terms"]) == 1
        term = payload["terms"][0]
        assert term["weight"] == [1, 1]
        assert "patches" in term["coefficient"]
        assert "patches" in term["differential_of"]
