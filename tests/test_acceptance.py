"""Acceptance checks, one per criterion, each printing a pass/fail line.

Two assertions are expected to fail and are left failing on purpose, with
the exact computed numbers printed: the stage-three total tent-cover energy
exceeds its advertised envelope, and the witness norm rises from the
degenerate first stage before decreasing.  See the repository notes for the
analysis; every per-tent inequality and every vanishing quantity passes.
"""

import time
from fractions import Fraction

import pytest

from carpetcurl.carpet import (
    CarpetSpec,
    Prefractal,
    TailDiverges,
    enumerate_squares,
    prefractal_measure,
    side_length,
    stage_scale,
    tail_measure_bounds,
    validate_spec,
)
from carpetcurl.cli import main as cli_main
from carpetcurl.forms import verify_wedge_approximation
from carpetcurl.geometry import polygon_area
from carpetcurl.report import leq_sqrt_sum_sq
from carpetcurl.witness import (
    build_flattened,
    build_neighborhoods,
    build_ramp,
    build_tents,
    check_local_constancy,
    per_tent_bound,
    tent_field_bound,
)

from conftest import random_affine_field, random_grid_field, seeded
from oracles import (
    PiecewiseAffineField,
    ProductField,
    build_tent_field,
    constant_field,
    coordinate_minus,
    curl_defect_sq,
    d0,
    d1,
    dirichlet_energy,
    field_patches,
    l2_norm_sq,
    multiply,
    multiply_two,
    norm_sq_one,
    norm_sq_two,
    product_with_gradient,
    staircase_field,
    wedge,
)

F = Fraction

SPEC = CarpetSpec((F(1, 3), F(1, 5), F(1, 7), F(1, 9)), generator="odd-reciprocal")
SPEC357 = CarpetSpec((F(1, 3), F(1, 5), F(1, 7)))


def report(criterion, ok, detail):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def witness_data():
    """Stage data for the witness criterion, computed once at depth four."""
    t0 = time.monotonic()
    pf = Prefractal(SPEC, 4)
    data = {}
    for n in (1, 2, 3):
        flattened = build_flattened(SPEC, n)
        tents = flattened.tents
        neighborhoods = build_neighborhoods(SPEC, n, tents)
        ramp = build_ramp(flattened, (1, 0, 0))
        witness = product_with_gradient(ramp, flattened)
        tent_energies = [
            dirichlet_energy(PiecewiseAffineField(field_patches(t, flattened.scale), 1), pf)
            for t in tents
        ]
        data[n] = {
            "tents": tents,
            "flattened": flattened,
            "neighborhoods": neighborhoods,
            "tent_energies": tent_energies,
            "tent_total": sum(tent_energies, F(0)),
            "flat_defect": dirichlet_energy(coordinate_minus(flattened), pf),
            "witness_l2": l2_norm_sq(witness, pf),
            "curl_defect": curl_defect_sq(ramp, flattened, constant_field(1), pf),
        }
    data["elapsed"] = time.monotonic() - t0
    return data


class TestCriterion1MeasureOracle:
    def test_measure_equals_square_counting(self):
        t0 = time.monotonic()
        expected = {1: F(8, 9), 2: F(64, 75), 3: F(1024, 1225)}
        ok = True
        for m, value in expected.items():
            d = side_length(SPEC357, m)
            counted = sum(d * d for _ in enumerate_squares(SPEC357, m))
            ok = ok and prefractal_measure(SPEC357, m) == value == counted
        elapsed = time.monotonic() - t0
        ok = ok and elapsed < 1.0
        assert report("criterion 1", ok,
                      f"prefractal areas match brute-force counting in {elapsed:.2f}s")


class TestCriterion2StripBound:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_strip_defect_energy(self, n):
        pf = Prefractal(SPEC, n + 1)
        defect = coordinate_minus(staircase_field(SPEC, n))
        energy = dirichlet_energy(defect, pf)
        a_n = SPEC.ratio(n)
        # the strips are the strip-band patches of the flattened field
        flat = build_flattened(SPEC, n)
        bands = [flat.patches[i][0] for i in flat.band_tags]
        area = sum((polygon_area(b) for b in bands), F(0)) / flat.scale ** 2
        ok = energy <= a_n and area == len(bands) * side_length(SPEC, n) and area <= a_n
        assert report("criterion 2", ok,
                      f"n={n}: defect energy {energy} <= {a_n}, strip area {area} <= {a_n}")


class TestCriterion3TentBound:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_per_tent_energy(self, n, witness_data):
        bound = per_tent_bound(SPEC, n)
        if n == 3:
            energies = witness_data[3]["tent_energies"]
        else:
            pf = Prefractal(SPEC, n + 1)
            scale = stage_scale(SPEC, n)
            energies = [dirichlet_energy(PiecewiseAffineField(field_patches(t, scale), 1), pf)
                        for t in build_tents(SPEC, n)]
        worst = max(energies)
        ok = worst <= bound
        assert report("criterion 3", ok,
                      f"n={n}: worst per-tent energy {worst} <= {bound}")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_total_tent_energy(self, n, witness_data):
        bound = tent_field_bound(SPEC, n)
        if n == 3:
            total = witness_data[3]["tent_total"]
        else:
            pf = Prefractal(SPEC, n + 1)
            total = dirichlet_energy(build_tent_field(SPEC, n), pf)
        ok = total <= bound
        # expected to fail at n=3: the tent census grows with the inverse
        # squared side, so the advertised total envelope is exceeded there
        assert report("criterion 3", ok,
                      f"n={n}: total tent energy {total} (~{float(total):.3f}) "
                      f"<= {bound} (~{float(bound):.3f})")

    def test_bound_sequence_decreases_from_stage_three(self):
        b3 = tent_field_bound(SPEC, 3)
        b4 = tent_field_bound(SPEC, 4)
        b5 = tent_field_bound(SPEC, 5)
        ok = b3 > b4 > b5
        assert report("criterion 3", ok, f"bound sequence {b3} > {b4} > {b5}")


class TestCriterion4LocalConstancy:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gradient_vanishes_on_neighborhoods(self, n, witness_data):
        violations = check_local_constancy(witness_data[n]["flattened"],
                                           witness_data[n]["neighborhoods"])
        ok = violations == []
        assert report("criterion 4", ok,
                      f"n={n}: {len(violations)} patches with nonzero gradient "
                      f"on boundary neighborhoods")


class TestCriterion5Witness:
    def test_curl_defect_chain(self, witness_data):
        ok = True
        for n in (1, 2, 3):
            d = witness_data[n]
            a_n = SPEC.ratio(n)
            chain1 = d["curl_defect"] <= d["flat_defect"]
            chain2 = leq_sqrt_sum_sq(d["flat_defect"], a_n, d["tent_total"])
            ok = ok and chain1 and chain2
            report("criterion 5", chain1 and chain2,
                   f"n={n}: curl defect {float(d['curl_defect']):.6f} <= "
                   f"flattening defect {float(d['flat_defect']):.6f} <= "
                   f"(sqrt({a_n}) + sqrt(tent energy))^2")
        ok = ok and witness_data["elapsed"] < 300
        assert report("criterion 5", ok,
                      f"bound chain exact at every stage in {witness_data['elapsed']:.0f}s")

    def test_witness_norm_strictly_decreasing(self, witness_data):
        norms = [witness_data[n]["witness_l2"] for n in (1, 2, 3)]
        ok = all(a > b for a, b in zip(norms, norms[1:]))
        # expected to fail: the degenerate first stage has only two boundary
        # tents with mild slopes, so the norm rises before it decreases
        assert report("criterion 5", ok,
                      "witness norms " + " -> ".join(f"{float(v):.6f}" for v in norms))


class TestCriterion6FormIdentities:
    def test_randomized_identities(self, pf3_1):
        t0 = time.monotonic()
        rng = seeded(101)
        count = 32
        ok = True
        for k in range(count):
            f = random_affine_field(rng)
            g = random_grid_field(rng, max_cuts=1) if k % 4 == 0 else random_affine_field(rng)
            h = random_affine_field(rng)
            leibniz = d0(ProductField(f, g)) - (multiply(f, d0(g)) + multiply(g, d0(f)))
            ok = ok and norm_sq_one(leibniz, pf3_1) == 0
            ok = ok and norm_sq_two(d1(d0(g)), pf3_1) == 0
            sym = multiply_two(h, wedge(d0(f), d0(g))) + multiply_two(h, wedge(d0(g), d0(f)))
            ok = ok and norm_sq_two(sym, pf3_1) == 0
            ok = ok and norm_sq_two(wedge(d0(f), d0(g)), pf3_1) >= 0
            ok = ok and norm_sq_one(multiply(h, d0(g)), pf3_1) >= 0
        elapsed = time.monotonic() - t0
        ok = ok and elapsed < 60
        assert report("criterion 6", ok,
                      f"{count} randomized instances of the form identities "
                      f"exact in {elapsed:.1f}s")


class TestCriterion7WedgeDefects:
    def test_defects_at_stages_two_and_three(self):
        pf = Prefractal(SPEC357, 3)
        rep = verify_wedge_approximation(SPEC357, (0, 1, 0), (2, 3), pf=pf)
        ok = True
        norm_row = rep.get("wedge", None, "wedge_norm_sq")
        ok = ok and norm_row.value == prefractal_measure(SPEC357, 3) > F(3, 4)
        report("criterion 7", ok, f"wedge norm {norm_row.value} > 3/4")
        for n in (2, 3):
            secondary = rep.get("wedge", n, "wedge_defect_secondary")
            primary = rep.get("wedge", n, "wedge_defect_primary")
            flattened = build_flattened(SPEC357, n)
            e_flat = dirichlet_energy(coordinate_minus(flattened), pf)
            step = secondary.value == 0 and primary.value <= 2 * e_flat
            ok = ok and step
            report("criterion 7", step,
                   f"n={n}: secondary defect {secondary.value} == 0, "
                   f"primary defect {primary.value} <= {2 * e_flat}")
        assert ok


class TestCriterion8NegativeControl:
    def test_constant_ratios_are_flagged_and_energies_stay_large(self):
        spec = CarpetSpec((F(1, 3),) * 4, generator="constant")
        diag = validate_spec(spec)
        ok = diag["hypothesis_satisfied"] is False
        report("criterion 8", ok, "constant ratio sequence fails the hypothesis "
                                  "(squared ratios not summable)")
        with pytest.raises(TailDiverges):
            tail_measure_bounds(spec, 4)
        energies = []
        for n in (1, 2, 3):
            pf = Prefractal(spec, n + 1)
            energies.append(dirichlet_energy(build_tent_field(spec, n), pf))
        nonvanishing = all(e >= F(3, 4) for e in energies)
        ok = ok and nonvanishing
        report("criterion 8", nonvanishing,
               "tent-cover energies " + ", ".join(f"{float(e):.3f}" for e in energies) +
               " stay above 3/4 for the self-similar spec")
        # the advertised envelope itself shrinks geometrically; record the
        # exact ratio so the distinction rests on the computed energies
        b = [tent_field_bound(spec, n) for n in (1, 2, 3)]
        assert b[1] / b[0] == b[2] / b[1] == F(1, 3)
        assert ok


class TestCriterion9Determinism:
    def test_verify_outputs_byte_identical(self, tmp_path):
        args = ["verify", "--ratios", "1/3,1/5", "--nmax", "2", "--depth", "2"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cli_main(args + ["--out", str(out1)])
        cli_main(args + ["--out", str(out2)])
        same_csv = (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        same_json = (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        ok = same_csv and same_json
        assert report("criterion 9", ok, "verification reports byte-identical across reruns")
