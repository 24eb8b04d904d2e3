"""Tests of the benchmark's tracer and of its row checks.

    python3 -m pytest perfbench/tests -q

The tracer tests run a small ``verify`` (under a second) in fresh processes,
the way the benchmark does.
"""

import copy
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SMALL = ["verify", "--generator", "odd-reciprocal", "--nmax", "2", "--depth", "2"]


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    work = tmp_path_factory.mktemp("calls")
    untraced = run.run_call(SMALL, work / "plain", 120)
    traced = [run.run_call(SMALL, work / f"traced{i}", 120, work / f"spans{i}.json")
              for i in range(2)]
    return untraced, traced, work


def test_tracing_leaves_rows_unchanged(small_runs):
    (plain, plain_rows), traced, _ = small_runs
    assert "layers" not in plain
    for result, rows in traced:
        assert rows == plain_rows
        assert result["exit_code"] == plain["exit_code"]


def test_only_untraced_calls_are_probed(small_runs):
    (plain, _), traced, _ = small_runs
    assert plain["call_probes"] and all(t > 0 for t in plain["call_probes"])
    for result, _ in traced:
        assert result["call_probes"] == []


def test_speed_probe_samples_and_restores_the_alarm():
    with child.SpeedProbe(0.01) as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_timings_scale_to_the_reference_speed():
    # probes twice as slow as the reference: the machine ran at half speed
    assert run.at_reference_speed(3.0, [2 * run.PROBE_REF_S] * 3) == pytest.approx(1.5)


def test_traced_counts_repeat_exactly(small_runs):
    _, ((first, _), (second, _)), _ = small_runs
    counts = {k: v for k, v in first["layers"].items() if v[1] in ("count", "ratio")}
    assert counts == {k: second["layers"][k] for k in counts}
    assert counts["carpet.integrate_calls"][0] > 0
    assert counts["geometry.clip_convex_calls"][0] > 0


def test_calls_through_every_binding_are_traced(small_runs):
    _, ((first, _), _), work = small_runs
    layers = first["layers"]
    # build_flattened is called from witness and through the name bound in forms
    assert layers["witness.build_flattened_calls"][0] == 3
    assert layers["forms.verify_wedge_calls"][0] == 1
    assert (work / "spans0.json").stat().st_size > 0


def test_self_time_never_exceeds_total(small_runs):
    _, ((first, _), _), _ = small_runs
    layers = first["layers"]
    for prefix in tracer.FUNCTIONS:
        assert 0 <= layers[f"{prefix}_self_s"][0] <= layers[f"{prefix}_s"][0] + 1e-9


@pytest.fixture(scope="module")
def deep_reference():
    return run.load_reference("deep_walk")


def test_reference_rows_pass_their_own_check(deep_reference):
    assert run.check_rows(deep_reference, 1, deep_reference, False, False) == []


def test_changed_exact_value_fails(deep_reference):
    rows = copy.deepcopy(deep_reference)
    row = next(r for r in rows if r["name"] == "tent_field_energy")
    row["value"] = [row["value"][0] + 1, row["value"][1]]
    assert run.check_rows(rows, 1, deep_reference, False, False)


def test_wrong_exit_code_fails(deep_reference):
    assert run.check_rows(deep_reference, 0, deep_reference, False, False)


def _as_floats(rows, rel):
    out = copy.deepcopy(rows)
    for row in out:
        if row["name"] == "strip_defect_energy":
            num, den = row["value"]
            row["value"] = num / den * (1 + rel)
    return out


def test_float_rows_within_tolerance_pass(deep_reference):
    rows = _as_floats(deep_reference, 1e-14)
    assert run.check_rows(rows, 1, deep_reference, True, False) == []


def test_float_rows_beyond_tolerance_fail(deep_reference):
    rows = _as_floats(deep_reference, 1e-10)
    assert run.check_rows(rows, 1, deep_reference, True, False)


def test_held_out_target_may_change_only_target_rows(deep_reference):
    rows = copy.deepcopy(deep_reference)
    for row in rows:
        if row["name"] == "witness_l2":
            row["value"] = [1, 7]
    assert run.check_rows(rows, 1, deep_reference, False, True) == []
    for row in rows:
        if row["name"] == "vertical_defect":
            row["value"] = [1, 7]
    assert run.check_rows(rows, 1, deep_reference, False, True)


def test_held_out_target_must_pass_its_bounds(deep_reference):
    rows = copy.deepcopy(deep_reference)
    next(r for r in rows if r["name"] == "curl_defect_l2")["passed"] = False
    assert run.check_rows(rows, 1, deep_reference, False, True)


def test_seed_zero_is_the_reference_target():
    assert run.target_for_seed(0) == "const"
    assert run.target_for_seed(5) == run.target_for_seed(5)
    assert run.target_for_seed(5).startswith("affine:")
