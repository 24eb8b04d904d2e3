"""Closed-loop benchmark of ``carpetcurl verify``.

    python3 perfbench/run.py --workload deep_walk --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs one ``verify`` call at a time, each in a fresh
single-threaded process (``child.py``), and starts the next call only while
it is expected to finish inside ``--seconds`` (at least one call always
runs).  Every call's report rows are checked; a call with a wrong exit code
or wrong rows counts as failed.

With ``--trace 0`` the result holds the end-to-end metrics: median call time
(``verify_s``), median import time over several fresh processes
(``setup_s``) and median peak resident memory (``peak_rss_mb``).  The call
time is given at the reference CPU speed: it is scaled by ``PROBE_REF_S`` over
the median time of a fixed probe sampled on the same CPU during the call
(``child.py``), which removes most of the drift of a shared machine; the
uncorrected wall time is printed beside it.  With
``--trace 1`` one untraced and one traced call run, and the result holds the
per-layer metrics of the traced call plus the tracing overhead.  The last line
of standard output is the JSON result; the lines above it give the same
numbers with quartiles, sample counts and the machine's state.  See README.md
in this directory for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

BASE_ARGV = ("verify", "--generator", "odd-reciprocal")
# deep_walk is the exact prefractal walk, wide_stage the stage-3 construction
# and refinement, f64_walk the binary64 twin of deep_walk's walk (README.md).
WORKLOADS = {
    # name: (extra verify arguments, reference rows, float mode)
    "deep_walk": (("--nmax", "2", "--depth", "4"), "deep_walk", False),
    "wide_stage": (("--nmax", "3", "--depth", "2"), "wide_stage", False),
    "f64_walk": (("--nmax", "2", "--depth", "4", "--mode", "f64"), "deep_walk", True),
}

# Rows whose value depends on the target f; every other row is a property of
# the carpet and the construction alone and must match the reference for any f.
TARGET_ROWS = {"ramp_sup", "witness_l2", "curl_defect_l2", "witness_l2_strictly_decreasing"}
# Bounds the construction does not meet for every target (see the ROADMAP).
FREE_FLAGS = {"witness_l2_strictly_decreasing"}
SETUP_PROBES = 15
# Median time of child.probe_kernel during a call on the 2-vCPU machine this
# benchmark was defined on; it only sets the scale of the corrected call times.
PROBE_REF_S = 1.4e-3
F64_RTOL = 1e-12
RUN_LIMIT_S = 170.0


def target_for_seed(seed: int) -> str:
    """Seed 0 is the reference target f = 1; any other seed draws f = ±p/q.

    Held-out targets are constants: an affine target with nonzero slopes
    turns every curl-defect integral into a degree-2 one and makes a call
    40-70% slower, so its time would depend on the seed more than on the code.
    """
    if seed == 0:
        return "const"
    rng = random.Random(seed)
    value = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    return f"affine:{value},0,0"


def verify_argv(workload: str, seed: int) -> list:
    extra = WORKLOADS[workload][0]
    return [*BASE_ARGV, *extra, "--f", target_for_seed(seed)]


def load_reference(workload: str) -> list:
    name = WORKLOADS[workload][1]
    with open(BENCH / "reference" / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["rows"]


# ---------------------------------------------------------------- checking

def _close(actual, exact) -> bool:
    """A binary64 value against an exact [num, den] within F64_RTOL relative."""
    if isinstance(exact, list) and isinstance(actual, float):
        e = Fraction(exact[0], exact[1])
        return abs(Fraction(actual) - e) <= F64_RTOL * abs(e)
    return actual == exact


def _row_diff(row, ref, floats: bool):
    """None when the row matches, else a short description of the difference."""
    key = ("section", "n", "name", "passed")
    if any(row.get(k) != ref.get(k) for k in key):
        return f"{[row.get(k) for k in key]} != {[ref.get(k) for k in key]}"
    if not floats:
        return None if row == ref else f"{row} != {ref}"
    for field in ("value", "bound"):
        if not _close(row.get(field), ref.get(field)):
            return f"{field} {row.get(field)!r} vs exact {ref.get(field)!r}"
    tail, ref_tail = row.get("tail"), ref.get("tail")
    if (tail is None) != (ref_tail is None) or (
            tail is not None and not all(map(_close, tail, ref_tail))):
        return f"tail {tail!r} vs exact {ref_tail!r}"
    return None


def check_rows(rows, exit_code, reference, floats: bool, held_out: bool) -> list:
    """Problems with one call's report; an empty list means the call is correct.

    The reference target (held_out False) must reproduce the reference rows.
    A held-out target must reproduce every row that does not depend on f, pass
    every bound that depends on f except the non-monotone norms, and keep the
    two exact zeros of the construction.
    """
    problems = []
    if [(r["section"], r["n"], r["name"]) for r in rows] != \
            [(r["section"], r["n"], r["name"]) for r in reference]:
        return ["row sequence differs from the reference"]
    for row, ref in zip(rows, reference):
        label = f"{row['section']} n={row['n']} {row['name']}"
        if held_out and row["name"] in TARGET_ROWS:
            if row["passed"] is False and row["name"] not in FREE_FLAGS:
                problems.append(f"{label}: bound failed for a held-out target")
            continue
        diff = _row_diff(row, ref, floats)
        if diff:
            problems.append(f"{label}: {diff}")
    for row in rows:
        if row["name"] in ("wedge_defect_secondary", "local_constancy_violations") \
                and row["value"] not in ([0, 1], 0.0):
            problems.append(f"{row['section']} n={row['n']} {row['name']} is not zero")
    expected_exit = 1 if any(r["passed"] is False for r in rows) else 0
    if exit_code != expected_exit:
        problems.append(f"exit code {exit_code}, expected {expected_exit}")
    return problems


# ---------------------------------------------------------------- processes

def _child(args, timeout):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    # imports read bytecode caches, as an installed package does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_call(argv, out_dir: Path, timeout, trace_path=None):
    """One verify call in a fresh process; returns (measurement, report rows)."""
    prefix = ["--trace", str(trace_path)] if trace_path else []
    result = _child([*prefix, "--", *argv, "--out", str(out_dir)], timeout)
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    shutil.rmtree(out_dir)
    return result, rows


def setup_probes(count, timeout):
    _child(["--import-only"], timeout)  # unmeasured: writes the bytecode caches
    return [_child(["--import-only"], timeout)["setup_s"] for _ in range(count)]


# ---------------------------------------------------------------- statistics

def at_reference_speed(seconds, probes):
    """A timing scaled from the CPU speed its probes saw to the reference speed."""
    return seconds * PROBE_REF_S / statistics.median(probes)


def quartiles(values):
    """(q1, median, q3); a single sample is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def environment():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": [round(v, 2) for v in os.getloadavg()]}


# ---------------------------------------------------------------- main

class Client:
    """The single closed-loop client: runs, checks and records verify calls."""

    def __init__(self, workload: str, seed: int):
        self.began = time.perf_counter()
        self.argv = verify_argv(workload, seed)
        self.reference = load_reference(workload)
        self.floats = WORKLOADS[workload][2]
        self.held_out = seed != 0
        self.attempted = 0
        self.failed = 0
        self.results = []     # measurements of every call that completed
        self.failures = []
        self.first_rows = None

    def remaining(self):
        return RUN_LIMIT_S - (time.perf_counter() - self.began)

    def call(self, out_dir: Path, trace_path=None):
        """Run and check one call; returns its measurement, or None on error."""
        self.attempted += 1
        try:
            result, rows = run_call(self.argv, out_dir, self.remaining(), trace_path)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            self.failed += 1
            self.failures.append(f"call {self.attempted}: {exc}")
            return None
        problems = check_rows(rows, result["exit_code"], self.reference, self.floats,
                              self.held_out)
        if self.first_rows is None:
            self.first_rows = rows
        elif rows != self.first_rows:
            problems.append("rows differ from the first call of this run")
        self.failures.extend(f"call {self.attempted}: {p}" for p in problems)
        self.failed += bool(problems)
        self.results.append(result)
        return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run raises SystemExit, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "carpetcurl" / "cli.py").is_file():
        print(f"no carpetcurl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    client = Client(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup = setup_probes(SETUP_PROBES, client.remaining())
        if args.trace:
            untraced = client.call(scratch / "untraced")
            traced = client.call(scratch / "traced", WORK / f"{args.workload}.spans.json")
        else:
            window_start = time.perf_counter()
            while True:
                result = client.call(scratch / f"call{client.attempted}")
                # start another call only if it should end inside the window
                if result is None or (time.perf_counter() - window_start
                                      + result["verify_s"] > args.seconds):
                    break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = client.failed
    for line in client.failures:
        print(f"FAILED {line}", file=sys.stderr)
    plain = [r for r in client.results if "layers" not in r]
    samples = {
        "verify_s": ([at_reference_speed(r["verify_s"], r["call_probes"]) for r in plain], "s"),
        "setup_s": (setup + [r["setup_s"] for r in client.results], "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in plain], "MB"),
    }
    # printed, not reported: the call time before the speed correction
    raw = {"verify_wall_s": ([r["verify_s"] for r in plain], "s"),
           "cpu_speed": ([PROBE_REF_S / statistics.median(r["call_probes"]) for r in plain], "x")}
    env = environment()
    print(f"workload {args.workload} seed {args.seed}: carpetcurl {' '.join(client.argv)}")
    print(f"env nproc={env['nproc']} python={env['python']} "
          f"loadavg={' '.join(map(str, env['loadavg']))}")
    for name, (values, unit) in {**samples, **raw}.items():
        if values:
            q1, med, q3 = quartiles(values)
            print(f"{name:<17} median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"n={len(values)}")
    print(f"{'failed_run_share':<17} {failed / client.attempted:.4f} "
          f"({failed} of {client.attempted})  n={client.attempted}")

    metrics = {}
    if not args.trace:
        metrics = {name: {"value": quartiles(values)[1], "unit": unit}
                   for name, (values, unit) in samples.items() if values}
    elif traced and untraced:
        layers = dict(traced["layers"])
        layers["trace.verify_s"] = (traced["verify_s"], "s")
        layers["trace.untraced_verify_s"] = (untraced["verify_s"], "s")
        layers["trace.overhead_s"] = (traced["verify_s"] - untraced["verify_s"], "s")
        for name, (value, unit) in layers.items():
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"  {name:<40} {shown} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    summary = {"correct": failed == 0, "attempted": client.attempted, "failed": failed,
               "metrics": metrics}
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "env": env, "samples": samples, "raw": raw,
                             **summary}) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
