"""Command-line front end: carpet rendering, figures, and verification runs.

Exit codes: 0 when every checked bound holds, 1 when some bound fails or
``verify`` checked none, 2 for configuration errors.  All outputs are
byte-deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .carpet import (
    CarpetSpec,
    Prefractal,
    SpecError,
    TailDiverges,
    geometry_json_records,
    parse_spec_config,
    prefractal_measure,
    side_length,
    tail_measure_bounds,
    validate_spec,
)
from .forms import verify_wedge_approximation
from .report import report_to_csv, report_to_json, rounded_to_f64
from .svgout import carpet_svg, cells_svg, neighborhoods_svg, staircase_svg, tents_svg
from .witness import verify_witness_sequence

EXIT_OK = 0
EXIT_BOUND_FAILED = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


def _build_spec(args) -> CarpetSpec:
    if args.config and (args.ratios or args.generator != "none"):
        raise ConfigError("--config gives the whole spec; drop --ratios and --generator")
    try:
        if args.config:
            spec = parse_spec_config(Path(args.config).read_text(encoding="utf-8"))
        else:
            ratios = ()
            if args.ratios:
                ratios = tuple(Fraction(part.strip()) for part in args.ratios.split(","))
            generator = args.generator if args.generator != "none" else None
            spec = CarpetSpec(ratios=ratios, generator=generator)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    if not spec.ratios and spec.generator is None:
        raise ConfigError("no ratios given and no generator rule")
    return spec


# the named targets f = c0 + cx*x + cy*y of ``--f``, as (c0, cx, cy)
TARGETS = {"const": (1, 0, 0), "x": (0, 1, 0), "y": (0, 0, 1)}


def _target(selector: str) -> tuple:
    """The target ``--f`` names, as (c0, cx, cy): ints or ``Fraction``s."""
    if selector in TARGETS:
        return TARGETS[selector]
    if selector.startswith("affine:"):
        try:
            c0, cx, cy = (Fraction(p) for p in selector[len("affine:"):].split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad affine target {selector!r}") from exc
        return c0, cx, cy
    raise ConfigError(f"unknown target function {selector!r}")


def _require_stages(spec: CarpetSpec, last: int) -> None:
    """Fail with exit 2 unless the spec defines every stage up to ``last``."""
    side_length(spec, last)  # raises StageBeyondSpec at the first missing stage


def _out_dir(args, names) -> Path:
    """Make the --out directory; each output name in it must not be a directory.

    Called after every other configuration check and before any work, so a
    bad configuration leaves no directory behind and an unwritable output
    fails fast with exit 2.
    """
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {args.out}: {exc}") from exc
    for name in names:
        if (out / name).is_dir():
            raise ConfigError(f"--out {args.out}: {out / name} is a directory")
    return out


def cmd_spec_check(args) -> int:
    spec = _build_spec(args)
    diag = validate_spec(spec)
    print(f"ratios: {', '.join(str(r) for r in diag['ratios'])}")
    print(f"generator: {spec.generator or 'none'}")
    sums = ", ".join(str(s) for s in diag["square_sums"])
    print(f"partial sums of squared ratios: {sums}")
    shrinks = ", ".join(str(r) for r in diag["shrink_ratios"])
    print(f"shrink ratios (prefix product / next ratio): {shrinks}")
    print(f"square summable: {diag['square_summable']}")
    print(f"shrink ratios tend to zero: {diag['shrink_to_zero']}")
    print(f"hypothesis satisfied: {diag['hypothesis_satisfied']}")
    if spec.generator:
        try:
            tail = tail_measure_bounds(spec, len(spec.ratios))
            print(f"tail area factor in [{tail.lower}, {tail.upper}]")
        except TailDiverges:
            print("tail area factor: diverges (carpet has zero area)")
    return EXIT_OK


def cmd_carpet(args) -> int:
    spec = _build_spec(args)
    _require_stages(spec, args.depth)
    out = _out_dir(args, ("carpet.svg", "carpet.json"))
    (out / "carpet.svg").write_text(carpet_svg(spec, args.depth), encoding="utf-8")
    records = []
    for stage in range(1, args.depth + 1):
        records.extend(geometry_json_records(spec, stage))
    import json
    measure = prefractal_measure(spec, args.depth)
    payload = {
        "depth": args.depth,
        "measure": [measure.numerator, measure.denominator],
        "holes": records,
    }
    (out / "carpet.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    print(f"wrote {out / 'carpet.svg'} and {out / 'carpet.json'}")
    return EXIT_OK


FIGURES = {"cells.svg": cells_svg, "phi.svg": staircase_svg, "psi.svg": tents_svg,
           "unk.svg": neighborhoods_svg}


def cmd_figures(args) -> int:
    if args.nmax < 1:
        raise ConfigError(f"--nmax {args.nmax}: the figures draw a corrector stage")
    spec = _build_spec(args)
    _require_stages(spec, args.nmax)
    out = _out_dir(args, FIGURES)
    for name, draw in FIGURES.items():
        (out / name).write_text(draw(spec, args.nmax), encoding="utf-8")
    print(f"wrote {', '.join(FIGURES)} in {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.nmax < 1:
        raise ConfigError(f"--nmax {args.nmax}: verify needs at least one corrector stage")
    if args.depth < 1:
        raise ConfigError(f"--depth {args.depth}: verify needs a prefractal with holes")
    spec = _build_spec(args)
    f = _target(args.f)
    _require_stages(spec, max(args.nmax, args.depth))
    out = _out_dir(args, ("report.csv", "report.json"))
    # one prefractal per level per run: the wedge section, at level
    # min(depth, 3), shares the witness section's when the levels agree and
    # so looks up the moments of every region both sections integrate
    pf = Prefractal(spec, args.depth)
    report = verify_witness_sequence(spec, f, n_max=args.nmax, pf=pf)
    wedge_stages = tuple(n for n in (2, 3) if n <= args.nmax)
    if wedge_stages:
        wedge_pf = pf if args.depth <= 3 else Prefractal(spec, 3)
        wedge_report = verify_wedge_approximation(
            spec, TARGETS["x"], wedge_stages, pf=wedge_pf)
        report.extend(wedge_report)
    if args.mode == "f64":
        report = rounded_to_f64(report)
    (out / "report.csv").write_text(report_to_csv(report), encoding="utf-8")
    (out / "report.json").write_text(report_to_json(report), encoding="utf-8")
    failed = report.failed_rows()
    for row in report.rows:
        if row.passed is False:
            print(f"FAILED bound: {row.section} n={row.n} {row.name}: "
                  f"{row.value} vs {row.bound}")
    print(f"wrote {out / 'report.csv'} and {out / 'report.json'}; "
          f"{len(failed)} failed bound(s)")
    if all(row.passed is None for row in report.rows):
        print("no bound was checked", file=sys.stderr)
        return EXIT_BOUND_FAILED
    return EXIT_OK if not failed else EXIT_BOUND_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carpetcurl",
        description="exact carpet geometry and curl non-closability checks")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--ratios": dict(default="", help="comma list like 1/3,1/5,1/7"),
        "--generator": dict(default="none", choices=["none", "odd-reciprocal", "constant"]),
        "--config": dict(default=None, help="spec config file, in place of the two above"),
        "--depth": dict(type=int, default=4, help="prefractal level m"),
        "--nmax": dict(type=int, default=3, help="largest corrector stage"),
        "--mode": dict(default="exact", choices=["exact", "f64"],
                       help="f64 prints the exact report's rationals rounded to binary64"),
        "--f": dict(default="const", help="target function: const | x | y | affine:a,b,c"),
        "--out": dict(default="out", help="output directory"),
    }
    spec_flags = ("--ratios", "--generator", "--config")
    # each subcommand takes only the options it reads
    for name, fn, flags in (
            ("spec-check", cmd_spec_check, spec_flags),
            ("carpet", cmd_carpet, spec_flags + ("--depth", "--out")),
            ("figures", cmd_figures, spec_flags + ("--nmax", "--out")),
            ("verify", cmd_verify, tuple(options))):
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, SpecError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
