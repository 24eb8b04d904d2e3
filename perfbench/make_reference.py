"""Write the reference report rows of the seed-0 workloads.

    python3 perfbench/make_reference.py

Runs ``deep_walk`` and ``wide_stage`` once each at seed 0 (about 70 s) and
stores the ``rows`` of their ``report.json`` under ``reference/``
(``f64_walk`` is checked against ``deep_walk``'s exact rows).  The committed
files were made from the tree the benchmark was defined on; rerun this only
when a change is meant to alter the exact results, and say so.
"""

import json
import sys

import run


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    for workload in ("deep_walk", "wide_stage"):
        argv = run.verify_argv(workload, 0)
        result, rows = run.run_call(argv, run.WORK / f"reference-{workload}", None)
        failing = [(r["section"], r["n"], r["name"]) for r in rows if r["passed"] is False]
        print(f"{workload}: exit {result['exit_code']}, failing rows {failing}")
        path = run.BENCH / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"command": ["carpetcurl", *argv], "rows": rows}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
