"""Verification report rows with exact-rational serialization.

Rows carry a computed quantity, an optional bound, a deterministic pass flag
and an optional tail bracket.  CSV renders rationals as ``num/den`` strings;
JSON renders them as ``[num, den]`` pairs.  Output is byte-stable: fixed row
order, fixed formatting, no timestamps.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple, Optional


class Row(NamedTuple):
    section: str
    n: Optional[int]
    name: str
    value: object
    bound: object = None
    passed: Optional[bool] = None
    note: str = ""
    tail: Optional[tuple] = None


class VerificationReport:
    """The rows of one run, in the order they were added, and its mode."""

    __slots__ = ("mode", "rows")

    def __init__(self, mode: str = "exact", rows: Optional[list] = None):
        self.mode = mode
        self.rows = [] if rows is None else rows

    def add(self, section, n, name, value, bound=None, passed=None, note="", tail=None):
        self.rows.append(Row(section, n, name, value, bound, passed, note, tail))

    def failed_rows(self):
        return [r for r in self.rows if r.passed is False]

    def get(self, section, n, name) -> Row:
        for r in self.rows:
            if r.section == section and r.n == n and r.name == name:
                return r
        raise KeyError((section, n, name))

    def extend(self, other: "VerificationReport"):
        self.rows.extend(other.rows)


def _rounded(v):
    return float(v) if isinstance(v, Fraction) else v


def rounded_to_f64(report: VerificationReport) -> VerificationReport:
    """Copy of a finished report with each rational rounded once to binary64.

    Every ``Fraction`` value, bound and tail entry becomes ``float(...)``;
    ints, bools and the pass flags are kept, so the flags stay the exact ones.
    """
    rows = [r._replace(value=_rounded(r.value), bound=_rounded(r.bound),
                       tail=tuple(map(_rounded, r.tail)) if r.tail else r.tail)
            for r in report.rows]
    return VerificationReport(mode="f64", rows=rows)


def _num_str(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return f"{v}/1"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _num_json(v):
    if v is None:
        return None
    if isinstance(v, bool):
        return v
    if isinstance(v, Fraction):
        return [v.numerator, v.denominator]
    if isinstance(v, int):
        return [v, 1]
    if isinstance(v, float):
        return v
    return str(v)


_WITNESS_WIDE = ("strip_defect_energy", "tent_field_energy", "witness_l2",
                 "curl_defect_l2")
_WEDGE_WIDE = ("cutoff_form_l2", "wedge_defect_primary", "wedge_defect_secondary")


def _wide_block(report, section, names) -> list:
    stages = sorted({r.n for r in report.rows if r.section == section and r.n is not None})
    if not stages:
        return []
    header = ["n"]
    for name in names:
        header.extend([name, f"{name}_bound"])
    header.append("flags")
    lines = [",".join(header)]
    for n in stages:
        cells = [str(n)]
        flags = []
        for r in report.rows:
            if r.section == section and r.n == n and r.passed is not None:
                flags.append(f"{r.name}={'1' if r.passed else '0'}")
        for name in names:
            try:
                row = report.get(section, n, name)
                cells.extend([_num_str(row.value), _num_str(row.bound)])
            except KeyError:
                cells.extend(["", ""])
        cells.append(";".join(flags))
        lines.append(",".join(cells))
    return lines


def report_to_csv(report: VerificationReport) -> str:
    lines = []
    lines.extend(_wide_block(report, "witness", _WITNESS_WIDE))
    wedge = _wide_block(report, "wedge", _WEDGE_WIDE)
    if wedge:
        if lines:
            lines.append("")
        lines.extend(wedge)
    if lines:
        lines.append("")
    lines.append("section,n,name,value,bound,passed,note,tail_lower,tail_upper")
    for r in report.rows:
        tail_lo = _num_str(r.tail[0]) if r.tail else ""
        tail_hi = _num_str(r.tail[1]) if r.tail else ""
        passed = "" if r.passed is None else ("1" if r.passed else "0")
        note = r.note.replace(",", ";")
        lines.append(",".join([
            r.section, "" if r.n is None else str(r.n), r.name,
            _num_str(r.value), _num_str(r.bound), passed, note, tail_lo, tail_hi,
        ]))
    return "\n".join(lines) + "\n"


def report_to_json(report: VerificationReport) -> str:
    payload = {
        "mode": report.mode,
        "rows": [
            {
                "section": r.section,
                "n": r.n,
                "name": r.name,
                "value": _num_json(r.value),
                "bound": _num_json(r.bound),
                "passed": r.passed,
                "note": r.note,
                "tail": [_num_json(r.tail[0]), _num_json(r.tail[1])] if r.tail else None,
            }
            for r in report.rows
        ],
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def leq_with_sqrt(value, a2x, b2y, cross4) -> bool:
    """Exact test for value <= X + Y + 2*sqrt(cross4/4), all rationals >= 0.

    Rearranged so that no irrational intermediate is ever formed.
    """
    t = value - a2x - b2y
    if t <= 0:
        return True
    return t * t <= cross4


def leq_sqrt_sum_sq(value, x, y) -> bool:
    """Exact test for value <= (sqrt(x) + sqrt(y))^2 with rational x, y >= 0."""
    return leq_with_sqrt(value, x, y, 4 * x * y)
