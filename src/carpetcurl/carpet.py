"""Generalized Sierpinski carpets with exact rational geometry.

A carpet is driven by a sequence of subdivision ratios whose reciprocals are
odd integers; at every stage each surviving square is split into an odd grid
and the central cell is discarded.  Prefractals are kept implicit: membership,
measures and integrals descend the subdivision tree lazily, short-circuiting
on squares that lie entirely inside the query region, and integrals stop one
level above the leaves, where the prefractal is a square minus its hole.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .geometry import (
    ZERO,
    bbox,
    is_convex,
    normalize_polygon,
    triangulate,
)

HALF = Fraction(1, 2)

# exponent pairs (p, q) of the monomials x^p y^q that Prefractal.integrate
# handles: every monomial of degree <= 2
MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


class SpecError(ValueError):
    pass


class NonOddReciprocal(SpecError):
    def __init__(self, index, ratio):
        self.index = index
        super().__init__(f"ratio #{index} = {ratio}: reciprocal is not an odd integer > 1")


class RatioOutOfRange(SpecError):
    def __init__(self, index, ratio):
        self.index = index
        super().__init__(f"ratio #{index} = {ratio}: must lie in (0, 1/3]")


class StageBeyondSpec(SpecError):
    def __init__(self, stage):
        self.stage = stage
        super().__init__(f"stage {stage} exceeds the explicit ratios and no generator is set")


class TailDiverges(ArithmeticError):
    def __init__(self, msg="sum of squared ratios beyond the truncation is not < 1"):
        super().__init__(msg)


class OutOfUnitSquare(ValueError):
    pass


class ConstructionError(AssertionError):
    """An invariant of the carpet construction failed to hold.

    Raised explicitly, so the check survives ``python -O``; subclassing
    AssertionError keeps callers that catch the old asserts working.
    """


GENERATORS = ("odd-reciprocal", "constant")


@dataclass(frozen=True)
class CarpetSpec:
    """Subdivision ratio sequence, optionally extended by a generator rule.

    ``generator='odd-reciprocal'`` continues with 1/(2n+1); ``'constant'``
    repeats the last explicit ratio.
    """

    ratios: tuple
    generator: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "ratios", tuple(Fraction(r) for r in self.ratios))
        for i, r in enumerate(self.ratios, start=1):
            if r <= 0 or r > Fraction(1, 3):
                raise RatioOutOfRange(i, r)
            if r.numerator != 1 or r.denominator % 2 == 0:
                raise NonOddReciprocal(i, r)
        if self.generator is not None and self.generator not in GENERATORS:
            raise SpecError(f"unknown generator {self.generator!r}")
        if self.generator == "constant" and not self.ratios:
            raise SpecError("constant generator needs at least one explicit ratio")

    def ratio(self, i: int) -> Fraction:
        """The stage-i subdivision ratio (1-based)."""
        if i < 1:
            raise SpecError(f"stage index {i} must be >= 1")
        if i <= len(self.ratios):
            return self.ratios[i - 1]
        if self.generator == "odd-reciprocal":
            return Fraction(1, 2 * i + 1)
        if self.generator == "constant":
            return self.ratios[-1]
        raise StageBeyondSpec(i)

    def subdivisions(self, i: int) -> int:
        """Grid size 1/ratio at stage i, as an exact integer."""
        return self.ratio(i).denominator


def validate_spec(spec: CarpetSpec) -> dict:
    """Report the standard diagnostics of a spec.

    The ratio rules themselves are enforced when the spec is built.  Returns
    a dict with the per-stage reciprocals, partial sums of squared ratios,
    the shrink ratios delta_{n-1}/a_n, and hypothesis flags.  The
    witness construction needs both a square-summable ratio sequence (so the
    carpet keeps positive area) and shrink ratios tending to zero; for a
    finite list without generator the combined flag is indeterminate (None).
    """
    n_terms = len(spec.ratios)
    partial_sums = []
    acc = ZERO
    for i in range(1, n_terms + 1):
        acc += spec.ratio(i) ** 2
        partial_sums.append(acc)
    shrink_ratios = [side_length(spec, n - 1) / spec.ratio(n) for n in range(1, n_terms + 1)]
    monotone = all(shrink_ratios[i] >= shrink_ratios[i + 1] for i in range(len(shrink_ratios) - 1))
    if spec.generator == "odd-reciprocal":
        square_summable = True
        shrink_to_zero = True
    elif spec.generator == "constant":
        square_summable = False
        # delta_{n-1}/a_M still tends to zero for any fixed final ratio
        shrink_to_zero = True
    else:
        square_summable = None
        shrink_to_zero = None
    hypothesis = None
    if square_summable is not None and shrink_to_zero is not None:
        hypothesis = square_summable and shrink_to_zero
    return {
        "ratios": spec.ratios,
        "square_sums": tuple(partial_sums),
        "shrink_ratios": tuple(shrink_ratios),
        "shrink_monotone_nonincreasing": monotone,
        "square_summable": square_summable,
        "shrink_to_zero": shrink_to_zero,
        "hypothesis_satisfied": hypothesis,
    }


def side_length(spec: CarpetSpec, n: int) -> Fraction:
    """Side of a level-n square: the product of the first n ratios."""
    if n < 0:
        raise SpecError(f"level {n} must be >= 0")
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= spec.ratio(i)
    return out


def gap_height(spec: CarpetSpec, n: int) -> Fraction:
    """Vertical gap between two stage-n holes adjacent in the same column."""
    if n < 1:
        raise SpecError(f"stage {n} must be >= 1")
    return (1 - spec.ratio(n)) * side_length(spec, n - 1)


@dataclass(frozen=True)
class Hole:
    """A removed central square: stage, center point and side length."""

    stage: int
    center: tuple
    side: Fraction

    @property
    def x_range(self):
        return (self.center[0] - self.side / 2, self.center[0] + self.side / 2)

    @property
    def y_range(self):
        return (self.center[1] - self.side / 2, self.center[1] + self.side / 2)


def _surviving_squares(spec, level, x0=ZERO, y0=ZERO, k=0):
    if k == level:
        yield (x0, y0)
        return
    q = spec.subdivisions(k + 1)
    d = side_length(spec, k + 1)
    c = (q - 1) // 2
    for jy in range(q):
        for jx in range(q):
            if jx == c and jy == c:
                continue
            yield from _surviving_squares(spec, level, x0 + jx * d, y0 + jy * d, k + 1)


def enumerate_squares(spec: CarpetSpec, level: int) -> Iterator:
    """Stream the lower-left corners of all surviving level-``level`` squares."""
    side_length(spec, level)  # raises StageBeyondSpec early
    return _surviving_squares(spec, level)


def enumerate_holes(spec: CarpetSpec, n: int) -> Iterator:
    """Stream the stage-n holes (one per surviving level-(n-1) square)."""
    if n < 1:
        raise SpecError(f"stage {n} must be >= 1")
    d_prev = side_length(spec, n - 1)
    d = side_length(spec, n)
    for (x0, y0) in enumerate_squares(spec, n - 1):
        yield Hole(stage=n, center=(x0 + d_prev / 2, y0 + d_prev / 2), side=d)


def square_count(spec: CarpetSpec, m: int) -> int:
    out = 1
    for i in range(1, m + 1):
        out *= spec.subdivisions(i) ** 2 - 1
    return out


def prefractal_measure(spec: CarpetSpec, m: int) -> Fraction:
    """Area of the level-m prefractal: the product of (1 - ratio_i^2)."""
    out = Fraction(1)
    for i in range(1, m + 1):
        out *= 1 - spec.ratio(i) ** 2
    return out


@dataclass(frozen=True)
class TailInterval:
    """Rational bracket for the area fraction surviving beyond the truncation."""

    lower: Fraction
    upper: Fraction


def tail_measure_bounds(spec: CarpetSpec, m: int) -> TailInterval:
    """Bracket the infinite product of (1 - ratio_i^2) over stages i > m.

    The lower bound comes from the Weierstrass inequality
    prod(1 - x_i) >= 1 - sum(x_i), with the generated part of the sum bounded
    by the telescoping estimate sum_{i>=K} 1/(2i+1)^2 < 1/(4K).
    """
    if spec.generator is None:
        raise StageBeyondSpec(m + 1)
    if spec.generator == "constant":
        raise TailDiverges("constant ratios beyond the truncation never have a summable square series")
    n_explicit = len(spec.ratios)
    explicit_part = ZERO
    for i in range(m + 1, n_explicit + 1):
        explicit_part += spec.ratio(i) ** 2
    k_start = max(m, n_explicit) + 1
    tail_bound = Fraction(1, 4 * k_start)
    total = explicit_part + tail_bound
    if total >= 1:
        raise TailDiverges()
    return TailInterval(lower=1 - total, upper=Fraction(1))


@dataclass(frozen=True)
class CellGrid:
    """Axis grid through the stage-n hole centers, cells listed row-major."""

    stage: int
    x_cuts: tuple
    y_cuts: tuple
    cells: tuple  # rectangles (x0, y0, x1, y1)


def cut_positions(spec: CarpetSpec, n: int) -> tuple:
    d_prev = side_length(spec, n - 1)
    count = int(1 / d_prev)
    return tuple((j + HALF) * d_prev for j in range(count))


def cell_grid(spec: CarpetSpec, n: int) -> CellGrid:
    """Cells bounded by axis-parallel lines through stage-n hole centers."""
    if n < 1:
        raise SpecError(f"stage {n} must be >= 1")
    cuts = cut_positions(spec, n)
    xs = (ZERO,) + cuts + (Fraction(1),)
    d_prev = side_length(spec, n - 1)
    limit = 2 * d_prev * d_prev
    cells = []
    for j in range(len(xs) - 1):
        for i in range(len(xs) - 1):
            x0, x1 = xs[i], xs[i + 1]
            y0, y1 = xs[j], xs[j + 1]
            if (x1 - x0) ** 2 + (y1 - y0) ** 2 > limit:
                raise ConstructionError(f"stage-{n} cell [{x0}, {x1}] x [{y0}, {y1}] has a "
                                        f"diagonal longer than sqrt(2) * {d_prev}")
            cells.append((x0, y0, x1, y1))
    return CellGrid(stage=n, x_cuts=cuts, y_cuts=cuts, cells=tuple(cells))


class Prefractal:
    """Implicit level-m prefractal with exact integration support.

    Carries the per-level side lengths together with the suffix pattern data
    (area fraction and normalized second moment) that let integrals treat any
    fully-covered square in closed form instead of descending to the leaves.
    """

    def __init__(self, spec: CarpetSpec, level: int):
        if level < 0:
            raise SpecError("level must be >= 0")
        self.spec = spec
        self.level = level
        self.sides = [side_length(spec, k) for k in range(level + 1)]
        self.subdiv = [spec.subdivisions(k) for k in range(1, level + 1)]
        # suffix data: area[k] and the second moment of the normalized pattern
        # formed by stages k+1..m inside one surviving level-k square
        area = [Fraction(1)] * (level + 1)
        m2 = [Fraction(1, 3)] * (level + 1)
        for k in range(level - 1, -1, -1):
            q = self.subdiv[k]
            a = spec.ratio(k + 1)
            c = (q - 1) // 2
            s1 = q * (q - 1) // 2
            s2 = q * (q - 1) * (2 * q - 1) // 6
            area[k] = (1 - a * a) * area[k + 1]
            m2[k] = a ** 4 * (
                area[k + 1] * (q * s2 - c * c)
                + area[k + 1] * (q * s1 - c)
                + (q * q - 1) * m2[k + 1]
            )
        self.suffix_area = area
        self.suffix_m2 = m2

    @property
    def measure(self) -> Fraction:
        return self.suffix_area[0]

    def squares(self) -> Iterator:
        return enumerate_squares(self.spec, self.level)

    def contains(self, p, up_to_stage: Optional[int] = None) -> bool:
        return not self.strictly_inside_hole(p, up_to_stage)

    def strictly_inside_hole(self, p, up_to_stage: Optional[int] = None) -> bool:
        """True when p lies in the open interior of a removed square."""
        return self._hole_test(p, up_to_stage, closed=False)

    def meets_closed_hole(self, p, up_to_stage: Optional[int] = None) -> bool:
        """True when p lies in the closure of a removed square."""
        return self._hole_test(p, up_to_stage, closed=True)

    def _hole_test(self, p, up_to_stage, closed: bool) -> bool:
        cap = self.level if up_to_stage is None else min(up_to_stage, self.level)
        x, y = Fraction(p[0]), Fraction(p[1])
        if not (0 <= x <= 1 and 0 <= y <= 1):
            raise OutOfUnitSquare(f"point {p} outside the unit square")
        x0 = y0 = ZERO
        for k in range(cap):
            q = self.subdiv[k]
            d = self.sides[k + 1]
            c = (q - 1) // 2
            jx, rx = divmod(x - x0, d)
            jy, ry = divmod(y - y0, d)
            if closed:
                # candidate children whose closed square contains the point
                cands_x = {int(jx)} | ({int(jx) - 1} if rx == 0 and jx > 0 else set())
                cands_y = {int(jy)} | ({int(jy) - 1} if ry == 0 and jy > 0 else set())
                cands_x = {j for j in cands_x if 0 <= j < q}
                cands_y = {j for j in cands_y if 0 <= j < q}
                if c in cands_x and c in cands_y:
                    return True
            if rx == 0 or ry == 0:
                # on the level-(k+1) lattice inside this square; holes of
                # later stages stay strictly inside their parent square
                return False
            jx, jy = int(jx), int(jy)
            if jx == c and jy == c:
                return True
            x0 += jx * d
            y0 += jy * d
        return False

    # -- exact integration -------------------------------------------------

    def integrate(self, region, poly, mode: str = "exact"):
        """Integral of a degree<=2 polynomial over (prefractal intersect region).

        ``region`` may be any simple polygon with rational vertices inside the
        unit square; non-convex regions are triangulated first.  ``poly`` maps
        (p, q) exponent pairs to coefficients; a nonzero coefficient on any
        other monomial raises ``ValueError``.  With ``mode='f64'`` the exact
        integral is rounded once to binary64.
        """
        for key, coef in poly.items():
            if coef and key not in MONOMIALS:
                raise ValueError(f"unsupported monomial {key}")
        poly = {key: Fraction(poly.get(key, 0)) for key in MONOMIALS}
        region = normalize_polygon(region)
        total = ZERO
        if region:
            bx0, by0, bx1, by1 = bbox(region)
            if bx0 < 0 or by0 < 0 or bx1 > 1 or by1 > 1:
                raise OutOfUnitSquare("region leaves the unit square")
            pieces = [region] if is_convex(region) else triangulate(region)
            for p in pieces:
                total += self._integrate_convex(p, poly)
        return float(total) if mode == "f64" else total

    def region_measure(self, region, mode: str = "exact"):
        return self.integrate(region, {(0, 0): Fraction(1)}, mode=mode)

    def _interior_contribution(self, poly, k, x0, y0):
        d = self.sides[k]
        a = self.suffix_area[k]
        m2 = self.suffix_m2[k]
        d2 = d * d
        out = ZERO
        for (p, q), coef in poly.items():
            if coef == 0:
                continue
            if p == 0 and q == 0:
                out += coef * d2 * a
            elif (p, q) == (1, 0):
                out += coef * d2 * a * (x0 + d / 2)
            elif (p, q) == (0, 1):
                out += coef * d2 * a * (y0 + d / 2)
            elif (p, q) == (2, 0):
                out += coef * d2 * (a * x0 * (x0 + d) + d2 * m2)
            elif (p, q) == (0, 2):
                out += coef * d2 * (a * y0 * (y0 + d) + d2 * m2)
            elif (p, q) == (1, 1):
                out += coef * d2 * a * (x0 + d / 2) * (y0 + d / 2)
        return out

    def _integrate_convex(self, region, coef):
        # Rescale to an integer lattice: every predicate in the tree walk then
        # runs on machine integers, and only interior closed forms and leaf
        # clipping fall back to rational arithmetic.
        from math import lcm
        scale = 1
        for (x, y) in region:
            scale = lcm(scale, x.denominator, y.denominator)
        for d in self.sides:
            scale = lcm(scale, d.denominator)

        def as_int(v):
            return v.numerator * (scale // v.denominator)

        reg = tuple((as_int(x), as_int(y)) for (x, y) in region)
        sides = [as_int(d) for d in self.sides]
        xs = [p[0] for p in reg]
        ys = [p[1] for p in reg]
        rbx0, rby0, rbx1, rby1 = min(xs), min(ys), max(xs), max(ys)
        n = len(reg)
        area2 = 0
        for i in range(n):
            x0, y0 = reg[i]
            x1, y1 = reg[(i + 1) % n]
            area2 += x0 * y1 - x1 * y0
        is_rect = (n == 4 and area2 == 2 * (rbx1 - rbx0) * (rby1 - rby0))
        # half-plane form a*x + b*y >= c for each CCW edge
        planes = []
        for i in range(n):
            p = reg[i]
            q = reg[(i + 1) % n]
            a = q[1] - p[1]
            b = p[0] - q[0]
            planes.append((-a, -b, -(a * p[0] + b * p[1])))

        deg2 = scale * scale
        deg3 = deg2 * scale
        deg4 = deg3 * scale

        def rect_leaf(a, b, c, d):
            # moments over [a, b] x [c, d] in scaled integers
            out = ZERO
            w, h = b - a, d - c
            if coef[(0, 0)]:
                out += coef[(0, 0)] * Fraction(w * h, deg2)
            if coef[(1, 0)]:
                out += coef[(1, 0)] * Fraction((b * b - a * a) * h, 2 * deg3)
            if coef[(0, 1)]:
                out += coef[(0, 1)] * Fraction(w * (d * d - c * c), 2 * deg3)
            if coef[(2, 0)]:
                out += coef[(2, 0)] * Fraction((b ** 3 - a ** 3) * h, 3 * deg4)
            if coef[(0, 2)]:
                out += coef[(0, 2)] * Fraction(w * (d ** 3 - c ** 3), 3 * deg4)
            if coef[(1, 1)]:
                out += coef[(1, 1)] * Fraction((b * b - a * a) * (d * d - c * c), 4 * deg4)
            return out

        def poly_leaf(x0, y0, d):
            pts = reg
            for (a, b, c) in ((-1, 0, -(x0 + d)), (1, 0, x0), (0, -1, -(y0 + d)), (0, 1, y0)):
                # keep points with a*x + b*y >= c
                if not pts:
                    return ZERO
                nxt = []
                np_ = len(pts)
                for i in range(np_):
                    cur = pts[i]
                    fol = pts[(i + 1) % np_]
                    fc = a * cur[0] + b * cur[1] - c
                    fn = a * fol[0] + b * fol[1] - c
                    if fc >= 0:
                        nxt.append(cur)
                        if fn < 0:
                            t = Fraction(fc, fc - fn)
                            nxt.append((cur[0] + t * (fol[0] - cur[0]),
                                        cur[1] + t * (fol[1] - cur[1])))
                    elif fn >= 0:
                        t = Fraction(fc, fc - fn)
                        nxt.append((cur[0] + t * (fol[0] - cur[0]),
                                    cur[1] + t * (fol[1] - cur[1])))
                pts = nxt
            if len(pts) < 3:
                return ZERO
            m00 = m10 = m01 = m20 = m11 = m02 = ZERO
            np_ = len(pts)
            for i in range(np_):
                xa, ya = pts[i]
                xb, yb = pts[(i + 1) % np_]
                cr = xa * yb - xb * ya
                if coef[(0, 0)]:
                    m00 += cr
                if coef[(1, 0)]:
                    m10 += (xa + xb) * cr
                if coef[(0, 1)]:
                    m01 += (ya + yb) * cr
                if coef[(2, 0)]:
                    m20 += (xa * xa + xa * xb + xb * xb) * cr
                if coef[(0, 2)]:
                    m02 += (ya * ya + ya * yb + yb * yb) * cr
                if coef[(1, 1)]:
                    m11 += (2 * xa * ya + xa * yb + xb * ya + 2 * xb * yb) * cr
            out = ZERO
            if coef[(0, 0)]:
                out += coef[(0, 0)] * m00 / (2 * deg2)
            if coef[(1, 0)]:
                out += coef[(1, 0)] * m10 / (6 * deg3)
            if coef[(0, 1)]:
                out += coef[(0, 1)] * m01 / (6 * deg3)
            if coef[(2, 0)]:
                out += coef[(2, 0)] * m20 / (12 * deg4)
            if coef[(0, 2)]:
                out += coef[(0, 2)] * m02 / (12 * deg4)
            if coef[(1, 1)]:
                out += coef[(1, 1)] * m11 / (24 * deg4)
            return out

        def leaf(x0, y0, d):
            # region intersect the full square [x0, x0+d] x [y0, y0+d]
            if not is_rect:
                return poly_leaf(x0, y0, d)
            xa, xb = max(x0, rbx0), min(x0 + d, rbx1)
            ya, yb = max(y0, rby0), min(y0 + d, rby1)
            return rect_leaf(xa, xb, ya, yb) if xa < xb and ya < yb else ZERO

        level = self.level

        def walk(k, x0, y0):
            d = sides[k]
            x1, y1 = x0 + d, y0 + d
            if x1 <= rbx0 or x0 >= rbx1 or y1 <= rby0 or y0 >= rby1:
                return ZERO
            if is_rect:
                inside = rbx0 <= x0 and x1 <= rbx1 and rby0 <= y0 and y1 <= rby1
            else:
                inside = True
                for (a, b, c) in planes:
                    v00 = a * x0 + b * y0 - c
                    v10 = a * x1 + b * y0 - c
                    v11 = a * x1 + b * y1 - c
                    v01 = a * x0 + b * y1 - c
                    if v00 < 0 or v10 < 0 or v11 < 0 or v01 < 0:
                        inside = False
                        if v00 < 0 and v10 < 0 and v11 < 0 and v01 < 0:
                            return ZERO
            if inside:
                return self._interior_contribution(
                    coef, k, Fraction(x0, scale), Fraction(y0, scale))
            if k == level:
                # only a level-0 walk gets here; deeper walks stop one level
                # up with the hole complement below
                return leaf(x0, y0, d)
            q = self.subdiv[k]
            dc = sides[k + 1]
            c = (q - 1) // 2
            if k == level - 1:
                # inside S the level-m set is S minus its open central hole H
                return leaf(x0, y0, d) - leaf(x0 + c * dc, y0 + c * dc, dc)
            jx0 = max(0, (rbx0 - x0) // dc)
            jx1 = min(q - 1, (rbx1 - 1 - x0) // dc)
            jy0 = max(0, (rby0 - y0) // dc)
            jy1 = min(q - 1, (rby1 - 1 - y0) // dc)
            total = ZERO
            for jy in range(jy0, jy1 + 1):
                cy = y0 + jy * dc
                for jx in range(jx0, jx1 + 1):
                    if jx == c and jy == c:
                        continue
                    total += walk(k + 1, x0 + jx * dc, cy)
            return total

        return walk(0, 0, 0)


def region_measure(prefractal: Prefractal, region, mode: str = "exact"):
    """Exact area of (prefractal intersect region) for a simple polygon."""
    return prefractal.region_measure(region, mode=mode)


def column_obstacles(spec: CarpetSpec, n: int, x_cut: Fraction):
    """Holes met by the vertical line x = x_cut, sorted by height.

    Returns (y_lo, y_hi, stage) triples covering stage-n holes centered on the
    line plus any earlier-stage hole whose interior the line crosses.
    """
    obstacles = []

    def walk(k, x0, y0):
        d = side_length(spec, k)
        if not (x0 < x_cut < x0 + d):
            return
        if k == n - 1:
            c = (x0 + d / 2, y0 + d / 2)
            h = side_length(spec, n)
            obstacles.append((c[1] - h / 2, c[1] + h / 2, n))
            return
        q = spec.subdivisions(k + 1)
        dc = side_length(spec, k + 1)
        c = (q - 1) // 2
        jx = int((x_cut - x0) / dc)
        if jx >= q:
            jx = q - 1
        for jy in range(q):
            if jx == c and jy == c:
                lo = y0 + jy * dc
                obstacles.append((lo, lo + dc, k + 1))
                continue
            walk(k + 1, x0 + jx * dc, y0 + jy * dc)

    walk(0, ZERO, ZERO)
    obstacles.sort()
    return obstacles


def geometry_json_records(spec: CarpetSpec, n: int):
    """Hole records in the wire format {stage, center:[num,den,...], side}."""
    recs = []
    for h in enumerate_holes(spec, n):
        recs.append({
            "stage": h.stage,
            "center": [h.center[0].numerator, h.center[0].denominator,
                       h.center[1].numerator, h.center[1].denominator],
            "side": [h.side.numerator, h.side.denominator],
        })
    return recs


def parse_spec_config(text: str) -> CarpetSpec:
    """Parse the plain-text config: 'ratios = 1/3, 1/5' and optional generator."""
    ratios = ()
    generator = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"malformed config line: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key == "ratios":
            if value:
                try:
                    ratios = tuple(Fraction(part.strip()) for part in value.split(","))
                except (ValueError, ZeroDivisionError) as exc:
                    raise SpecError(f"bad ratio list {value!r}: {exc}") from exc
        elif key == "generator":
            generator = value if value and value != "none" else None
        else:
            raise SpecError(f"unknown config key {key!r}")
    return CarpetSpec(ratios=ratios, generator=generator)
