"""Corrector geometry certifying that the carpet curl has a trivial adjoint.

For each stage n the construction flattens the vertical coordinate near the
cell boundaries of the stage-n grid: horizontal strips absorb the slope of a
staircase profile, tent-shaped bump fields absorb it along the vertical cut
segments between holes, and per-cell horizontal ramps turn the flattened
gradient into a vector field whose rotation approximates a target function
while the field itself shrinks to zero.  All patches are exact rational
polygons, so every energy comparison below is an exact inequality.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .carpet import (
    CarpetSpec,
    ConstructionError,
    Prefractal,
    cell_grid,
    column_obstacles,
    cut_positions,
    gap_height,
    side_length,
    tail_measure_bounds,
    TailDiverges,
    validate_spec,
)
from .fields import (
    AffinePatch,
    patch_from_vertex_values,
    PCScalarField,
    PiecewiseAffineField,
    ProductVectorField,
    _BoxIndex,
    dirichlet_energy,
    l2_norm_sq,
    make_patch,
    product_with_gradient,
    refine_pairs,
    sup_norm,
)
from .geometry import ZERO, bbox, clip_convex, polygon_area, poly_mul
from .report import VerificationReport, leq_sqrt_sum_sq, leq_with_sqrt

HALF = Fraction(1, 2)


class LocalConstancyViolated(AssertionError):
    def __init__(self, cell_index, detail=""):
        self.cell_index = cell_index
        super().__init__(f"flattened field has nonzero gradient on a boundary "
                         f"neighborhood of cell {cell_index} {detail}")


@dataclass(frozen=True)
class StripSet:
    """Horizontal strips of height side_length(n) centered on the y-cuts."""

    stage: int
    y_centers: tuple
    height: Fraction

    @property
    def total_area(self) -> Fraction:
        return len(self.y_centers) * self.height

    def regions(self):
        h = self.height / 2
        return [((ZERO, c - h), (Fraction(1), c - h), (Fraction(1), c + h), (ZERO, c + h))
                for c in self.y_centers]


def build_strips(spec: CarpetSpec, n: int) -> StripSet:
    cuts = cut_positions(spec, n)
    strips = StripSet(stage=n, y_centers=cuts, height=side_length(spec, n))
    if strips.total_area != spec.ratio(n):
        raise ConstructionError(f"stage-{n} strips cover {strips.total_area}, "
                                f"not the ratio {spec.ratio(n)}")
    return strips


def build_staircase(spec: CarpetSpec, n: int) -> PiecewiseAffineField:
    """Continuous profile in y: slope 0 across strips, slope 1 elsewhere.

    Equals zero on the bottom edge; patches are full-width horizontal bands.
    """
    strips = build_strips(spec, n)
    h = strips.height / 2
    breaks = [ZERO]
    for c in strips.y_centers:
        breaks.extend((c - h, c + h))
    breaks.append(Fraction(1))
    patches = []
    value = ZERO
    for i in range(len(breaks) - 1):
        y0, y1 = breaks[i], breaks[i + 1]
        if y0 == y1:
            continue
        slope = ZERO if i % 2 else Fraction(1)
        c0 = value - slope * y0
        patches.append(make_patch(
            ((ZERO, y0), (Fraction(1), y0), (Fraction(1), y1), (ZERO, y1)), c0, 0, slope))
        value += slope * (y1 - y0)
    return PiecewiseAffineField(tuple(patches))


@dataclass(frozen=True)
class Tent:
    """One tent over a vertical gap between obstacles in a cut column.

    The rectangle spans the full gap; the enclosed trapezoid rises with slope
    one from the full-width base at the bottom of the gap to the half-width
    top edge, and the two side triangles fall off linearly in x.  Gaps ending
    at a larger hole or at the square boundary are shorter than the template
    height and reuse the same shape scaled to the actual gap.
    """

    column_x: Fraction
    y_lo: Fraction
    y_hi: Fraction
    width: Fraction
    template_height: Fraction
    lower_kind: str
    upper_kind: str

    @property
    def height(self) -> Fraction:
        return self.y_hi - self.y_lo

    @property
    def rectangle(self):
        w = self.width / 2
        return (self.column_x - w, self.y_lo, self.column_x + w, self.y_hi)

    @property
    def trapezoid(self):
        w, q = self.width / 2, self.width / 4
        return ((self.column_x - w, self.y_lo), (self.column_x + w, self.y_lo),
                (self.column_x + q, self.y_hi), (self.column_x - q, self.y_hi))

    @property
    def side_slope(self) -> Fraction:
        return 4 * self.height / self.width

    @property
    def triangles(self):
        w, q = self.width / 2, self.width / 4
        left = ((self.column_x - w, self.y_lo), (self.column_x - q, self.y_hi),
                (self.column_x - w, self.y_hi))
        right = ((self.column_x + w, self.y_lo), (self.column_x + w, self.y_hi),
                 (self.column_x + q, self.y_hi))
        return (left, right)

    def field_patches(self):
        s = self.side_slope
        xl = self.column_x - self.width / 2
        xr = self.column_x + self.width / 2
        left, right = self.triangles
        return (
            make_patch(self.trapezoid, -self.y_lo, 0, 1),
            make_patch(left, -s * xl, s, 0),
            make_patch(right, s * xr, -s, 0),
        )

    def lambda_energy(self) -> Fraction:
        """Energy over the full rectangle under plain area measure."""
        h, w = self.height, self.width
        return Fraction(3, 4) * h * w + 4 * h ** 3 / w


def build_tents(spec: CarpetSpec, n: int):
    """All tents at stage n, ordered by column then height."""
    width = side_length(spec, n)
    template = gap_height(spec, n)
    tents = []
    for x_c in cut_positions(spec, n):
        obstacles = column_obstacles(spec, n, x_c)
        events = [(ZERO, ZERO, "boundary")] + \
                 [(lo, hi, "hole" if stage == n else "big") for (lo, hi, stage) in obstacles] + \
                 [(Fraction(1), Fraction(1), "boundary")]
        for (lo_a, hi_a, kind_a), (lo_b, hi_b, kind_b) in zip(events, events[1:]):
            if hi_a >= lo_b:
                raise ConstructionError(f"overlapping obstacles in column {x_c}")
            gap = lo_b - hi_a
            expected = template if kind_a == kind_b == "hole" else template / 2
            if gap != expected:
                raise ConstructionError(f"gap {gap} between {kind_a} and {kind_b} in "
                                        f"column {x_c} is not the expected {expected}")
            tents.append(Tent(column_x=x_c, y_lo=hi_a, y_hi=lo_b, width=width,
                              template_height=template, lower_kind=kind_a, upper_kind=kind_b))
    return tents


def tents_per_column(tents) -> dict:
    counts = {}
    for t in tents:
        counts[t.column_x] = counts.get(t.column_x, 0) + 1
    return counts


def build_tent_field(spec: CarpetSpec, n: int, tents=None) -> PiecewiseAffineField:
    """The nonnegative tent cover, supported on the tent rectangles."""
    if tents is None:
        tents = build_tents(spec, n)
    patches = []
    for t in tents:
        patches.extend(t.field_patches())
    return PiecewiseAffineField(tuple(patches))


@dataclass(frozen=True)
class CellNeighborhood:
    """Boundary neighborhood of one grid cell: strip pieces plus trapezoids."""

    cell_index: int
    cell: tuple
    rectangles: tuple
    trapezoids: tuple

    def pieces(self):
        return self.rectangles + self.trapezoids


def _tent_for_edge(tents_by_column, x_cut, y0, y1):
    for t in tents_by_column.get(x_cut, ()):
        if y0 <= t.y_lo and t.y_hi <= y1:
            return t
    return None


def build_neighborhoods(spec: CarpetSpec, n: int, tents=None):
    """One CellNeighborhood per grid cell (strip rectangles and tent trapezoids)."""
    if tents is None:
        tents = build_tents(spec, n)
    by_col = {}
    for t in tents:
        by_col.setdefault(t.column_x, []).append(t)
    grid = cell_grid(spec, n)
    half = side_length(spec, n) / 2
    out = []
    for idx, (x0, y0, x1, y1) in enumerate(grid.cells):
        rects = []
        traps = []
        if y0 > 0:
            rects.append(((x0, y0 - half), (x1, y0 - half), (x1, y0 + half), (x0, y0 + half)))
        if y1 < 1:
            rects.append(((x0, y1 - half), (x1, y1 - half), (x1, y1 + half), (x0, y1 + half)))
        for cut in (x0, x1):
            if cut in (ZERO, Fraction(1)):
                continue
            t = _tent_for_edge(by_col, cut, y0, y1)
            if t is not None:
                traps.append(t.trapezoid)
        out.append(CellNeighborhood(cell_index=idx, cell=(x0, y0, x1, y1),
                                    rectangles=tuple(rects), trapezoids=tuple(traps)))
    return out


def build_flattened(spec: CarpetSpec, n: int, tents=None, check: bool = False):
    """The stage-n flattened coordinate: staircase minus tent cover.

    Built directly as a total partition: constant patches on the strip bands
    and on the tent trapezoids, slanted patches on the tent side triangles,
    and slope-one patches elsewhere.  Returns (field, neighborhoods); with
    ``check`` the vanishing of the gradient on every boundary neighborhood is
    verified immediately and a violation raises LocalConstancyViolated.
    """
    if tents is None:
        tents = build_tents(spec, n)
    strips = build_strips(spec, n)
    h = strips.height / 2
    width = side_length(spec, n)
    one = Fraction(1)

    # slab boundaries: [0, first strip bottom], strips, gaps, ..., [last top, 1]
    breaks = [ZERO]
    for c in strips.y_centers:
        breaks.extend((c - h, c + h))
    breaks.append(one)

    by_slab = {}
    for t in tents:
        by_slab.setdefault((t.y_lo, t.y_hi), []).append(t)
    # index tents by the slab that contains them
    slabs = [(breaks[i], breaks[i + 1]) for i in range(0, len(breaks) - 1, 2)]
    tents_in_slab = {s: [] for s in slabs}
    for t in tents:
        placed = False
        for (lo, hi) in slabs:
            if lo <= t.y_lo and t.y_hi <= hi:
                tents_in_slab[(lo, hi)].append(t)
                placed = True
                break
        if not placed:
            raise ConstructionError(f"tent at {t.column_x} not inside any slope-one slab")

    patches = []
    value = ZERO  # staircase value accumulated from y = 0
    for i in range(len(breaks) - 1):
        y0, y1 = breaks[i], breaks[i + 1]
        if y0 == y1:
            continue
        if i % 2:  # strip band: staircase constant, no tents meet it
            patches.append(make_patch(((ZERO, y0), (one, y0), (one, y1), (ZERO, y1)),
                                      value, 0, 0))
            continue
        k = value - y0  # staircase = y + k on this slab
        xs_edges = []
        for t in sorted(tents_in_slab[(y0, y1)], key=lambda t: t.column_x):
            xl, xr = t.column_x - width / 2, t.column_x + width / 2
            xs_edges.append((xl, xr, t))
        cursor = ZERO
        for (xl, xr, t) in xs_edges:
            if cursor < xl:
                patches.append(make_patch(((cursor, y0), (xl, y0), (xl, y1), (cursor, y1)),
                                          k, 0, 1))
            s = t.side_slope
            patches.append(make_patch(t.trapezoid, k + t.y_lo, 0, 0))
            left, right = t.triangles
            patches.append(make_patch(left, k + s * xl, -s, 1))
            patches.append(make_patch(right, k - s * xr, s, 1))
            if y0 < t.y_lo:  # truncated tent: slab remainder below (larger hole)
                patches.append(make_patch(((xl, y0), (xr, y0), (xr, t.y_lo), (xl, t.y_lo)),
                                          k, 0, 1))
            if t.y_hi < y1:  # slab remainder above
                patches.append(make_patch(((xl, t.y_hi), (xr, t.y_hi), (xr, y1), (xl, y1)),
                                          k, 0, 1))
            cursor = xr
        if cursor < one:
            patches.append(make_patch(((cursor, y0), (one, y0), (one, y1), (cursor, y1)),
                                      k, 0, 1))
        value += y1 - y0
    field = PiecewiseAffineField(tuple(patches))
    if field.total_area() != 1:
        raise ConstructionError(f"flattened patches cover {field.total_area()}, not 1")
    neighborhoods = build_neighborhoods(spec, n, tents)
    if check:
        violations = check_local_constancy(field, neighborhoods)
        if violations:
            cell, patch = violations[0]
            raise LocalConstancyViolated(cell, f"(patch {patch}, {len(violations)} total)")
    return field, neighborhoods


def check_local_constancy(flattened: PiecewiseAffineField, neighborhoods):
    """Every patch overlapping a boundary neighborhood must have zero gradient.

    Returns the list of violations; empty means the key vanishing property
    holds exactly.
    """
    violations = []
    regions = [p.vertices for p in flattened.patches]
    index = _BoxIndex(regions, key=bbox)
    for nb in neighborhoods:
        for piece in nb.pieces():
            for ip in index.candidates(bbox(piece)):
                patch = flattened.patches[ip]
                if patch.cx == 0 and patch.cy == 0:
                    continue
                overlap = clip_convex(piece, patch.vertices)
                if overlap and polygon_area(overlap) > 0:
                    violations.append((nb.cell_index, ip))
    return violations


def build_cell_field(spec: CarpetSpec, n: int,
                     cell_map: Callable, tents=None) -> PiecewiseAffineField:
    """Glue per-cell affine maps into a field continuous on the carpet.

    ``cell_map(index, cell)`` returns (c0, cx, cy) for each grid cell.  The
    map is used verbatim on the cell minus its boundary neighborhood; across
    strip bands and tent trapezoids the values are joined by triangulated
    affine interpolation.  Jumps may remain only along edges buried inside
    removed holes, which the carpet never sees.
    """
    if tents is None:
        tents = build_tents(spec, n)
    grid = cell_grid(spec, n)
    cuts = grid.x_cuts
    xs = (ZERO,) + cuts + (Fraction(1),)
    ncols = len(xs) - 1
    half = side_length(spec, n) / 2
    one = Fraction(1)

    coeffs = {}
    for idx, cell in enumerate(grid.cells):
        coeffs[idx] = tuple(Fraction(c) for c in cell_map(idx, cell))

    def cell_value(idx, p):
        c0, cx, cy = coeffs[idx]
        return c0 + cx * p[0] + cy * p[1]

    by_col = {}
    for t in tents:
        by_col.setdefault(t.column_x, []).append(t)

    patches = []

    # core pieces per cell
    for idx, (x0, y0, x1, y1) in enumerate(grid.cells):
        c0, cx, cy = coeffs[idx]
        y_bot = y0 + half if y0 > 0 else ZERO
        y_top = y1 - half if y1 < 1 else one
        tent_l = _tent_for_edge(by_col, x0, y0, y1) if x0 > 0 else None
        tent_r = _tent_for_edge(by_col, x1, y0, y1) if x1 < 1 else None
        x_lo = x0 + half if tent_l is not None else x0
        x_hi = x1 - half if tent_r is not None else x1
        patches.append(make_patch(((x_lo, y_bot), (x_hi, y_bot), (x_hi, y_top), (x_lo, y_top)),
                                  c0, cx, cy))
        for tent, cut, inner in ((tent_l, x0, x_lo), (tent_r, x1, x_hi)):
            if tent is None:
                continue
            g0, g1 = tent.y_lo, tent.y_hi
            # the tent side triangle on this cell's side belongs to the core
            tri = ((inner, g0), ((inner + cut) / 2, g1), (inner, g1))
            patches.append(make_patch(tri, c0, cx, cy))
            lo_x, hi_x = min(cut, inner), max(cut, inner)
            if y_bot < g0:
                patches.append(make_patch(((lo_x, y_bot), (hi_x, y_bot),
                                           (hi_x, g0), (lo_x, g0)), c0, cx, cy))
            if g1 < y_top:
                patches.append(make_patch(((lo_x, g1), (hi_x, g1),
                                           (hi_x, y_top), (lo_x, y_top)), c0, cx, cy))

    # strip seams between vertically adjacent cells
    for j, cut in enumerate(cuts):
        for i in range(ncols):
            lower = j * ncols + i
            upper = (j + 1) * ncols + i
            sx0 = xs[i] + half if xs[i] > 0 else ZERO
            sx1 = xs[i + 1] - half if xs[i + 1] < 1 else one
            yb, yt = cut - half, cut + half
            pa = (sx0, yb)
            pb = (sx1, yb)
            pc = (sx1, yt)
            pd = (sx0, yt)
            va, vb = cell_value(lower, pa), cell_value(lower, pb)
            vc, vd = cell_value(upper, pc), cell_value(upper, pd)
            patches.append(patch_from_vertex_values(pa, va, pb, vb, pc, vc))
            patches.append(patch_from_vertex_values(pa, va, pc, vc, pd, vd))

    # trapezoid seams between horizontally adjacent cells
    col_of_cut = {cut: i for i, cut in enumerate(cuts)}
    ys = xs
    for t in tents:
        i = col_of_cut[t.column_x]
        # gap interiors never touch the cut lines, so bisecting on the lower
        # end finds the unique cell row containing the tent
        row = bisect_right(ys, t.y_lo) - 1
        if row == ncols:
            row -= 1
        left = row * ncols + i
        right = row * ncols + i + 1
        (bl, br, tr, tl) = t.trapezoid
        vbl, vtl = cell_value(left, bl), cell_value(left, tl)
        vbr, vtr = cell_value(right, br), cell_value(right, tr)
        patches.append(patch_from_vertex_values(bl, vbl, br, vbr, tr, vtr))
        patches.append(patch_from_vertex_values(bl, vbl, tr, vtr, tl, vtl))

    return PiecewiseAffineField(tuple(patches))


def build_ramp(spec: CarpetSpec, n: int, f: PiecewiseAffineField,
               tents=None) -> PiecewiseAffineField:
    """Per-cell horizontal ramp: value-of-f-at-center times (x - center_x).

    Off the boundary neighborhoods the gradient is exactly (f(center), 0);
    the sup norm is at most sup|f| times the previous side length.
    """
    def cell_map(idx, cell):
        x0, y0, x1, y1 = cell
        center = ((x0 + x1) / 2, (y0 + y1) / 2)
        fv = f.value_at(center)
        if fv is None:
            raise ConstructionError(f"target function does not cover the cell center "
                                    f"({center[0]}, {center[1]})")
        return (-fv * center[0], fv, ZERO)

    return build_cell_field(spec, n, cell_map, tents=tents)


def build_witness(spec: CarpetSpec, n: int, f: PiecewiseAffineField,
                  flattened=None, ramp=None, tents=None) -> ProductVectorField:
    """The stage-n witness vector field: ramp times flattened gradient."""
    if tents is None:
        tents = build_tents(spec, n)
    if flattened is None:
        flattened, _ = build_flattened(spec, n, tents)
    if ramp is None:
        ramp = build_ramp(spec, n, f, tents)
    return product_with_gradient(ramp, flattened)


def coordinate_minus(field: PiecewiseAffineField) -> PiecewiseAffineField:
    """The field y - given(x, y) on the given field's partition."""
    return PiecewiseAffineField(tuple(
        AffinePatch(p.vertices, -p.c0, -p.cx, 1 - p.cy) for p in field.patches))


def vertical_defect_sq(flattened: PiecewiseAffineField, pf: Prefractal,
                       mode: str = "exact"):
    """Integral of (d/dy flattened - 1)^2 over the prefractal."""
    pieces = tuple((p.vertices, p.cy - 1) for p in flattened.patches)
    return l2_norm_sq(PCScalarField(pieces), pf, mode=mode)


def curl_defect_sq(ramp: PiecewiseAffineField, flattened: PiecewiseAffineField,
                   f: PiecewiseAffineField, pf: Prefractal, mode: str = "exact"):
    """Squared L2 distance between the witness rotation and the target f.

    The rotation is ramp_x * flat_y - ramp_y * flat_x on every refined patch,
    including those where the flattened gradient vanishes.
    """
    pieces = refine_pairs([p.vertices for p in ramp.patches],
                          [p.vertices for p in flattened.patches])
    total = ZERO if mode == "exact" else 0.0
    f_regions = [p.vertices for p in f.patches]
    f_index = _BoxIndex(f_regions, key=bbox)
    for region, ir, ig in pieces:
        pr = ramp.patches[ir]
        pg = flattened.patches[ig]
        c = pr.cx * pg.cy - pr.cy * pg.cx
        for jf in f_index.candidates(bbox(region)):
            piece = clip_convex(region, f_regions[jf])
            if not piece or polygon_area(piece) == 0:
                continue
            pf_patch = f.patches[jf]
            diff = {(0, 0): c - pf_patch.c0, (1, 0): -pf_patch.cx, (0, 1): -pf_patch.cy}
            total += pf.integrate(piece, poly_mul(diff, diff), mode=mode)
    return total


def tent_field_bound(spec: CarpetSpec, n: int) -> Fraction:
    """Advertised envelope for the tent-cover energy at stage n."""
    a = spec.ratio(n)
    return Fraction(3, 2) * (1 - a) * side_length(spec, n) + \
        16 * (1 - a) ** 3 * side_length(spec, n - 1) / a


def per_tent_bound(spec: CarpetSpec, n: int) -> Fraction:
    """Advertised per-tent energy envelope (the exact value is smaller)."""
    e = gap_height(spec, n)
    d = side_length(spec, n)
    return Fraction(3, 4) * e * d + 8 * e ** 3 / d


@dataclass
class StageData:
    """All stage-n objects needed by the verifier, built once."""

    n: int
    tents: list
    strips: StripSet
    staircase: PiecewiseAffineField
    tent_field: PiecewiseAffineField
    flattened: PiecewiseAffineField
    neighborhoods: list
    ramp: PiecewiseAffineField
    witness: ProductVectorField


def build_stage(spec: CarpetSpec, n: int, f: PiecewiseAffineField) -> StageData:
    tents = build_tents(spec, n)
    strips = build_strips(spec, n)
    staircase = build_staircase(spec, n)
    tent_field = build_tent_field(spec, n, tents)
    flattened, neighborhoods = build_flattened(spec, n, tents)
    ramp = build_ramp(spec, n, f, tents)
    witness = product_with_gradient(ramp, flattened)
    return StageData(n=n, tents=tents, strips=strips, staircase=staircase,
                     tent_field=tent_field, flattened=flattened,
                     neighborhoods=neighborhoods, ramp=ramp, witness=witness)


def oscillation(f: PiecewiseAffineField, diameter_sq: Fraction) -> Fraction:
    """Cheap upper bound for the oscillation of f at a given scale.

    Uses sup|gradient| times the diameter, evaluated without square roots:
    returns osc^2 = diameter_sq * max(|grad|^2).
    """
    g2 = max(((p.cx ** 2 + p.cy ** 2) for p in f.patches), default=ZERO)
    return diameter_sq * g2


def verify_witness_sequence(spec: CarpetSpec, f: PiecewiseAffineField,
                            n_max: int, m: int, mode: str = "exact") -> VerificationReport:
    """Check every stage-n printed bound and the witness convergence trend.

    Produces one row per quantity with exact pass/fail flags; hypothesis
    diagnostics and tail brackets are attached where a generator rule makes
    the un-truncated carpet approachable.
    """
    report = VerificationReport(mode=mode)
    pf = Prefractal(spec, m)
    tail = None
    if spec.generator == "odd-reciprocal":
        try:
            t = tail_measure_bounds(spec, m)
            tail = (t.lower, t.upper)
        except TailDiverges:
            tail = None

    diag = validate_spec(spec)
    report.add("hypothesis", None, "square_summable", diag["square_summable"],
               note="ratio sequence must be square summable for positive carpet area")
    report.add("hypothesis", None, "shrink_to_zero", diag["shrink_to_zero"],
               note="products of earlier ratios must shrink faster than the next ratio")
    for i, r in enumerate(diag["shrink_ratios"], start=1):
        report.add("hypothesis", i, "shrink_ratio", r)

    f_sup = sup_norm(f)
    f_sup_sq = f_sup * f_sup
    witness_norms = []
    for n in range(1, n_max + 1):
        stage = build_stage(spec, n, f)
        a_n = spec.ratio(n)
        d_prev = side_length(spec, n - 1)

        strip_area = stage.strips.total_area
        report.add("witness", n, "strip_area", strip_area, a_n, strip_area <= a_n)

        strip_defect = coordinate_minus(stage.staircase)
        e_strip = dirichlet_energy(strip_defect, pf, mode=mode)
        report.add("witness", n, "strip_defect_energy", e_strip, a_n, e_strip <= a_n,
                   tail=(e_strip * tail[0], e_strip) if tail else None)

        counts = tents_per_column(stage.tents)
        max_per_col = max(counts.values())
        col_bound = 2 / d_prev
        report.add("witness", n, "tent_count_per_column_max", max_per_col, col_bound,
                   Fraction(max_per_col) <= col_bound,
                   note=f"total tents {len(stage.tents)}")

        pt_bound = per_tent_bound(spec, n)
        worst = e_tents = ZERO if mode == "exact" else 0.0
        for t in stage.tents:
            e_one = dirichlet_energy(PiecewiseAffineField(t.field_patches()), pf, mode=mode)
            e_tents += e_one
            if e_one > worst:
                worst = e_one
        report.add("witness", n, "tent_energy_max", worst, pt_bound, worst <= pt_bound)

        tf_bound = tent_field_bound(spec, n)
        report.add("witness", n, "tent_field_energy", e_tents, tf_bound,
                   e_tents <= tf_bound,
                   tail=(e_tents * tail[0], e_tents) if tail else None)

        violations = check_local_constancy(stage.flattened, stage.neighborhoods)
        report.add("witness", n, "local_constancy_violations", len(violations), 0,
                   not violations)

        flat_defect = coordinate_minus(stage.flattened)
        e_flat = dirichlet_energy(flat_defect, pf, mode=mode)
        report.add("witness", n, "flattened_defect_energy", e_flat,
                   note="compared against (sqrt(strip bound) + sqrt(tent energy))^2",
                   bound=a_n + e_tents, passed=leq_sqrt_sum_sq(e_flat, a_n, e_tents))

        ramp_sup = sup_norm(stage.ramp)
        report.add("witness", n, "ramp_sup", ramp_sup, f_sup * d_prev,
                   ramp_sup <= f_sup * d_prev,
                   note=f"previous side {d_prev} vs 1/n {Fraction(1, n)}: "
                        f"{'<=' if d_prev <= Fraction(1, n) else '>'}")

        w_norm = l2_norm_sq(stage.witness, pf, mode=mode)
        e_flat_grad = dirichlet_energy(stage.flattened, pf, mode=mode)
        report.add("witness", n, "witness_l2", w_norm, ramp_sup ** 2 * e_flat_grad,
                   w_norm <= ramp_sup ** 2 * e_flat_grad)
        witness_norms.append(w_norm)

        c_defect = curl_defect_sq(stage.ramp, stage.flattened, f, pf, mode)
        osc_sq = oscillation(f, 2 * d_prev ** 2)
        envelope_cross = 4 * f_sup_sq * e_flat * osc_sq * pf.measure
        env_ok = leq_with_sqrt(c_defect, f_sup_sq * e_flat, osc_sq * pf.measure,
                               envelope_cross)
        report.add("witness", n, "curl_defect_l2", c_defect,
                   f_sup_sq * e_flat + osc_sq * pf.measure, env_ok,
                   note="envelope (sup|f| sqrt(E) + osc sqrt(area))^2 tested exactly")

        v_defect = vertical_defect_sq(stage.flattened, pf, mode)
        report.add("witness", n, "vertical_defect", v_defect, e_flat,
                   v_defect <= e_flat,
                   note="second gradient component alone")

    decreasing = all(witness_norms[i] > witness_norms[i + 1]
                     for i in range(len(witness_norms) - 1))
    report.add("witness", None, "witness_l2_strictly_decreasing", decreasing,
               True, decreasing if n_max > 1 else None)
    return report
