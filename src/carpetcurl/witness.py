"""Corrector geometry certifying that the carpet curl has a trivial adjoint.

For each stage n the construction flattens the vertical coordinate near the
cell boundaries of the stage-n grid: horizontal strips absorb the slope of a
staircase profile, tent-shaped bump fields absorb it along the vertical cut
segments between holes, and per-cell horizontal ramps turn the flattened
gradient into a vector field whose rotation approximates a target function
f = c0 + cx*x + cy*y, given as the triple (c0, cx, cy) of ints or
``Fraction``s (``affine_target``), while the field itself shrinks to zero.
Stage n is built on integers: every vertex of its partition (tents,
flattened patches, cell pieces and neighbourhoods) is an int on the lattice
(1/L_n)Z^2, L_n = ``stage_scale(spec, n)``, and the maps are affine in unit
coordinates: a flattened patch is the int tuple (vertices, c0, cx, cy), its
map c0 / L_n + cx*x + cy*y, the staircase is int bands, and a cell field
(the ramp, the wedge remainder) holds each piece's map as int numerators
over one int denominator (``build_cell_field``), so every energy comparison
below is an exact inequality.  The rows are summed on ints: each term is an
int pair (numerator, denominator) built from the region moments of
``Prefractal.moments`` and those int maps, the pairs are added per
denominator, and each row makes one ``Fraction`` (``_RowSum``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .carpet import (
    CarpetSpec,
    ConstructionError,
    Prefractal,
    column_obstacles,
    gap_height,
    side_length,
    stage_lines,
    tail_measure_bounds,
    TailDiverges,
    validate_spec,
)
from .fields import ProductVectorField, refine_pairs
from .geometry import _area2, cross, square_integral, strictly_convex
from .report import VerificationReport, leq_sqrt_sum_sq, leq_with_sqrt


def _rectangle(x0, y0, x1, y1):
    return ((x0, y0), (x1, y0), (x1, y1), (x0, y1))


def build_staircase(spec: CarpetSpec, n: int):
    """Continuous profile in y: slope 0 across strips, slope 1 elsewhere.

    Returns (L_n, bands), L_n = ``stage_scale(spec, n)``: the bands are the
    full-width horizontal strips [y0, y1] of the unit square, bottom to
    top, as int tuples (y0, y1, value, slope) on the stage-n lattice, where
    ``value`` is the profile at y0 times L_n, so the profile on the band is
    (value + slope*(Y - y0)) / L_n at the lattice height Y.  It is zero on
    the bottom edge, and each strip is the stage-n side, 4 steps, high about
    its cut.
    """
    scale, lines = stage_lines(spec, n)
    breaks = [0]
    for c in lines[1:-1]:
        breaks += (c - 2, c + 2)
    breaks.append(scale)
    bands = []
    value = 0
    for i, (y0, y1) in enumerate(zip(breaks, breaks[1:])):
        slope = 0 if i % 2 else 1
        bands.append((y0, y1, value, slope))
        value += slope * (y1 - y0)
    return scale, tuple(bands)


class Tent(namedtuple("Tent", "column_x y_lo y_hi cut row")):
    """One tent over a vertical gap between obstacles in a cut column.

    The rectangle spans the full gap; the enclosed trapezoid rises with slope
    one from the full-width base at the bottom of the gap to the half-width
    top edge, and the two side triangles fall off linearly in x.  Gaps ending
    at a larger hole or at the square boundary are shorter than the template
    height 4 * (q_n - 1) and reuse the same shape scaled to the actual gap.
    ``cut`` is the index of the column among the cuts of ``stage_lines`` and
    ``row`` the cell row holding the gap, so the tent sits on the edge
    between cells ``cut`` and ``cut + 1`` of that row.  Every length is an
    int on the stage-n lattice, whose scale is ``stage_scale(spec, n)``:
    there every tent is 4 steps wide, the stage-n side, so its half width is
    2, its quarter width 1 and its side slope 4 * height / width the int
    height.  The trapezoid and triangles are cached in the instance's
    ``__dict__``, so every patch built on them shares one tuple; a tent
    takes no assignment, to a field or otherwise.
    """

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to {name!r}: a Tent is immutable")

    @property
    def height(self) -> int:
        return self.y_hi - self.y_lo

    @property
    def rectangle(self):
        return (self.column_x - 2, self.y_lo, self.column_x + 2, self.y_hi)

    @cached_property
    def trapezoid(self):
        x = self.column_x
        return ((x - 2, self.y_lo), (x + 2, self.y_lo), (x + 1, self.y_hi), (x - 1, self.y_hi))

    @cached_property
    def triangles(self):
        x = self.column_x
        left = ((x - 2, self.y_lo), (x - 1, self.y_hi), (x - 2, self.y_hi))
        right = ((x + 2, self.y_lo), (x + 2, self.y_hi), (x + 1, self.y_hi))
        return (left, right)


def build_tents(spec: CarpetSpec, n: int):
    """All tents at stage n, ordered by column then height, on the stage-n lattice."""
    scale, lines = stage_lines(spec, n)
    cuts = lines[1:-1]
    # the gap height (1 - 1/q_n) * (previous side) on the lattice
    template = 4 * (spec.subdivisions(n) - 1)
    tents = []
    for cut, x_c in enumerate(cuts):
        obstacles = column_obstacles(spec, n, x_c)
        events = [(0, 0, "boundary")] + \
                 [(lo, hi, "hole" if stage == n else "big") for (lo, hi, stage) in obstacles] + \
                 [(scale, scale, "boundary")]
        for (lo_a, hi_a, kind_a), (lo_b, hi_b, kind_b) in zip(events, events[1:]):
            if hi_a >= lo_b:
                raise ConstructionError(f"overlapping obstacles in column {x_c}/{scale}")
            gap = lo_b - hi_a
            expected = template if kind_a == kind_b == "hole" else template // 2
            if gap != expected:
                raise ConstructionError(f"gap {gap}/{scale} between {kind_a} and {kind_b} in "
                                        f"column {x_c}/{scale} is not the expected "
                                        f"{expected}/{scale}")
            # every crossing of two cut lines lies inside a hole, so a gap
            # never touches a cut and the cuts below it count its row
            tents.append(Tent(column_x=x_c, y_lo=hi_a, y_hi=lo_b, cut=cut,
                              row=bisect_right(cuts, hi_a)))
    return tents


def tents_per_column(tents) -> dict:
    """The number of tents on each cut, keyed by cut index."""
    counts = {}
    for t in tents:
        counts[t.cut] = counts.get(t.cut, 0) + 1
    return counts


class CellNeighborhood(NamedTuple):
    """Boundary neighborhood of one grid cell: strip pieces plus trapezoids.

    The cell box and the pieces are ints on the stage-n lattice.
    """

    cell_index: int
    cell: tuple
    rectangles: tuple
    trapezoids: tuple

    def pieces(self):
        return self.rectangles + self.trapezoids


def _tent_index(tents) -> dict:
    """(cut, row) -> the index in ``tents`` of the tent on that cell edge."""
    index = {(t.cut, t.row): k for k, t in enumerate(tents)}
    if len(index) != len(tents):
        raise ConstructionError("two tents on one cell edge")
    return index


def _cells(lines):
    """The grid cells (x0, y0, x1, y1) between the cell lines, row-major."""
    return tuple((x0, y0, x1, y1) for y0, y1 in zip(lines, lines[1:])
                 for x0, x1 in zip(lines, lines[1:]))


def build_neighborhoods(spec: CarpetSpec, n: int, tents):
    """One CellNeighborhood per grid cell (strip rectangles and the trapezoids of ``tents``)."""
    scale, lines = stage_lines(spec, n)
    tent_at = _tent_index(tents)
    ncols = len(lines) - 1
    half = 2  # half the stage-n side
    out = []
    for idx, (x0, y0, x1, y1) in enumerate(_cells(lines)):
        rects = tuple(_rectangle(x0, y - half, x1, y + half) for y in (y0, y1) if 0 < y < scale)
        # cut i - 1 is the cell's left edge, cut i its right edge
        row, i = divmod(idx, ncols)
        traps = tuple(tents[tent_at[edge]].trapezoid
                      for edge in ((i - 1, row), (i, row)) if edge in tent_at)
        out.append(CellNeighborhood(cell_index=idx, cell=(x0, y0, x1, y1),
                                    rectangles=rects, trapezoids=traps))
    return out


_BAND = "band"


def _stage_layout(spec: CarpetSpec, n: int, tents):
    """The stage-n partition: each flattened patch with the cell pieces inside it.

    Walks the slab rows bottom to top, each left to right, and yields
    (part, vertices, (c0, cx, cy), pieces) per flattened patch, in
    ``build_flattened`` order, all ints on the stage-n lattice: vertices
    over L_n, the map's slopes in unit coordinates and c0 times L_n, so the
    patch's map is c0 / L_n + cx*x + cy*y.  The flattened coordinate is
    constant on the strip bands (part ``_BAND``) and on the tent trapezoids,
    slanted on the tent side triangles (part k for the trapezoid and
    triangles of ``tents[k]``), and slope-one on the slab rectangles between
    tents and on the slab remainders below and above a truncated tent (part
    None).

    ``pieces`` are the ``build_cell_field`` pieces inside the patch, as
    (vertices, owner): ``owner`` is the index of the cell whose map a core or
    tent-side piece uses, or, for a seam triangle, the cells whose maps give
    the values at its three vertices.  Cell cores lie in their slab
    rectangle, a cell's side of a tent is the tent's triangle itself, each
    slab remainder splits at the cut between the two cells, and the seams
    cut the strip bands and the tent trapezoids into triangles.
    """
    one, xs = stage_lines(spec, n)  # one is L_n, the unit length on the lattice
    cuts = xs[1:-1]
    height = 4  # the stage-n side: the strip height
    half = 2
    ncols = len(xs) - 1
    # the cell edges moved half a strip inward (the unit square's own edges
    # stay): a tent or band on a cell edge ends the cell's core there, and
    # slab j = [inner_lo[j], inner_hi[j]] holds cell row j, band j above it
    inner_lo = [0] + [x + half for x in cuts]
    inner_hi = [x - half for x in cuts] + [one]

    for t in tents:
        if not (0 <= t.row < ncols and inner_lo[t.row] <= t.y_lo and t.y_hi <= inner_hi[t.row]):
            raise ConstructionError(f"tent at {t.column_x}/{one} not inside the slab of its "
                                    f"row {t.row}")
    tent_at = _tent_index(tents)

    for j in range(ncols):
        y0, y1 = inner_lo[j], inner_hi[j]
        k = -j * height  # the staircase is y + k on slab j
        base = j * ncols  # index of the row's first cell
        cursor, cores = 0, []
        for i in range(ncols):
            ti = tent_at.get((i, j))
            x_lo = inner_lo[i] if (i - 1, j) in tent_at else xs[i]
            x_hi = inner_hi[i] if ti is not None else xs[i + 1]
            cores.append((_rectangle(x_lo, y0, x_hi, y1), base + i))
            if ti is None:
                continue
            # the tent on the cell's right edge ends the slab rectangle
            t = tents[ti]
            xl, xc, xr = x_hi, xs[i + 1], inner_lo[i + 1]
            cell, right_cell = base + i, base + i + 1
            s = t.height  # the side slope
            bl, br, tr, tl = trap = t.trapezoid
            left, right = t.triangles
            yield None, _rectangle(cursor, y0, xl, y1), (k, 0, 1), cores
            yield ti, trap, (k + t.y_lo, 0, 0), [((bl, br, tr), (cell, right_cell, right_cell)),
                                                 ((bl, tr, tl), (cell, right_cell, cell))]
            yield ti, left, (k + s * xl, -s, 1), [(left, cell)]
            yield ti, right, (k - s * xr, s, 1), [(right, right_cell)]
            for lo, hi in ((y0, t.y_lo), (t.y_hi, y1)):
                if lo < hi:  # truncated tent: slab remainder below or above
                    yield None, _rectangle(xl, lo, xr, hi), (k, 0, 1), [
                        (_rectangle(xl, lo, xc, hi), cell), (_rectangle(xc, lo, xr, hi), right_cell)]
            cursor, cores = xr, []
        yield None, _rectangle(cursor, y0, one, y1), (k, 0, 1), cores
        if j < len(cuts):
            b1 = inner_lo[j + 1]
            seams = []
            for i in range(ncols):
                lower, upper = base + i, base + ncols + i
                pa, pb, pc, pd = _rectangle(inner_lo[i], y1, inner_hi[i], b1)
                seams += [((pa, pb, pc), (lower, lower, upper)),
                          ((pa, pc, pd), (lower, upper, upper))]
            yield _BAND, _rectangle(0, y1, one, b1), (y1 + k, 0, 0), seams


def _check_convex(verts, passed, what, index):
    # a canonical convex patch, tested on the lattice once per shape, its
    # vertices relative to the first: a translate of a shape in passed is one
    ax, ay = verts[0] if verts else (0, 0)
    shape = tuple([(x - ax, y - ay) for x, y in verts])
    if shape in passed:
        return
    if not strictly_convex(verts):
        raise ConstructionError(f"{what} {index} is not a counterclockwise convex polygon: "
                                + ", ".join(f"({x}, {y})" for x, y in verts))
    passed.add(shape)


class FlattenedField(NamedTuple):
    """The flattened coordinate with the cell pieces (vertices, owner) nested in it.

    Each patch is the int tuple (vertices, c0, cx, cy) that ``_stage_layout``
    yields: the vertices over ``scale``, L_n, and the map c0 / L_n + cx*x +
    cy*y in unit coordinates.  Pieces and the grid ``cells`` (x0, y0, x1,
    y1) are ints over ``scale`` too.  An owner indexes the grid ``cells``;
    piece i lies in patch ``cell_tags[i]``; ``band_tags`` are the strip-band
    patches and ``tent_tags[k]`` the trapezoid and triangles of
    ``tents[k]``, the stage's tents.  The pieces of each patch but a strip
    band tile it, so its measure over any prefractal is the sum of theirs
    (``_patch_measures``); a band's seams miss the crossings of the cuts,
    which lie in stage-n holes, so a band is that sum only at depth >= n.
    """

    patches: tuple
    scale: int
    pieces: tuple
    cell_tags: tuple
    band_tags: tuple
    tent_tags: tuple
    cells: tuple
    tents: tuple


def build_flattened(spec: CarpetSpec, n: int) -> FlattenedField:
    """The stage-n flattened coordinate: staircase minus tent cover.

    Builds the stage's tents and walks ``_stage_layout`` over them once, as a
    total partition.  Every patch and piece must be a counterclockwise convex
    polygon on the lattice, tested once per shape (its vertices relative to
    the first), the patches must cover the unit square and the strip bands
    the area a_n, or ``ConstructionError`` is raised.
    """
    tents = tuple(build_tents(spec, n))
    scale, lines = stage_lines(spec, n)
    patches, pieces, cell_tags, band_tags = [], [], [], []
    tent_tags = [[] for _ in tents]
    area2 = band_area2 = 0
    # the shapes that passed _check_convex, and the names its errors give
    passed, patch_name, piece_name = set(), f"stage-{n} patch", f"stage-{n} piece"
    for i, (part, verts, (c0, cx, cy), cell_pieces) in enumerate(_stage_layout(spec, n, tents)):
        _check_convex(verts, passed, patch_name, i)
        for piece in cell_pieces:
            _check_convex(piece[0], passed, piece_name, len(pieces))
            pieces.append(piece)
        a2 = _area2(verts)
        area2 += a2
        patches.append((verts, c0, cx, cy))
        cell_tags += [i] * len(cell_pieces)
        if part is _BAND:
            band_tags.append(i)
            band_area2 += a2
        elif part is not None:
            tent_tags[part].append(i)
    whole = 2 * scale * scale  # twice the unit square's area on the lattice
    if area2 != whole:
        raise ConstructionError(f"flattened patches cover {Fraction(area2, whole)}, not 1")
    # the strip bands cover a_n = 1 / q_n
    if band_area2 * spec.subdivisions(n) != whole:
        raise ConstructionError(f"stage-{n} strips cover {Fraction(band_area2, whole)}, "
                                f"not the ratio {spec.ratio(n)}")
    return FlattenedField(tuple(patches), scale, tuple(pieces), tuple(cell_tags),
                          tuple(band_tags), tuple(map(tuple, tent_tags)), _cells(lines), tents)


def check_local_constancy(flattened: FlattenedField, neighborhoods):
    """Every patch overlapping a boundary neighborhood must have zero gradient.

    The neighborhoods are on the lattice of ``flattened``.  Returns the list
    of violations (cell index, flattened patch index); empty means the key
    vanishing property holds exactly.

    A strip rectangle or tent trapezoid on a cell edge lies in the
    neighborhoods of both cells that share the edge, so each distinct piece
    is clipped once against the sloped patches (``refine_pairs``) and its
    overlaps are reported for every cell that owns it.  The list is the one
    a clip per (cell, piece) would give, in the same order: cell by cell,
    each cell's pieces in turn, and each piece's patches ascending.
    """
    index = {}  # distinct piece -> its position, in first-seen order
    owned = [(nb.cell_index, index.setdefault(piece, len(index)))
             for nb in neighborhoods for piece in nb.pieces()]
    sloped = [i for i, (_, _, cx, cy) in enumerate(flattened.patches) if cx or cy]
    hits = [[] for _ in index]
    for _, ia, ib in refine_pairs(list(index), [flattened.patches[i][0] for i in sloped]):
        hits[ia].append(sloped[ib])
    return [(cell, patch) for cell, k in owned for patch in hits[k]]


class CellField(NamedTuple):
    """A field glued from per-cell affine maps on the cell pieces of ``flattened``.

    Piece i of ``flattened`` carries ``maps[i]`` = (c0, cx, cy, d), ints: the
    map (c0 + cx*x + cy*y) / d in unit coordinates, its vertices over
    ``flattened.scale``.  Every vertex of a piece takes the map of its owner
    cell, which is gx*(x - c_x) + gy*(y - c_y) about the cell centre c; a
    piece with one owner carries that map itself.  ``sup_norm`` is the max
    of |value| over the pieces' vertices as an int pair (numerator,
    denominator), so its reader makes the one ``Fraction`` of the field.
    """

    flattened: FlattenedField
    maps: tuple
    sup_norm: tuple


def build_cell_field(flattened: FlattenedField, slopes, den: int) -> CellField:
    """Glue per-cell maps, each zero at its cell center, into a field continuous on the carpet.

    ``slopes`` holds one int pair (gx, gy) per grid cell, in
    ``flattened.cells`` order, over the one positive int ``den``: the cell's
    map is (gx*(x - c_x) + gy*(y - c_y)) / den about its center (c_x, c_y).
    The map is used verbatim on the cell minus its boundary neighborhood;
    across strip bands and tent trapezoids the values are joined by affine
    interpolation on triangles.  Jumps may remain only along edges buried
    inside removed holes, which the carpet never sees.  The pieces are the
    ones the stage's ``flattened`` field carries, in its order and on its
    lattice, so piece i lies in flattened patch ``flattened.cell_tags[i]``.

    On the lattice of scale L the cell (x0, y0, x1, y1) has the core map
    (-gx*(x0 + x1) - gy*(y0 + y1), 2L*gx, 2L*gy) over D = 2L*den, and its
    value at the lattice point (X, Y) is the int c0 + 2*(gx*X + gy*Y) over
    D.  A seam triangle (p_0, p_1, p_2) has two vertices owned by one cell a
    and an odd vertex p_k owned by a cell b, so its map is in closed form
    map_a + delta * lambda_k, with delta the int value_b(p_k) - value_a(p_k)
    over D and lambda_k = cross(p_i, p_j, p) / cross(p_i, p_j, p_k) the
    barycentric coordinate of p_k.  With the int determinant d =
    cross(p_0, p_1, p_2) and (ex, ey) = p_j - p_i, the map is
    (a0*d + delta*(ey*xi - ex*yi), ax*d - delta*L*ey, ay*d + delta*L*ex)
    over D*d; for delta = 0 it is map_a.  A seam keeps its vertex tuple as
    given: d > 0 is what ``build_flattened`` checks of every piece, and any
    other seam raises ``ConstructionError``.  The sup is one int max over
    the vertices each cell owns, over D.
    """
    scale = flattened.scale
    two_l = 2 * scale
    core_den = two_l * den
    # per cell: its core map over D, and its value's numerator at (X, Y),
    # c0 + 2*(gx*X + gy*Y), as (c0, gx, gy)
    cores, values = [], []
    for (x0, y0, x1, y1), (gx, gy) in zip(flattened.cells, slopes, strict=True):
        c0 = -gx * (x0 + x1) - gy * (y0 + y1)
        cores.append((c0, two_l * gx, two_l * gy, core_den))
        values.append((c0, 2 * gx, 2 * gy))

    maps, peak = [], 0
    for i, (verts, owner) in enumerate(flattened.pieces):
        if isinstance(owner, int):
            maps.append(cores[owner])
            c0, vx, vy = values[owner]
            for x, y in verts:
                v = abs(c0 + vx * x + vy * y)
                if v > peak:
                    peak = v
            continue
        d = cross(*verts)
        if d <= 0:
            raise ConstructionError(f"seam {i} is not a counterclockwise triangle: "
                                    + ", ".join(f"({x}, {y})" for x, y in verts))
        o0, o1, o2 = owner
        # k is the odd vertex; its two neighbours, p_i then p_j, belong to a
        k = 0 if o1 == o2 else 1 if o0 == o2 else 2 if o0 == o1 else None
        if k is None:
            raise ConstructionError(f"seam {i} has three owners {owner}")
        at = []  # each vertex's value under its owner's map
        for (x, y), o in zip(verts, owner):
            c0, vx, vy = values[o]
            v = c0 + vx * x + vy * y
            at.append(v)
            if abs(v) > peak:
                peak = abs(v)
        a = owner[k - 1]
        c0, vx, vy = values[a]
        px, py = verts[k]
        delta = at[k] - (c0 + vx * px + vy * py)
        if not delta:
            maps.append(cores[a])
            continue
        a0, ax, ay, _ = cores[a]
        (xi, yi), (xj, yj) = verts[k - 2], verts[k - 1]
        ex, ey = xj - xi, yj - yi
        maps.append((a0 * d + delta * (ey * xi - ex * yi), ax * d - delta * scale * ey,
                     ay * d + delta * scale * ex, core_den * d))
    return CellField(flattened, tuple(maps), (peak, core_den))


def build_ramp(flattened: FlattenedField, f: tuple) -> CellField:
    """Per-cell horizontal ramp: value-of-f-at-center times (x - center_x).

    ``f`` is the target c0 + cx*x + cy*y as (c0, cx, cy), ints or
    ``Fraction``s (``affine_target`` raises ``TypeError`` otherwise), and is
    evaluated at each cell center.
    Off the boundary neighborhoods the gradient is exactly (f(center), 0);
    the sup norm is at most sup|f| times the previous side length.  The
    pieces are the cell pieces of ``flattened`` (see ``build_cell_field``).
    With f = (b0 + bx*x + by*y) / e, the value at the centre of the cell
    (x0, y0, x1, y1) is the int b0*2L + bx*(x0 + x1) + by*(y0 + y1) over
    2*L*e, so every cell's slope is an int over that one denominator.
    """
    b0, bx, by, e = _over_lcd(*affine_target(f))
    two_l = 2 * flattened.scale
    return build_cell_field(flattened, [(b0 * two_l + bx * (x0 + x1) + by * (y0 + y1), 0)
                                        for x0, y0, x1, y1 in flattened.cells], two_l * e)


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


class StageData(NamedTuple):
    """All stage-n objects needed by the verifier, built once.

    The flattened field carries the stage partition (see ``FlattenedField``):
    the ramp maps its cell pieces, and the verifier reads the strip-band,
    tent and ramp tags off it.  ``witness`` is the ramp times the flattened
    gradient on the pieces where that gradient is nonzero, each piece's
    int ramp map with its patch's int gradient.
    """

    n: int
    tents: tuple
    flattened: FlattenedField
    neighborhoods: list
    ramp: CellField
    witness: ProductVectorField


def build_stage(spec: CarpetSpec, n: int, f: tuple) -> StageData:
    flattened = build_flattened(spec, n)
    ramp = build_ramp(flattened, f)
    # the ramp times the flattened gradient, read off the tags
    grads = [(cx, cy) for _, _, cx, cy in flattened.patches]
    witness = ProductVectorField(tuple(
        (verts, h, grads[t])
        for (verts, _), h, t in zip(flattened.pieces, ramp.maps, flattened.cell_tags)
        if grads[t] != (0, 0)), flattened.scale)
    return StageData(n=n, tents=flattened.tents, flattened=flattened,
                     neighborhoods=build_neighborhoods(spec, n, flattened.tents), ramp=ramp,
                     witness=witness)


def affine_target(f) -> tuple:
    """The target c0 + cx*x + cy*y, checked to be a tuple (c0, cx, cy) of
    ints or ``Fraction``s; anything else raises ``TypeError``."""
    if not (isinstance(f, tuple) and len(f) == 3
            and all(isinstance(v, (int, Fraction)) for v in f)):
        raise TypeError(f"the target must be a tuple (c0, cx, cy) of ints or Fractions, "
                        f"not {f!r}")
    return f


def _over_lcd(*values):
    # ints or Fractions as int numerators followed by their least common denominator
    den = lcm(*(v.denominator for v in values))
    return (*(v.numerator * (den // v.denominator) for v in values), den)


class _RowSum:
    """A row summed on ints: each term is an int pair (numerator,
    denominator), the numerators are added per denominator, and ``value``
    is one ``Fraction`` over the lcm of the distinct denominators, the int
    pair that ``pair`` gives."""

    def __init__(self, terms=()):
        self.sums = {}
        for num, den in terms:
            self.add(num, den)

    def add(self, num, den):
        self.sums[den] = self.sums.get(den, 0) + num

    def pair(self):
        common = lcm(*self.sums)
        return sum(num * (common // den) for den, num in self.sums.items()), common

    def value(self) -> Fraction:
        return Fraction(*self.pair())


def _largest(pairs) -> Fraction:
    """The largest of non-negative int pairs (numerator, positive
    denominator), compared by cross-multiplication, as one ``Fraction``;
    0 when there is none."""
    top, bottom = 0, 1
    for num, den in pairs:
        if num * bottom > top * den:
            top, bottom = num, den
    return Fraction(top, bottom)


def flattening_density(gx: int, gy: int):
    """|grad(y - p)|^2, the flattening energy density on a patch p whose
    gradient is the int pair (gx, gy), as an int pair (numerator, 1)."""
    return gx * gx + (1 - gy) ** 2, 1


def _patch_measures(pf: Prefractal, flat: FlattenedField, moments) -> list:
    """The measure over ``pf`` of each patch of ``flat``, as ``Fraction``s.

    ``moments`` holds ``pf.moments`` of each piece of ``flat``, in its
    order, or None for a piece left out.  A patch other than a strip band is
    tiled by its pieces (``FlattenedField``), so when none of them is left
    out its measure is the sum of their t[0] / (24 * s^2); a band, or a
    patch with a piece left out, is walked itself (``region_measure``).
    """
    parts = [[] for _ in flat.patches]
    for tag, piece in zip(flat.cell_tags, moments, strict=True):
        parts[tag].append(piece)
    bands = set(flat.band_tags)
    return [pf.region_measure(verts, flat.scale) if i in bands or None in part
            else _RowSum((t[0], 24 * s * s) for t, s in part).value()
            for i, ((verts, _, _, _), part) in enumerate(zip(flat.patches, parts))]


def _weighted(measures, densities):
    # each patch's density, an int pair, times its Fraction measure
    return ((a * m.numerator, b * m.denominator) for (a, b), m in zip(densities, measures))


def measure_sum(measures, densities) -> Fraction:
    """Sum over the patches of a per-patch constant density times the patch's
    measure, each density an int pair (numerator, denominator) and each
    measure a ``Fraction``: taken on ints, one ``Fraction``."""
    return _RowSum(_weighted(measures, densities)).value()


def verify_witness_sequence(f: tuple, n_max: int, pf: Prefractal) -> VerificationReport:
    """Check every stage-n printed bound and the witness convergence trend.

    Produces one row per quantity with exact pass/fail flags; hypothesis
    diagnostics and tail brackets are attached where a generator rule makes
    the un-truncated carpet approachable.  The carpet is ``pf.spec``, and
    every integral is taken over ``pf``, its level-m prefractal; the caller
    may share it with the wedge section, which then finds the shapes,
    classes and walks of this section's regions kept.  Each ramp piece is
    walked for its moments; a flattened patch's measure is the sum of its
    pieces' (``_patch_measures``), and only a strip band is walked itself.
    The target f = c0 + cx*x + cy*y on the unit square is given as
    (c0, cx, cy), ints or ``Fraction``s; anything else raises ``TypeError``
    before any stage is built.
    """
    c0, cx, cy = affine_target(f)
    spec = pf.spec
    report = VerificationReport()
    tail = None
    if spec.generator == "odd-reciprocal":
        try:
            t = tail_measure_bounds(spec, pf.level)
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

    # an affine map peaks at a vertex: one of the unit square's corners
    f_sup = max(abs(c0 + cx * x + cy * y) for x in (0, 1) for y in (0, 1))
    f_sup_sq = f_sup * f_sup
    b0, bx, by, e = _over_lcd(c0, cx, cy)
    witness_norms = []
    for n in range(1, n_max + 1):
        stage = build_stage(spec, n, f)
        a_n = spec.ratio(n)
        d_prev = side_length(spec, n - 1)

        # every integral below is a sum over the ramp pieces, each walked
        # once for its six moments and tagged with its flattened patch, or
        # over the flattened patches, each weighted by its measure: the sum
        # of its pieces' measures, or for a strip band its own walk
        flat = stage.flattened
        ramp_moments = [pf.moments(verts, flat.scale) for verts, _ in flat.pieces]
        measures = _patch_measures(pf, flat, ramp_moments)
        # each flattened patch's gradient (gx, gy), ints, and its flattening
        # energy |grad(y - flattened)|^2 as an int pair: on the strip bands it
        # is the strip defect (|grad(y - staircase)|^2), on a tent's three
        # patches the tent cover's |grad psi|^2
        grads = [(gx, gy) for _, _, gx, gy in flat.patches]
        defect = list(_weighted(measures, [flattening_density(gx, gy) for gx, gy in grads]))

        strip_area = Fraction(4 * len(flat.band_tags), flat.scale)
        report.add("witness", n, "strip_area", strip_area, a_n, strip_area <= a_n)

        e_strip = _RowSum(defect[i] for i in flat.band_tags).value()
        report.add("witness", n, "strip_defect_energy", e_strip, a_n, e_strip <= a_n,
                   tail=(e_strip * tail[0], e_strip) if tail else None)

        counts = tents_per_column(stage.tents)
        max_per_col = max(counts.values())
        col_bound = 2 / d_prev
        report.add("witness", n, "tent_count_per_column_max", max_per_col, col_bound,
                   Fraction(max_per_col) <= col_bound,
                   note=f"total tents {len(stage.tents)}")

        pt_bound = per_tent_bound(spec, n)
        worst = _largest(_RowSum(defect[i] for i in tags).pair() for tags in flat.tent_tags)
        e_tents = _RowSum(defect[i] for tags in flat.tent_tags for i in tags).value()
        report.add("witness", n, "tent_energy_max", worst, pt_bound, worst <= pt_bound)

        tf_bound = tent_field_bound(spec, n)
        report.add("witness", n, "tent_field_energy", e_tents, tf_bound,
                   e_tents <= tf_bound,
                   tail=(e_tents * tail[0], e_tents) if tail else None)

        violations = check_local_constancy(flat, stage.neighborhoods)
        report.add("witness", n, "local_constancy_violations", len(violations), 0,
                   not violations)

        e_flat = _RowSum(defect).value()
        report.add("witness", n, "flattened_defect_energy", e_flat,
                   note="compared against (sqrt(strip bound) + sqrt(tent energy))^2",
                   bound=a_n + e_tents, passed=leq_sqrt_sum_sq(e_flat, a_n, e_tents))

        ramp_sup = Fraction(*stage.ramp.sup_norm)
        report.add("witness", n, "ramp_sup", ramp_sup, f_sup * d_prev,
                   ramp_sup <= f_sup * d_prev,
                   note=f"previous side {d_prev} vs 1/n {Fraction(1, n)}: "
                        f"{'<=' if d_prev <= Fraction(1, n) else '>'}")

        # each ramp piece's map (a0 + ax*x + ay*y) / d, ints; the target is
        # (b0 + bx*x + by*y) / e
        w_sum, c_sum = _RowSum(), _RowSum()
        for (a0, ax, ay, d), t, moments in zip(stage.ramp.maps, flat.cell_tags, ramp_moments):
            gx, gy = grads[t]
            g2 = gx * gx + gy * gy
            if g2:
                num, den = square_integral(a0, ax, ay, d, moments)
                w_sum.add(g2 * num, den)
            # the witness rotation ramp_x * flat_y - ramp_y * flat_x minus f,
            # over d * e
            c_sum.add(*square_integral((ax * gy - ay * gx) * e - b0 * d, -bx * d, -by * d,
                                       d * e, moments))
        w_norm, c_defect = w_sum.value(), c_sum.value()
        e_flat_grad = measure_sum(measures, ((gx * gx + gy * gy, 1) for gx, gy in grads))
        report.add("witness", n, "witness_l2", w_norm, ramp_sup ** 2 * e_flat_grad,
                   w_norm <= ramp_sup ** 2 * e_flat_grad)
        witness_norms.append(w_norm)

        # the target's squared oscillation at cell scale, |grad f|^2 times the
        # squared diagonal 2*d_prev^2, as the wedge section's remainder bound
        osc_sq = 2 * d_prev ** 2 * (cx ** 2 + cy ** 2)
        envelope_cross = 4 * f_sup_sq * e_flat * osc_sq * pf.measure
        env_ok = leq_with_sqrt(c_defect, f_sup_sq * e_flat, osc_sq * pf.measure,
                               envelope_cross)
        report.add("witness", n, "curl_defect_l2", c_defect,
                   f_sup_sq * e_flat + osc_sq * pf.measure, env_ok,
                   note="envelope (sup|f| sqrt(E) + osc sqrt(area))^2 tested exactly")

        v_defect = measure_sum(measures, (((gy - 1) ** 2, 1) for _, gy in grads))
        report.add("witness", n, "vertical_defect", v_defect, e_flat,
                   v_defect <= e_flat,
                   note="second gradient component alone")

    decreasing = all(witness_norms[i] > witness_norms[i + 1]
                     for i in range(len(witness_norms) - 1))
    report.add("witness", None, "witness_l2_strictly_decreasing", decreasing,
               True, decreasing if n_max > 1 else None)
    return report
