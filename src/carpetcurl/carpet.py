"""Generalized Sierpinski carpets with exact rational geometry.

A carpet is driven by a sequence of subdivision ratios whose reciprocals are
odd integers; at every stage each surviving square is split into an odd grid
and the central cell is discarded.  Prefractals are kept implicit: measures
and integrals descend the subdivision tree lazily, short-circuiting
on squares that lie entirely inside the query region, and integrals stop one
level above the leaves, where the prefractal is a square minus its hole.  A
query region is taken as the stage layout builds it: a canonical convex
polygon (``geometry.strictly_convex``, tested once per shape, the vertices
relative to the first), a tuple of int vertex pairs with the scale they are
over, so the point (x, y) is (x / scale, y / scale).  The lattice
refinement and the level of a region are found once per shape too, and each
translation class of regions is walked once, on the block of squares that
keys it, on integers, or not at all when a mirror image of it under the
block's symmetries was; nothing is kept per region.  One classifier takes
squares a row at a time, one floor division per region line bounding the
run inside it: a square passes down only the lines whose run misses it,
and the run inside the region enters in closed form as arithmetic series of
corners.  A leaf crossed by region lines is a translate of a cut square,
the square at the origin clipped exactly by each moved line in turn, so the
walk sums the corners of each translated set, a cut square or a level's
pattern, a hole inside the region with sign -1, and moves each set's
moments once.  A region's moments stay ints: numerators over the scale of
the lattice the walk refined it to (``Prefractal.moments``), which the rows
sum as ints before they make one ``Fraction``.  Squares and holes are ints
too: ``enumerate_squares`` gives level-m corners on the lattice of
the level-m side, and a stage-n partition lies on (1/L_n)Z^2, L_n =
``stage_scale(spec, n)``, where ``enumerate_holes`` gives the hole boxes,
``stage_lines`` the cell lines and ``column_obstacles`` the holes on a cut.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterator, NamedTuple

from .geometry import (
    MOMENT_DIVISORS,
    MONOMIALS,
    ZERO,
    clip_halfplane,
    moment_sums,
    poly_dot,
    strictly_convex,
)

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


class CarpetSpec(namedtuple("CarpetSpec", "ratios generator")):
    """Subdivision ratio sequence, optionally extended by a generator rule.

    ``generator='odd-reciprocal'`` continues with 1/(2n+1); ``'constant'``
    repeats the last explicit ratio.  The ratios are kept as a tuple of
    ``Fraction``s, checked when the spec is built.
    """

    __slots__ = ()

    def __new__(cls, ratios, generator=None):
        ratios = tuple(Fraction(r) for r in ratios)
        for i, r in enumerate(ratios, start=1):
            if r <= 0 or r > Fraction(1, 3):
                raise RatioOutOfRange(i, r)
            if r.numerator != 1 or r.denominator % 2 == 0:
                raise NonOddReciprocal(i, r)
        if generator is not None and generator not in GENERATORS:
            raise SpecError(f"unknown generator {generator!r}")
        if generator == "constant" and not ratios:
            raise SpecError("constant generator needs at least one explicit ratio")
        return super().__new__(cls, ratios, generator)

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


def stage_scale(spec: CarpetSpec, n: int) -> int:
    """L_n = 4 / side_length(spec, n): the stage-n partition lies on (1/L_n)Z^2.

    The cuts sit at odd multiples of half the previous side, the strips and
    tents are one stage-n side wide and a tent's top edge half of one, so a
    quarter of the stage-n side is the lattice step.
    """
    if n < 1:
        raise SpecError(f"stage {n} must be >= 1")
    return 4 * prod(spec.subdivisions(i) for i in range(1, n + 1))


def _surviving_squares(subdiv, k, x0, y0, d):
    # the surviving squares inside the level-k square of side d at (x0, y0)
    if k == len(subdiv):
        yield (x0, y0)
        return
    q = subdiv[k]
    d //= q
    c = q // 2
    for jy in range(q):
        for jx in range(q):
            if jx != c or jy != c:
                yield from _surviving_squares(subdiv, k + 1, x0 + jx * d, y0 + jy * d, d)


def enumerate_squares(spec: CarpetSpec, level: int) -> Iterator:
    """Stream the lower-left corners of all surviving level-``level`` squares.

    The corners are ints over the product of q_i for i <= ``level``, the
    lattice on which every such square has side 1.
    """
    if level < 0:
        raise SpecError(f"level {level} must be >= 0")
    subdiv = [spec.subdivisions(i) for i in range(1, level + 1)]  # raises StageBeyondSpec early
    return _surviving_squares(subdiv, 0, 0, 0, prod(subdiv))


def enumerate_holes(spec: CarpetSpec, n: int) -> Iterator:
    """Stream the stage-n holes (one per surviving level-(n-1) square).

    Each hole is an int box (x0, y0, x1, y1) on the stage-n lattice, whose
    scale is ``stage_scale(spec, n)``: a level-(n-1) square is 4 * q_n steps
    wide and its hole the middle 4 of them.
    """
    if n < 1:
        raise SpecError(f"stage {n} must be >= 1")
    step = 4 * spec.subdivisions(n)
    lo = step // 2 - 2
    return ((x * step + lo, y * step + lo, x * step + lo + 4, y * step + lo + 4)
            for x, y in enumerate_squares(spec, n - 1))


def prefractal_measure(spec: CarpetSpec, m: int) -> Fraction:
    """Area of the level-m prefractal: the product of (1 - ratio_i^2)."""
    out = Fraction(1)
    for i in range(1, m + 1):
        out *= 1 - spec.ratio(i) ** 2
    return out


class TailInterval(NamedTuple):
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


def stage_lines(spec: CarpetSpec, n: int):
    """(L_n, the cell lines): 0, the cuts and L_n, as ints on the stage-n lattice.

    The previous side is 4 * q_n lattice steps, and the cuts, through the
    stage-n hole centres, sit at its odd halves.  The lines must bound cells
    whose diagonals are at most sqrt(2) times the previous side, or
    ``ConstructionError`` is raised.
    """
    scale = stage_scale(spec, n)
    step = 4 * spec.subdivisions(n)
    lines = (0,) + tuple(range(step // 2, scale, step)) + (scale,)
    _check_cell_diagonals(n, lines, step)
    return scale, lines


def _check_cell_diagonals(n, lines, side):
    # the longest cell diagonal is sqrt(2) times the widest gap between two
    # lines, so it is at most sqrt(2) * side exactly when no gap exceeds side
    widest = max(b - a for a, b in zip(lines, lines[1:]))
    if widest > side:
        raise ConstructionError(f"a stage-{n} cell {widest}/{lines[-1]} wide has a diagonal "
                                f"longer than sqrt(2) * {side}/{lines[-1]}")


class Prefractal:
    """Implicit level-m prefractal with exact integration support.

    Every surviving level-k square holds the same pattern, whose moments at
    the origin are ``pattern[k]``; ``_shifted_moments`` moves them to any
    set of corners, so integrals take fully-covered squares without
    descending to the leaves.  ``moments`` is the one region path: a region
    is a canonical convex polygon, a tuple of int vertices, with the scale
    they are over, and nothing is kept per region.  A region is keyed by its
    translation class: the lattice scale, the deepest level j whose side is
    at least the region's bbox extent, the survival mask of the level-j
    squares its open bbox meets, and its vertices relative to that block's
    corner, held as the vertices relative to the bbox corner and that
    corner's offset in the block.
    All but the mask and the offset depend on the region's shape alone, so
    ``_shapes`` keeps them per shape (``_shape``), with the shape's bbox
    extents for the unit-square test of each placement.  ``_walk`` reads only
    the key and starts at the mask's surviving squares, so ``_classes``
    keeps each class's moments relative to the corner, and a translate
    shifts them to its own.  Every surviving square holds the same pattern,
    which has the eight symmetries of the square (``pattern[k]``), so a
    class missing from ``_classes`` is first sought among the walked ones by
    its images under its block's symmetries (``_class_moments``): a hit's
    moments are mirrored back, and ``_orbits`` keeps each walk's moments by
    the block's scale, level and mask and the region's vertex set, so one
    walk serves a mirror orbit of classes.  The walk classifies squares a
    row at a time (``_row_ranges``), against the region lines that cross
    their parent only: the run inside every line enters the covered power
    sums as arithmetic series, and each square of the run outside none is
    walked with the lines whose run misses it.  A leaf (or a level-m hole)
    crossed by some lines is the origin square cut by the moved lines,
    translated; ``_templates`` keeps the moments of each such cut square,
    clipped when first seen (``_cut_square``), and the walk sums the
    translates' corners.
    """

    def __init__(self, spec: CarpetSpec, level: int):
        if level < 0:
            raise SpecError("level must be >= 0")
        self.spec = spec
        self.level = level
        self.subdiv = [spec.subdivisions(k) for k in range(1, level + 1)]
        # the lattice on which every side length is an integer, and the sides
        # on it: the level-k side is the product of the subdivisions of
        # stages k+1 to level
        self.side_scale = prod(self.subdiv)
        self.side_ints = [prod(self.subdiv[k:]) for k in range(level + 1)]
        # pattern[k]: 24 times the moments of the level-m set inside the
        # level-k square at the origin, on the side lattice.  At level m that
        # set is the cut square of side 1 with no line; above, it is the next
        # level's pattern moved to the child corners (a, b), a and b in
        # ``row``, but the central one.
        self.pattern = [None] * level + [_cut_square((1,))]
        for k in range(level - 1, -1, -1):
            q, dc = self.subdiv[k], self.side_ints[k + 1]
            row = range(0, q * dc, dc)
            hole = row[q // 2]
            lin = q * sum(row) - hole
            sq = q * sum(a * a for a in row) - hole * hole
            corners = (q * q - 1, lin, lin, sq, sum(row) ** 2 - hole * hole, sq)
            self.pattern[k] = _shifted_moments(self.pattern[k + 1], corners)
        # translation class -> moment numerators relative to the class corner
        self._classes = {}
        # orbit key of a walked class (``_class_moments``) -> its moments
        self._orbits = {}
        # (scale, vertices relative to the first) -> the shape's part of the
        # class key (``_shape``), kept once a region of that shape passed
        self._shapes = {}
        # level j -> the centre-digit bitmasks of the level-j indices
        self._digit_bits = {}
        # cut square (side, a1, b1, c1, a2, ...) -> 24 times the moments,
        # over MONOMIALS, of the square of that side at the origin cut by
        # every a*x + b*y >= c, on the lattice of that side
        self._templates = {}

    @property
    def measure(self) -> Fraction:
        return Fraction(self.pattern[0][0], 24 * self.side_scale ** 2)

    # -- exact integration -------------------------------------------------

    def moments(self, region, scale):
        """The six exact moments of MONOMIALS over (prefractal intersect region),
        as ints: a pair (t, s) of six int numerators and the int scale s of
        the lattice the region was refined to, monomial (p, q) being
        t[i] / (24 * s^(2+p+q)).

        ``region`` is a tuple of int vertex pairs over the int ``scale``, as
        the stage layout builds it: a canonical convex polygon inside the
        unit square (``geometry.strictly_convex``).  Every call checks the
        region, before anything is stored, in this order: a list, a non-int
        vertex or a non-int scale raises ``TypeError``, a scale below 1
        ``ValueError``, fewer than three vertices ``ValueError``, leaving the
        unit square ``OutOfUnitSquare``, and a non-canonical region
        ``ValueError``.  Convexity is tested once per shape, the vertices
        relative to the first one on their scale, when a placement of it
        first passes the unit-square test: a region whose shape is known is
        a translate of one that passed.  This is the one region path, and it
        keeps nothing per region: a region asked for again costs its shape
        and class lookups and the shift.  The numerators are in MONOMIALS
        order and not reduced: s is a multiple of ``scale`` fixed by the
        region's edges (``_shape``), so one polygon on two scales may give
        two pairs of equal value.  ``geometry.poly_dot`` and
        ``geometry.square_integral`` integrate over them on ints.
        """
        if type(region) is not tuple:
            raise TypeError(f"a region is a tuple of vertex pairs, not a {type(region).__name__}")
        if type(scale) is not int:
            raise TypeError(f"a region is int vertices over an int scale, not {region} over {scale}")
        for x, y in region:
            if type(x) is not int or type(y) is not int:
                raise TypeError(f"a region is int vertices over an int scale, "
                                f"not {region} over {scale}")
        if scale < 1:
            raise ValueError(f"the scale of a region is an int >= 1, not {scale}")
        if len(region) < 3:
            raise _not_convex(region)
        # a region is a placement of its shape, its vertices relative to the
        # first one; everything up to the class key but the placement's own
        # corner depends on the shape and the scale alone
        ax, ay = region[0]
        key = (scale, tuple([(x - ax, y - ay) for x, y in region]))
        shape = self._shapes.get(key)
        known = shape is not None
        if not known:
            shape = self._shape(*key)
        lx, ly, hx, hy, up, w, h, j, d, bits, rel0 = shape
        bx0, by0 = ax + lx, ay + ly
        if bx0 < 0 or by0 < 0 or ax + hx > scale or ay + hy > scale:
            raise OutOfUnitSquare("region leaves the unit square")
        if not known:
            # strict convexity is kept by translation and scaling, so one
            # test per shape settles it for every placement
            if not strictly_convex(key[1]):
                raise _not_convex(region)
            self._shapes[key] = shape
        # the bbox corner on the refined lattice, its offset in the level-j
        # square holding it, and the survival of the block the open bbox meets
        bx0, by0 = bx0 * up, by0 * up
        ox, oy, mask = _survival(bits, bx0, by0, w, h, d)
        x0, y0 = bx0 - ox, by0 - oy
        scale *= up
        # the translation class: the block's survival mask and the region's
        # vertices relative to the block's corner, rel0 moved by (ox, oy)
        ckey = (scale, j, mask, rel0, ox, oy)
        base = self._classes.get(ckey)
        if base is None:
            rel = tuple([(x + ox, y + oy) for x, y in rel0])
            base = self._classes[ckey] = self._class_moments(rel, scale, j, d, mask)
        return _shifted_moments(base, (1, x0, y0, x0 * x0, x0 * y0, y0 * y0)), scale

    def integrate(self, region, scale, poly):
        """Integral of a degree<=2 polynomial over (prefractal intersect region).

        ``region`` and ``scale`` are as for ``moments``; the integral is the
        sum of coefficient times moment over MONOMIALS, summed on ints and
        returned as one ``Fraction``.  ``poly`` maps (p, q) exponent pairs to
        int or ``Fraction`` coefficients in unit coordinates; a nonzero
        coefficient on any other monomial raises ``ValueError``
        (``geometry.poly_dot``).
        """
        return Fraction(*poly_dot(poly, self.moments(region, scale)))

    def region_measure(self, region, scale):
        """Exact area of (prefractal intersect region) for a convex polygon."""
        return self.integrate(region, scale, {(0, 0): 1})

    def _class_moments(self, rel, scale, j, d, mask):
        # the moments of a class, its vertices rel relative to the corner of
        # its block of level-j squares of side d, whose survival is mask.
        # Every surviving level-j square holds the same pattern, which has
        # the square's eight symmetries, so a symmetry of the block maps the
        # level-m set inside it onto the set inside the image block, whose
        # mask is moved alike.  An image is the swap x <-> y, then a flip
        # within the block's width and/or height.  If the orbit key of one of
        # the eight images, the scale, j, the image mask and the image's
        # vertex set, holds a walk's moments, they are moved back: the flip
        # is its own inverse, then the swap.  Otherwise the class is walked
        # and kept under its own key.
        orbits, own = self._orbits, None
        for swap in (False, True):
            pts, m = ([(y, x) for x, y in rel], tuple(zip(*mask))) if swap else (rel, mask)
            w, h = len(m[0]) * d, len(m) * d
            cols = tuple([row[::-1] for row in m])
            for fw, fh, fm in ((0, 0, m), (w, 0, cols), (0, h, m[::-1]), (w, h, cols[::-1])):
                key = (scale, j, fm, tuple(sorted([(fw - x if fw else x, fh - y if fh else y)
                                                   for x, y in pts])))
                t = orbits.get(key)
                if t is not None:
                    t = _flipped_moments(t, fw, fh)
                    return (t[0], t[2], t[1], t[5], t[4], t[3]) if swap else t
                if own is None:
                    own = key
        sides = [s * (scale // self.side_scale) for s in self.side_ints]
        t = orbits[own] = self._walk(rel, sides, j, mask)
        return t

    def _shape(self, scale, rel):
        # the placement-free part of the regions with vertices rel relative
        # to their first one, over scale: the bbox extents (lx, ly, hx, hy)
        # relative to that vertex; the factor up to the refined lattice and
        # the bbox's width and height on it; the level j, the side d of its
        # squares there and the level-j centre-digit bitmasks; and rel0, the
        # refined vertices relative to the bbox's lower-left corner.
        #
        # Every side length is an integer on the refined lattice, and every
        # crossing of a region edge with a grid line is a lattice point: a
        # slanted edge (dx, dy) through (x_p, y_p) meets x = X at
        # y_p + (X - x_p) * dy / dx, an integer when dx / gcd(dx, dy) divides
        # X - x_p, a multiple of refine; likewise for y = Y.  A cut square's
        # vertices lie on region edges and grid lines, so the walk, its cut
        # squares and its moment sums all run on integers.
        xs, ys = [x for x, _ in rel], [y for _, y in rel]
        lx, ly, hx, hy = min(xs), min(ys), max(xs), max(ys)
        refine = 1
        for i in range(len(rel)):
            dx = rel[i][0] - rel[i - 1][0]
            dy = rel[i][1] - rel[i - 1][1]
            if dx and dy:
                g = gcd(dx, dy)
                refine = lcm(refine, abs(dx) // g, abs(dy) // g)
        up = lcm(scale, self.side_scale) // scale * refine
        w, h = (hx - lx) * up, (hy - ly) * up
        # j is the deepest level whose squares are at least as wide as the
        # bbox, so the open bbox meets a block of at most 2 x 2 level-j
        # squares.  Every stage-k hole with k <= j is a union of level-j
        # squares and every surviving one holds the same deeper pattern, so
        # the block's survival mask and the region's vertices relative to the
        # block's corner fix the moments up to translation.  A shape wider
        # than the unit square gets j = 0 and never passes the unit-square
        # test.
        unit = scale * up // self.side_scale
        j = self.level
        while j and self.side_ints[j] * unit < max(w, h):
            j -= 1
        rel0 = tuple([((x - lx) * up, (y - ly) * up) for x, y in rel])
        return (lx, ly, hx, hy, up, w, h, j, self.side_ints[j] * unit,
                self._central_digits(j), rel0)

    def _central_digits(self, j):
        # per axis, the level-j square indices as bitmasks: bit k - 1 is set
        # when the index's level-k digit is the centre digit, so a level-j
        # square (ix, iy) is removed iff bits[ix] & bits[iy]; the same list
        # serves both axes and is built once per level queried
        bits = self._digit_bits.get(j)
        if bits is None:
            bits = [0]
            for k, q in enumerate(self.subdiv[:j]):
                bits = [b | (1 << k) if digit == q // 2 else b for b in bits for digit in range(q)]
            self._digit_bits[j] = bits
        return bits

    def _walk(self, reg, sides, j, mask):
        # the six moments of reg over the level-m set inside the block of
        # level-j squares whose survival is mask, reg and the block relative to
        # the block's corner, as integers over 24 * scale^(2+p+q).  Squares
        # are classified a row at a time (``_row_ranges``), the mask's squares
        # and a level-m hole as rows of one: a plane that holds on a square's
        # four corners holds on its children, so a square passes down only
        # the planes that cross it, and one that none crosses is covered.
        # The run of children inside every plane enters the covered power
        # sums as arithmetic series, the ones outside a plane are skipped,
        # and the rest are walked with the planes whose run misses them.  A
        # leaf (or a level-m hole) crossed by some planes is a translate of
        # the origin square cut by the moved planes, so its corner enters the
        # power sums of that cut square, whose moments (``_templates``) are
        # clipped once per instance (``_cut_square``).
        xs, ys = [x for x, _ in reg], [y for _, y in reg]
        rbx0, rby0, rbx1, rby1 = min(xs), min(ys), max(xs), max(ys)
        # half-plane form a*x + b*y >= c for each CCW edge
        planes = [(py - qy, qx - px, (py - qy) * px + (qx - px) * py)
                  for (px, py), (qx, qy) in zip(reg, reg[1:] + reg[:1])]

        # what is translated -> the power sums over the lower-left corners
        # (x0, y0) of its translates: count, sum x0, sum y0, sum x0^2,
        # sum x0*y0, sum y0^2, a hole entering with sign -1.  A level k is
        # the level-m set inside the level-k square, pattern[k]; a cut square
        # (side, a1, b1, c1, a2, ...) is the square of that side at the
        # origin cut by every a*x + b*y >= c
        table = defaultdict(lambda: [0] * 6)
        templates = self._templates

        def add(key, x0, y0, sign):
            t = table[key]
            t[0] += sign
            t[1] += sign * x0
            t[2] += sign * y0
            t[3] += sign * x0 * x0
            t[4] += sign * x0 * y0
            t[5] += sign * y0 * y0

        def leaf(x0, y0, d, cut, sign):
            # add sign * the moments of region intersect [x0, x0+d] x [y0, y0+d],
            # cut being the region's planes that cross the square.  Every
            # other plane holds on all of it, so it is the origin square cut
            # by the planes of cut moved by (-x0, -y0)
            key = (d,)
            for a, b, c in cut:
                key += (a, b, c - a * x0 - b * y0)
            if key not in templates:
                templates[key] = _cut_square(key)
            add(key, x0, y0, sign)

        def square(k, x0, y0, among, sign):
            # a level-k square that ``among`` may cross, as a row of one
            lo, hi, kept_lo, kept_hi, runs = _row_ranges(among, x0, y0, sides[k], 0, 0)
            if lo <= hi:
                add(k, x0, y0, sign)
            elif kept_lo <= kept_hi:
                cut = [plane for plane, a, b in runs if not a <= 0 <= b]
                if k == level:
                    leaf(x0, y0, sides[k], cut, sign)
                else:
                    walk(k, x0, y0, cut)

        level = self.level

        def walk(k, x0, y0, cut):
            # the level-k square at (x0, y0), crossed by the planes of cut
            # and inside every other plane
            q = self.subdiv[k]
            dc = sides[k + 1]
            c = (q - 1) // 2
            if k == level - 1:
                # inside S the level-m set is S minus its open central hole H,
                # a level-m square: outside the region it is skipped, inside
                # it is subtracted in closed form, and otherwise clipped
                leaf(x0, y0, sides[k], cut, 1)
                square(level, x0 + c * dc, y0 + c * dc, cut, -1)
                return
            jx0 = max(0, (rbx0 - x0) // dc)
            jx1 = min(q - 1, (rbx1 - 1 - x0) // dc)
            jy0 = max(0, (rby0 - y0) // dc)
            jy1 = min(q - 1, (rby1 - 1 - y0) // dc)
            t = table[k + 1]
            for jy in range(jy0, jy1 + 1):
                cy = y0 + jy * dc
                lo, hi, kept_lo, kept_hi, runs = _row_ranges(cut, x0, cy, dc, jx0, jx1)
                if lo <= hi:
                    # children lo..hi are covered: their corners x0 + i * dc
                    # summed as arithmetic series, less the central hole
                    n = hi - lo + 1
                    s1 = (lo + hi) * n // 2
                    s2 = (hi * (hi + 1) * (2 * hi + 1) - (lo - 1) * lo * (2 * lo - 1)) // 6
                    sx = n * x0 + dc * s1
                    t[0] += n
                    t[1] += sx
                    t[2] += n * cy
                    t[3] += n * x0 * x0 + 2 * x0 * dc * s1 + dc * dc * s2
                    t[4] += sx * cy
                    t[5] += n * cy * cy
                    if jy == c and lo <= c <= hi:
                        add(k + 1, x0 + c * dc, cy, -1)
                for jx in range(kept_lo, kept_hi + 1):
                    if not lo <= jx <= hi and (jx != c or jy != c):
                        walk(k + 1, x0 + jx * dc, cy,
                             [plane for plane, a, b in runs if not a <= jx <= b])

        # the walk enters the block only at its surviving level-j squares,
        # each of which meets the region's open bbox; the row bounds keep
        # every child inside the bbox's columns and rows, so every square
        # walked meets it too
        d = sides[j]
        for iy, row in enumerate(mask):
            for ix, alive in enumerate(row):
                if alive:
                    square(j, ix * d, iy * d, planes, 1)
        # each translated set's moments, the patterns on this lattice,
        # moved to its corners
        up = sides[0] // self.side_scale
        num = [0] * 6
        for key, sums in table.items():
            if any(sums):
                if type(key) is int:
                    moments = [v * up ** (2 + p + q)
                               for v, (p, q) in zip(self.pattern[key], MONOMIALS)]
                else:
                    moments = templates[key]
                num = [a + b for a, b in zip(num, _shifted_moments(moments, sums))]
        return num


def _survival(bits, bx0, by0, w, h, d):
    """The offset (ox, oy) of (bx0, by0) in the square of side d holding it,
    and the survival mask, rows bottom to top, of the block of squares of
    side d that the open box [bx0, bx0 + w] x [by0, by0 + h] meets, for
    w, h > 0.  ``bits`` are the squares' centre-digit bitmasks
    (``Prefractal._central_digits``): square (ix, iy) is removed iff
    bits[ix] & bits[iy].  The level is chosen so that the box is at most
    one square wide and high, so the block is at most 2 x 2, read from at
    most four bit tests; a box meeting three squares of a row or a column
    raises ``ConstructionError``."""
    ox, oy = bx0 % d, by0 % d
    if ox + w > 2 * d or oy + h > 2 * d:
        raise ConstructionError(f"a {w} x {h} box at ({bx0}, {by0}) meets more than "
                                f"2 x 2 squares of side {d}")
    ix, iy = bx0 // d, by0 // d
    bx, by = bits[ix], bits[iy]
    if ox + w > d:
        bx1 = bits[ix + 1]
        low = (not (bx & by), not (bx1 & by))
        if oy + h > d:
            by1 = bits[iy + 1]
            return ox, oy, (low, (not (bx & by1), not (bx1 & by1)))
        return ox, oy, (low,)
    if oy + h > d:
        return ox, oy, ((not (bx & by),), (not (bx & bits[iy + 1]),))
    return ox, oy, ((not (bx & by),),)


def _not_convex(reg):
    return ValueError(f"region with {len(reg)} vertices is not convex and "
                      "counterclockwise with a strict turn at each vertex")


def _row_ranges(cut, x0, y0, d, first, last):
    """For the squares of side d at (x0 + i * d, y0), first <= i <= last:
    (lo, hi, kept_lo, kept_hi, runs), where square i is inside every plane
    (a, b, c), meaning a*x + b*y >= c, of ``cut`` iff lo <= i <= hi and
    outside none iff kept_lo <= i <= kept_hi, and ``runs`` holds
    (plane, start, end) for each plane in order, square i being inside it
    iff start <= i <= end; a corner on a line counts as inside.  So a
    square i in the kept run is crossed by exactly the planes whose run
    misses it, and every other plane holds on all of it.  A plane's corner
    values on square i are its values on square 0 plus i * a * d, so its
    least (greatest) corner value is >= 0 on a run of i that one floor
    division bounds."""
    lo, hi, kept_lo, kept_hi = first, last, first, last
    runs = []
    for plane in cut:
        a, b, c = plane
        r = a * x0 + b * y0 - c
        ad, bd = a * d, b * d
        # the least and greatest corner values on square 0
        low, high = (r, r + ad) if ad > 0 else (r + ad, r)
        if bd > 0:
            high += bd
        else:
            low += bd
        if ad > 0:
            start, end, kept = -(low // ad), last, -(high // ad)
            if start > lo:
                lo = start
            if kept > kept_lo:
                kept_lo = kept
        elif ad < 0:
            start, end, kept = first, low // -ad, high // -ad
            if end < hi:
                hi = end
            if kept < kept_hi:
                kept_hi = kept
        elif high < 0:
            return first, first - 1, first, first - 1, ()
        elif low < 0:
            start = end = hi = first - 1
        else:
            start, end = first, last
        runs.append((plane, start, end))
    return lo, hi, kept_lo, kept_hi, runs


def _cut_square(key):
    """24 times the moments, over MONOMIALS, of the cut square ``key`` =
    (d, a1, b1, c1, a2, ...): the square of side d at the origin clipped
    exactly by each a*x + b*y >= c in turn (``geometry.clip_halfplane``).
    A vertex where two lines meet off the lattice stays an exact
    ``Fraction`` until a later line removes it; a kept one raises
    ``ConstructionError``."""
    d = key[0]
    pts = ((0, 0), (d, 0), (d, d), (0, d))
    for i in range(1, len(key), 3):
        a, b, c = key[i:i + 3]
        pts = clip_halfplane(pts, -a, -b, -c)
    if any(type(v) is not int for p in pts for v in p):
        raise ConstructionError(f"the cut square {key} keeps a vertex off the lattice: {pts}")
    return tuple(s * (24 // div) for s, div in zip(moment_sums(pts), MOMENT_DIVISORS))


def _flipped_moments(t, w, h):
    """The moments ``t`` of a set moved to those of its mirror image under
    x -> w - x when w is nonzero and y -> h - y when h is: the odd moments
    of each flipped axis change sign, then the set moves by (w, h)."""
    t00, t10, t01, t20, t11, t02 = t
    if w:
        t10, t11 = -t10, -t11
    if h:
        t01, t11 = -t01, -t11
    return _shifted_moments((t00, t10, t01, t20, t11, t02), (1, w, h, w * w, w * h, h * h))


def _shifted_moments(t, s):
    """The moments ``t`` of a set summed over its translates by a set of
    vectors (a, b), given their power sums ``s`` = (count, sum a, sum b,
    sum a^2, sum ab, sum b^2): the binomial expansion of (x + a)^p (y + b)^q.
    Integer moments and integer vectors give integers."""
    t00, t10, t01, t20, t11, t02 = t
    n, sa, sb, saa, sab, sbb = s
    return (n * t00, n * t10 + sa * t00, n * t01 + sb * t00,
            n * t20 + 2 * sa * t10 + saa * t00,
            n * t11 + sa * t01 + sb * t10 + sab * t00,
            n * t02 + 2 * sb * t01 + sbb * t00)


def column_obstacles(spec: CarpetSpec, n: int, x_cut: int):
    """Holes met by the vertical line x = x_cut, sorted by height.

    Returns (y_lo, y_hi, stage) triples covering stage-n holes centered on the
    line plus any earlier-stage hole whose interior the line crosses.  The
    line and the heights are ints on the stage-n lattice, whose scale is
    ``stage_scale(spec, n)``: there the level-k side is 4 times the product
    of the subdivisions of stages k+1 to n.
    """
    sides = [4]
    for i in range(n, 0, -1):
        sides.append(sides[-1] * spec.subdivisions(i))
    sides.reverse()
    obstacles = []

    def walk(k, x0, y0):
        d = sides[k]
        if not (x0 < x_cut < x0 + d):
            return
        if k == n - 1:
            lo = y0 + (d - sides[n]) // 2
            obstacles.append((lo, lo + sides[n], n))
            return
        q = spec.subdivisions(k + 1)
        dc = sides[k + 1]
        c = (q - 1) // 2
        jx = min((x_cut - x0) // dc, q - 1)
        for jy in range(q):
            if jx == c and jy == c:
                lo = y0 + jy * dc
                obstacles.append((lo, lo + dc, k + 1))
                continue
            walk(k + 1, x0 + jx * dc, y0 + jy * dc)

    walk(0, 0, 0)
    obstacles.sort()
    return obstacles


def geometry_json_records(spec: CarpetSpec, n: int):
    """Hole records in the wire format {stage, center:[num,den,...], side},
    the lattice ints divided by the stage-n scale as they are emitted."""
    scale = stage_scale(spec, n)
    side = Fraction(4, scale)
    recs = []
    for x0, y0, _, _ in enumerate_holes(spec, n):
        cx, cy = Fraction(x0 + 2, scale), Fraction(y0 + 2, scale)
        recs.append({
            "stage": n,
            "center": [cx.numerator, cx.denominator, cy.numerator, cy.denominator],
            "side": [side.numerator, side.denominator],
        })
    return recs


def parse_spec_config(text: str) -> CarpetSpec:
    """Parse the plain-text config: 'ratios = 1/3, 1/5' and optional generator.

    Each key may appear once; a repeated key raises ``SpecError``.
    """
    ratios = ()
    generator = None
    seen = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"malformed config line: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key in seen:
            raise SpecError(f"repeated config key {key!r}: {raw!r}")
        seen.add(key)
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
