"""Square-integrable differential forms of order one and two on the carpet.

One-forms are finite sums of terms (weight, coefficient, differentiated
field); two-forms add a second differentiated slot and integrate the Gram
determinant of the two gradients.  All inner products reduce every term pair
to a single polynomial per region of a common partition refinement, so
identities that hold pointwise (Leibniz rule, alternation, the vanishing of
the second wedge defect) come out as exact zeros without any tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .carpet import CarpetSpec, Prefractal, side_length
from .fields import (
    PCScalarField,
    PiecewiseAffineField,
    constant_field,
    refine_pairs,
    sup_norm,
)
from .geometry import ZERO, poly_add, poly_mul, poly_scale
from .report import VerificationReport
from .witness import (
    affine_target,
    build_cell_field,
    build_flattened,
    build_tents,
    flattening_density,
    measure_sum,
    partition_tags,
    square_integral,
)

ONE = Fraction(1)


@dataclass(frozen=True)
class ProductField:
    """Product of two piecewise-affine fields, kept in factored form.

    Values are quadratic per refined patch; gradients are affine, which is
    exactly what the inner products below need.
    """

    u: PiecewiseAffineField
    v: PiecewiseAffineField

    def atoms(self):
        regions = []
        data = []
        for region, iu, iv in refine_pairs([p.vertices for p in self.u.patches],
                                           [p.vertices for p in self.v.patches]):
            pu = self.u.patches[iu]
            pv = self.v.patches[iv]
            upoly = pu.value_poly()
            vpoly = pv.value_poly()
            value = poly_mul(upoly, vpoly)
            gx = poly_add(poly_scale(upoly, pv.cx), poly_scale(vpoly, pu.cx))
            gy = poly_add(poly_scale(upoly, pv.cy), poly_scale(vpoly, pu.cy))
            regions.append(region)
            data.append((value, gx, gy))
        return regions, data


def _field_atoms(obj):
    """Uniform atom view: (regions, [(value_poly, gx_poly, gy_poly)])."""
    if isinstance(obj, PiecewiseAffineField):
        regions = [p.vertices for p in obj.patches]
        data = [(p.value_poly(), {(0, 0): p.cx}, {(0, 0): p.cy}) for p in obj.patches]
        return regions, data
    if isinstance(obj, ProductField):
        return obj.atoms()
    raise TypeError(f"unsupported field object {type(obj).__name__}")


@dataclass(frozen=True)
class OneForm:
    """Finite sum of weight * coefficient * d(field) terms."""

    terms: tuple  # (weight, coeff_obj, diff_obj)

    def __add__(self, other):
        return OneForm(self.terms + other.terms)

    def __neg__(self):
        return OneForm(tuple((-w, c, d) for (w, c, d) in self.terms))

    def __sub__(self, other):
        return self + (-other)


@dataclass(frozen=True)
class TwoForm:
    """Finite sum of weight * coefficient * d(first) wedge d(second) terms."""

    terms: tuple  # (weight, coeff_obj, diff1_obj, diff2_obj)

    def __add__(self, other):
        return TwoForm(self.terms + other.terms)

    def __neg__(self):
        return TwoForm(tuple((-w, h, f, g) for (w, h, f, g) in self.terms))

    def __sub__(self, other):
        return self + (-other)


def d0(f) -> OneForm:
    """Derivation taking a function to a one-form with unit coefficient."""
    return OneForm(((ONE, constant_field(1), f),))


def d1(omega: OneForm) -> TwoForm:
    """Exterior derivative of a sum of g*d(f) terms: sum of d(g) wedge d(f)."""
    terms = []
    for (w, coeff, diff) in omega.terms:
        terms.append((w, constant_field(1), coeff, diff))
    return TwoForm(tuple(terms))


def wedge(a: OneForm, b: OneForm) -> TwoForm:
    """Pointwise exterior product of two one-forms."""
    out = []
    for (w1, c1, f1) in a.terms:
        for (w2, c2, f2) in b.terms:
            coeff = _product_or_field(c1, c2)
            out.append((w1 * w2, coeff, f1, f2))
    return TwoForm(tuple(out))


def multiply(h, omega: OneForm) -> OneForm:
    """Function action on a one-form, multiplying the coefficients."""
    return OneForm(tuple((w, _product_or_field(h, c), d) for (w, c, d) in omega.terms))


def multiply_two(h, xi: TwoForm) -> TwoForm:
    """Function action on a two-form; left and right actions agree."""
    return TwoForm(tuple((w, _product_or_field(h, c), f, g) for (w, c, f, g) in xi.terms))


def _is_const_one(obj) -> bool:
    return (isinstance(obj, PiecewiseAffineField) and len(obj.patches) == 1
            and obj.patches[0].cx == 0 and obj.patches[0].cy == 0
            and obj.patches[0].c0 == 1)


def _product_or_field(a, b):
    if _is_const_one(a):
        return b
    if _is_const_one(b):
        return a
    if isinstance(a, PiecewiseAffineField) and isinstance(b, PiecewiseAffineField):
        return ProductField(a, b)
    raise TypeError("cannot multiply nested products; expand terms instead")


def _common_refinement(partitions):
    """Regions of the common refinement with patch indices per partition."""
    if not partitions:
        return []
    current = [(r, (i,)) for i, r in enumerate(partitions[0])]
    for part in partitions[1:]:
        current = [(piece, current[i][1] + (j,))
                   for piece, i, j in refine_pairs([r for r, _ in current], part)]
    return current


class _AtomTable:
    """Deduplicated partitions and per-term atom lookups for inner products."""

    def __init__(self):
        self.partitions = []
        self.data = []
        self.by_id = {}

    def register(self, obj):
        key = id(obj)
        if key not in self.by_id:
            regions, data = _field_atoms(obj)
            self.by_id[key] = len(self.partitions)
            self.partitions.append(regions)
            self.data.append(data)
        return self.by_id[key]


def inner_one(a: OneForm, b: OneForm, pf: Prefractal):
    """Inner product of one-forms: integral of c1*c2*grad(f1).grad(f2)."""
    table = _AtomTable()
    ta = [(w, table.register(c), table.register(d)) for (w, c, d) in a.terms]
    tb = [(w, table.register(c), table.register(d)) for (w, c, d) in b.terms]
    total = ZERO
    for region, idx in _common_refinement(table.partitions):
        integrand = {}
        for (w1, c1, d1) in ta:
            v1, gx1, gy1 = _atom(table, c1, d1, idx)
            for (w2, c2, d2) in tb:
                v2, gx2, gy2 = _atom(table, c2, d2, idx)
                gamma_poly = poly_add(poly_mul(gx1, gx2), poly_mul(gy1, gy2))
                piece = poly_mul(poly_mul(v1, v2), gamma_poly)
                integrand = poly_add(integrand, poly_scale(piece, w1 * w2))
        if any(v != 0 for v in integrand.values()):
            total += pf.integrate(region, integrand)
    return total


def _atom(table, c_part, d_part, idx):
    vpoly = table.data[c_part][idx[c_part]][0]
    _, gx, gy = table.data[d_part][idx[d_part]]
    return vpoly, gx, gy


def norm_sq_one(a: OneForm, pf: Prefractal):
    return inner_one(a, a, pf)


def inner_two(a: TwoForm, b: TwoForm, pf: Prefractal):
    """Inner product of two-forms via the gradient Gram determinant."""
    table = _AtomTable()
    ta = [(w, table.register(h), table.register(f), table.register(g))
          for (w, h, f, g) in a.terms]
    tb = [(w, table.register(h), table.register(f), table.register(g))
          for (w, h, f, g) in b.terms]
    total = ZERO
    for region, idx in _common_refinement(table.partitions):
        integrand = {}
        for (w1, h1, f1, g1) in ta:
            hv1 = table.data[h1][idx[h1]][0]
            _, fx1, fy1 = table.data[f1][idx[f1]]
            _, gx1, gy1 = table.data[g1][idx[g1]]
            for (w2, h2, f2, g2) in tb:
                hv2 = table.data[h2][idx[h2]][0]
                _, fx2, fy2 = table.data[f2][idx[f2]]
                _, gx2, gy2 = table.data[g2][idx[g2]]
                gff = poly_add(poly_mul(fx1, fx2), poly_mul(fy1, fy2))
                ggg = poly_add(poly_mul(gx1, gx2), poly_mul(gy1, gy2))
                gfg = poly_add(poly_mul(fx1, gx2), poly_mul(fy1, gy2))
                ggf = poly_add(poly_mul(gx1, fx2), poly_mul(gy1, fy2))
                det = poly_add(poly_mul(gff, ggg), poly_scale(poly_mul(gfg, ggf), -1))
                piece = poly_mul(poly_mul(hv1, hv2), det)
                integrand = poly_add(integrand, poly_scale(piece, w1 * w2))
        if any(v != 0 for v in integrand.values()):
            total += pf.integrate(region, integrand)
    return total


def norm_sq_two(a: TwoForm, pf: Prefractal):
    return inner_two(a, a, pf)


@dataclass(frozen=True)
class GammaDensity:
    """Pointwise gradient product of two fields on their common refinement."""

    density: PCScalarField
    essential_sup: Fraction


def gamma(f: PiecewiseAffineField, g: PiecewiseAffineField, pf: Prefractal) -> GammaDensity:
    pieces = []
    ess = ZERO
    for region, i, j in refine_pairs([p.vertices for p in f.patches],
                                     [p.vertices for p in g.patches]):
        pf_, pg_ = f.patches[i], g.patches[j]
        val = pf_.cx * pg_.cx + pf_.cy * pg_.cy
        pieces.append((region, val))
        if abs(val) > ess and pf.region_measure(region) > 0:
            ess = abs(val)
    return GammaDensity(density=PCScalarField(tuple(pieces)), essential_sup=ess)


def build_cutoff_form(spec: CarpetSpec, n: int, f: PiecewiseAffineField,
                      flattened: Optional[PiecewiseAffineField] = None, tents=None):
    """Stage-n one-form: localized remainder of f times d(flattened coordinate).

    The remainder subtracts from f its value at each cell center and fades to
    zero across the boundary neighborhoods, where the flattened coordinate is
    locally constant; its values there never contribute to any inner product.
    Returns (one_form, remainder_field).
    """
    if len(f.patches) != 1:
        raise ValueError("cutoff construction expects a globally affine target")
    base = f.patches[0]
    if tents is None:
        tents = build_tents(spec, n)
    if flattened is None:
        flattened = build_flattened(spec, n, tents)

    def cell_map(idx, cell):
        x0, y0, x1, y1 = cell
        center = ((x0 + x1) / 2, (y0 + y1) / 2)
        return (base.c0 - base.value_at(center), base.cx, base.cy)

    remainder = build_cell_field(spec, n, cell_map, tents)
    return OneForm(((ONE, remainder, flattened),)), remainder


def verify_wedge_approximation(spec: CarpetSpec, f: PiecewiseAffineField,
                               g: PiecewiseAffineField, stages, m: int) -> VerificationReport:
    """Check the two wedge defects of the vanishing one-form sequence.

    For each stage n the first defect compares the wedge against the
    flattened coordinate and must stay below 2*esssup(gamma(f))^2 times the
    flattening energy; the second defect must vanish identically.  The wedge
    norm itself stays bounded below, which is the whole point: a sequence of
    one-forms shrinking to zero whose derivatives do not.
    """
    base = affine_target(f)
    gy = affine_target(g)
    if (gy.cx, gy.cy) != (ZERO, ONE):
        raise ValueError("the flattening approximates the vertical coordinate; pass g = y")
    report = VerificationReport()
    pf = Prefractal(spec, m)
    gamma_f = gamma(f, f, pf)
    gf_sup = gamma_f.essential_sup

    wedge_fg = wedge(d0(f), d0(g))
    wedge_norm = norm_sq_two(wedge_fg, pf)
    report.add("wedge", None, "wedge_norm_sq", wedge_norm, Fraction(3, 4),
               wedge_norm > Fraction(3, 4),
               note="lower bound; equals the prefractal area for coordinate fields")

    def det(a, b):
        return a.cx * b.cy - a.cy * b.cx

    # In the plane the Gram determinant of two wedges is the product of their
    # determinants (Cauchy-Binet), so |sum w*h*df^dg|^2 = (sum w*h*det[df, dg])^2
    # pointwise.  The remainder is a cell field, so each of its patches lies
    # inside the flattened patch partition_tags names, and every norm below
    # is a sum over patches.
    det_fg = det(base, gy)
    for n in stages:
        tents = build_tents(spec, n)
        flattened = build_flattened(spec, n, tents)
        _, remainder = build_cutoff_form(spec, n, f, flattened, tents)
        tags, _, _ = partition_tags(spec, n, tents)
        measures = [pf.region_measure(p.vertices) for p in flattened.patches]
        # remainder patches under a nonzero flattened gradient; on the others
        # both the cutoff form and the second defect vanish identically
        active = [(p, flattened.patches[t]) for p, t in zip(remainder.patches, tags)
                  if flattened.patches[t].gradient != (0, 0)]
        moments = [pf.moments(p.vertices) for p, _ in active]

        omega_norm = sum(((q.cx ** 2 + q.cy ** 2) * square_integral(p, mom)
                          for (p, q), mom in zip(active, moments)), ZERO)
        report.add("wedge", n, "cutoff_form_l2", omega_norm)

        rem_sup = sup_norm(remainder)
        d_prev = side_length(spec, n - 1)
        osc_sq = (base.cx ** 2 + base.cy ** 2) * 2 * d_prev ** 2
        report.add("wedge", n, "remainder_sup_sq", rem_sup * rem_sup, osc_sq,
                   rem_sup * rem_sup <= osc_sq,
                   note="squared sup against squared oscillation at cell scale")

        e_flat = measure_sum(flattened, measures, flattening_density)
        # df^dg - df^d(flattened)
        defect1 = measure_sum(flattened, measures,
                              lambda q: (det_fg - det(base, q)) ** 2)
        bound1 = 2 * gf_sup ** 2 * e_flat
        report.add("wedge", n, "wedge_defect_primary", defect1, bound1,
                   defect1 <= bound1)

        # df^d(flattened) - d(remainder)^d(flattened)
        defect2 = sum(((det(base, q) - det(p, q)) ** 2 * mom[0]
                       for (p, q), mom in zip(active, moments)), ZERO)
        report.add("wedge", n, "wedge_defect_secondary", defect2, ZERO,
                   defect2 == 0, note="must vanish identically")
    return report


def one_form_to_json(omega: OneForm) -> dict:
    """Terms wrapper around the scalar-field wire format."""
    from .fields import field_to_json

    def field_payload(obj):
        if isinstance(obj, ProductField):
            return {"product": [field_to_json(obj.u), field_to_json(obj.v)]}
        return field_to_json(obj)

    return {"terms": [
        {"weight": [w.numerator, w.denominator],
         "coefficient": field_payload(c),
         "differential_of": field_payload(d)}
        for (w, c, d) in omega.terms]}
