"""The generic refinement calculus the tests hold the verifier to.

``verify`` reads every integral off one tagged stage partition.  This module
recomputes the same quantities the general way, through common refinements
of the fields' partitions (``carpetcurl.fields.refine_pairs``): piecewise
constant and product vector fields, energies and squared L2 norms, one- and
two-forms with their exact inner products, the tent cover and the witness
defects.  Identities that hold pointwise (Leibniz rule, alternation, the
vanishing of the second wedge defect) come out as exact zeros.  The polygon
and polynomial helpers it needs beyond ``carpetcurl.geometry`` (box clipping,
moments keyed by monomial, and the dict polynomials {(p, q): coefficient}
with their products, sums and scaling) live here too; the dict product is
also the oracle of ``geometry.square_integral``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from carpetcurl.carpet import CarpetSpec, Prefractal
from carpetcurl.fields import (
    AffinePatch,
    PiecewiseAffineField,
    ProductVectorField,
    _BoxIndex,
    constant_field,
    make_patch,
    refine_pairs,
)
from carpetcurl.geometry import (
    MOMENT_DIVISORS,
    MONOMIALS,
    ZERO,
    bbox,
    clip_halfplane,
    cross,
    moment_sums,
    normalize_polygon,
    polygon_area,
)
from carpetcurl.witness import build_cell_field, build_flattened, build_ramp, build_tents

ONE = Fraction(1)


# --- polygons and polynomials ---------------------------------------------


def clip_to_box(poly, x0, y0, x1, y1):
    """Intersection of a polygon with an axis-aligned box."""
    out = clip_halfplane(poly, Fraction(-1), ZERO, -x0)
    if out:
        out = clip_halfplane(out, Fraction(1), ZERO, x1)
    if out:
        out = clip_halfplane(out, ZERO, Fraction(-1), -y0)
    if out:
        out = clip_halfplane(out, ZERO, Fraction(1), y1)
    return out


def patch_from_vertex_values(triangle, v1, v2, v3) -> AffinePatch:
    """Affine patch on a triangle, kept as its vertices, interpolating three vertex values.

    The 3x3 solve by Cramer's rule; the oracle of the closed-form seams of
    ``witness.build_cell_field``.
    """
    (x1, y1), (x2, y2), (x3, y3) = triangle
    det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    if det == 0:
        raise ValueError("degenerate triangle")
    v1, v2, v3 = Fraction(v1), Fraction(v2), Fraction(v3)
    cx = ((v2 - v1) * (y3 - y1) - (v3 - v1) * (y2 - y1)) / det
    cy = ((v3 - v1) * (x2 - x1) - (v2 - v1) * (x3 - x1)) / det
    c0 = v1 - cx * x1 - cy * y1
    return make_patch(triangle, c0, cx, cy)


def polygon_moments(poly):
    """Exact moments of the MONOMIALS over a CCW polygon, keyed by (p, q)."""
    return {key: Fraction(s, div)
            for key, s, div in zip(MONOMIALS, moment_sums(poly), MOMENT_DIVISORS)}


def poly_mul(f, g):
    out = {}
    for (p1, q1), c1 in f.items():
        if c1 == 0:
            continue
        for (p2, q2), c2 in g.items():
            if c2 == 0:
                continue
            p, q = p1 + p2, q1 + q2
            if p + q > 2:
                raise ValueError(f"integrand degree {p + q} exceeds supported degree 2")
            key = (p, q)
            out[key] = out.get(key, ZERO) + c1 * c2
    return out


def affine_poly(c0, cx, cy):
    return {(0, 0): Fraction(c0), (1, 0): Fraction(cx), (0, 1): Fraction(cy)}


def value_poly(patch: AffinePatch):
    """The patch's affine map as a dict polynomial."""
    return affine_poly(patch.c0, patch.cx, patch.cy)


def poly_add(f, g):
    out = dict(f)
    for k, v in g.items():
        out[k] = out.get(k, ZERO) + v
    return out


def poly_scale(f, s):
    return {k: v * s for k, v in f.items()}


# --- fields ---------------------------------------------------------------


class SupportMismatch(ValueError):
    pass


@dataclass(frozen=True)
class PCVectorField:
    """Per-patch constant vector field: pieces (vertices, px, py)."""

    pieces: tuple


@dataclass(frozen=True)
class PCScalarField:
    """Per-patch constant scalar: pieces (vertices, value)."""

    pieces: tuple


def continuity_defects(field: PiecewiseAffineField, prefractal: Optional[Prefractal] = None,
                       hole_stage: Optional[int] = None):
    """Pairs of patches disagreeing along a shared edge segment.

    When a prefractal is given, shared segments whose midpoint lies in
    the closure of a removed hole (up to ``hole_stage``) are exempt: the
    field is free there, only its restriction off the holes matters.
    """
    defects = []
    index = _BoxIndex(field.patches, key=lambda p: bbox(p.vertices))
    for i, a in enumerate(field.patches):
        for j in index.candidates(bbox(a.vertices), closed=True):
            if j <= i:
                continue
            b = field.patches[j]
            for (p1, p2) in _shared_segments(a.vertices, b.vertices):
                mid = ((p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2)
                if prefractal is not None and prefractal.meets_closed_hole(mid, hole_stage):
                    continue
                for q in (p1, p2, mid):
                    if a.value_at(q) != b.value_at(q):
                        defects.append((i, j, q))
                        break
    return defects


def _shared_segments(poly_a, poly_b):
    """Positive-length overlaps of collinear boundary edges of two polygons."""
    na, nb = len(poly_a), len(poly_b)
    out = []
    for i in range(na):
        p1, p2 = poly_a[i], poly_a[(i + 1) % na]
        for j in range(nb):
            q1, q2 = poly_b[j], poly_b[(j + 1) % nb]
            # collinearity of the two edges
            if cross(p1, p2, q1) != 0 or cross(p1, p2, q2) != 0:
                continue
            dx, dy = p2[0] - p1[0], p2[1] - p1[1]
            den = dx * dx + dy * dy
            if den == 0:
                continue

            def t_of(pt):
                return ((pt[0] - p1[0]) * dx + (pt[1] - p1[1]) * dy) / den

            t1, t2 = t_of(q1), t_of(q2)
            lo, hi = max(ZERO, min(t1, t2)), min(ONE, max(t1, t2))
            if lo >= hi:
                continue
            out.append(((p1[0] + lo * dx, p1[1] + lo * dy), (p1[0] + hi * dx, p1[1] + hi * dy)))
    return out


def gradient(field: PiecewiseAffineField) -> PCVectorField:
    """Per-patch gradient; constant on every patch of an affine field."""
    return PCVectorField(tuple((p.vertices, p.cx, p.cy) for p in field.patches))


def curl(v: ProductVectorField) -> PCScalarField:
    """Patchwise rotation of h*w with h affine and w constant per piece.

    With v = h*(p, q) the rotation d(v2)/dx - d(v1)/dy equals hx*q - hy*p on
    each piece; the constant part w contributes nothing patchwise.
    """
    return PCScalarField(tuple(
        (verts, hc[1] * w[1] - hc[2] * w[0]) for (verts, hc, w) in v.pieces
    ))


def overlay(a, b):
    """Common refinement of two partitions covering the same support.

    Accepts fields or raw region lists; returns (region, ia, ib) triples.
    Raises SupportMismatch when the two total areas differ, and checks that
    the refinement preserves area exactly.
    """
    def regions(x):
        if isinstance(x, PiecewiseAffineField):
            return [p.vertices for p in x.patches]
        return [normalize_polygon(r) for r in x]

    regions_a, regions_b = regions(a), regions(b)
    area_a = sum((polygon_area(r) for r in regions_a), ZERO)
    area_b = sum((polygon_area(r) for r in regions_b), ZERO)
    if area_a != area_b:
        raise SupportMismatch(f"supports differ: {area_a} vs {area_b}")
    pieces = refine_pairs(regions_a, regions_b)
    refined_area = sum((polygon_area(r) for r, _, _ in pieces), ZERO)
    if refined_area != area_a:
        raise SupportMismatch("refinement lost area; partitions do not cover the same support")
    return pieces


def dirichlet_energy(field: PiecewiseAffineField, prefractal: Prefractal):
    """Sum over patches of |gradient|^2 times the prefractal measure."""
    total = ZERO
    for p in field.patches:
        g2 = p.cx * p.cx + p.cy * p.cy
        if g2 == 0:
            continue
        total += g2 * prefractal.region_measure(p.vertices)
    return total


def l2_norm_sq(obj, prefractal: Prefractal):
    """Exact squared L2 norm over the prefractal for any supported field kind."""
    total = ZERO
    if isinstance(obj, PiecewiseAffineField):
        for p in obj.patches:
            ipoly = poly_mul(value_poly(p), value_poly(p))
            total += prefractal.integrate(p.vertices, ipoly)
    elif isinstance(obj, PCVectorField):
        for (verts, px, py) in obj.pieces:
            v2 = px * px + py * py
            if v2 == 0:
                continue
            total += v2 * prefractal.region_measure(verts)
    elif isinstance(obj, PCScalarField):
        for (verts, val) in obj.pieces:
            if val == 0:
                continue
            total += val * val * prefractal.region_measure(verts)
    elif isinstance(obj, ProductVectorField):
        for (verts, (h0, hx, hy), (px, py)) in obj.pieces:
            v2 = px * px + py * py
            if v2 == 0:
                continue
            h = affine_poly(h0, hx, hy)
            total += prefractal.integrate(verts, poly_scale(poly_mul(h, h), v2))
    else:
        raise TypeError(f"cannot integrate {type(obj).__name__}")
    return total


def product_with_gradient(h: PiecewiseAffineField, g: PiecewiseAffineField) -> ProductVectorField:
    """The vector field h * grad(g) on the common refinement."""
    pieces = []
    for region, ih, ig in refine_pairs([p.vertices for p in h.patches],
                                       [p.vertices for p in g.patches]):
        ph, pg = h.patches[ih], g.patches[ig]
        if pg.cx == 0 and pg.cy == 0:
            continue
        pieces.append((region, (ph.c0, ph.cx, ph.cy), (pg.cx, pg.cy)))
    return ProductVectorField(tuple(pieces))


def _frac(x):
    x = Fraction(x)
    return [x.numerator, x.denominator]


def _verts(region):
    return [[_frac(p[0]), _frac(p[1])] for p in region]


def field_to_json(field: PiecewiseAffineField) -> dict:
    return {"patches": [{"vertices": _verts(p.vertices),
                         "coeffs": [_frac(p.c0), _frac(p.cx), _frac(p.cy)]}
                        for p in field.patches]}


def field_from_json(data: dict) -> PiecewiseAffineField:
    patches = []
    for rec in data["patches"]:
        verts = tuple((Fraction(xn, xd), Fraction(yn, yd)) for (xn, xd), (yn, yd) in rec["vertices"])
        (c0n, c0d), (cxn, cxd), (cyn, cyd) = rec["coeffs"]
        patches.append(AffinePatch(verts, Fraction(c0n, c0d), Fraction(cxn, cxd), Fraction(cyn, cyd)))
    return PiecewiseAffineField(tuple(patches))


def vector_field_to_json(v) -> dict:
    """Wire format for vector fields: two coefficient triples per piece.

    Constant pieces serialize the pair as degenerate triples; product pieces
    keep the scalar factor in the first triple and the direction in the
    second.
    """
    if isinstance(v, PCVectorField):
        return {"kind": "constant", "pieces": [
            {"vertices": _verts(r), "coeffs": [[_frac(px), _frac(0), _frac(0)],
                                               [_frac(py), _frac(0), _frac(0)]]}
            for (r, px, py) in v.pieces]}
    if isinstance(v, ProductVectorField):
        return {"kind": "product", "pieces": [
            {"vertices": _verts(r),
             "coeffs": [[_frac(h0), _frac(hx), _frac(hy)],
                        [_frac(px), _frac(py), _frac(0)]]}
            for (r, (h0, hx, hy), (px, py)) in v.pieces]}
    raise TypeError(f"cannot serialize {type(v).__name__}")


# --- forms ----------------------------------------------------------------


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
            upoly = value_poly(pu)
            vpoly = value_poly(pv)
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
        data = [(value_poly(p), {(0, 0): p.cx}, {(0, 0): p.cy}) for p in obj.patches]
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
    return TwoForm(tuple((w, constant_field(1), coeff, diff) for (w, coeff, diff) in omega.terms))


def wedge(a: OneForm, b: OneForm) -> TwoForm:
    """Pointwise exterior product of two one-forms."""
    return TwoForm(tuple((w1 * w2, _product_or_field(c1, c2), f1, f2)
                         for (w1, c1, f1) in a.terms for (w2, c2, f2) in b.terms))


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
                      flattened: Optional[PiecewiseAffineField] = None):
    """Stage-n one-form: the cutoff remainder of f times d(flattened coordinate).

    Returns (one_form, remainder_field).
    """
    if len(f.patches) != 1:
        raise ValueError("cutoff construction expects a globally affine target")
    if flattened is None:
        flattened = build_flattened(spec, n)
    remainder = build_cell_field(flattened, [f.patches[0].gradient] * len(flattened.cells))
    return OneForm(((ONE, remainder, flattened),)), remainder


def one_form_to_json(omega: OneForm) -> dict:
    """Terms wrapper around the scalar-field wire format."""
    def field_payload(obj):
        if isinstance(obj, ProductField):
            return {"product": [field_to_json(obj.u), field_to_json(obj.v)]}
        return field_to_json(obj)

    return {"terms": [
        {"weight": _frac(w),
         "coefficient": field_payload(c),
         "differential_of": field_payload(d)}
        for (w, c, d) in omega.terms]}


# --- witness --------------------------------------------------------------


def field_patches(tent):
    """The tent's trapezoid and two side triangles as patches of its cover."""
    s = tent.side_slope
    xl = tent.column_x - tent.width / 2
    xr = tent.column_x + tent.width / 2
    left, right = tent.triangles
    return (
        make_patch(tent.trapezoid, -tent.y_lo, 0, 1),
        make_patch(left, -s * xl, s, 0),
        make_patch(right, s * xr, -s, 0),
    )


def lambda_energy(tent) -> Fraction:
    """The tent cover's energy over the full rectangle under plain area measure."""
    h, w = tent.height, tent.width
    return Fraction(3, 4) * h * w + 4 * h ** 3 / w


def build_tent_field(spec: CarpetSpec, n: int, tents=None) -> PiecewiseAffineField:
    """The nonnegative tent cover, supported on the tent rectangles."""
    if tents is None:
        tents = build_tents(spec, n)
    return PiecewiseAffineField(tuple(p for t in tents for p in field_patches(t)))


def build_witness(spec: CarpetSpec, n: int, f: PiecewiseAffineField,
                  flattened=None, ramp=None) -> ProductVectorField:
    """The stage-n witness vector field: ramp times flattened gradient."""
    if flattened is None:
        flattened = build_flattened(spec, n)
    if ramp is None:
        ramp = build_ramp(flattened, f)
    return product_with_gradient(ramp, flattened)


def coordinate_minus(field: PiecewiseAffineField) -> PiecewiseAffineField:
    """The field y - given(x, y) on the given field's partition."""
    return PiecewiseAffineField(tuple(
        AffinePatch(p.vertices, -p.c0, -p.cx, 1 - p.cy) for p in field.patches))


def vertical_defect_sq(flattened: PiecewiseAffineField, pf: Prefractal):
    """Integral of (d/dy flattened - 1)^2 over the prefractal."""
    pieces = tuple((p.vertices, p.cy - 1) for p in flattened.patches)
    return l2_norm_sq(PCScalarField(pieces), pf)


def curl_defect_sq(ramp: PiecewiseAffineField, flattened: PiecewiseAffineField,
                   f: PiecewiseAffineField, pf: Prefractal):
    """Squared L2 distance between the witness rotation and the target f.

    The rotation is ramp_x * flat_y - ramp_y * flat_x on every refined patch,
    including those where the flattened gradient vanishes.
    """
    pieces = refine_pairs([p.vertices for p in ramp.patches],
                          [p.vertices for p in flattened.patches])
    total = ZERO
    for piece, k, jf in refine_pairs([region for region, _, _ in pieces],
                                     [p.vertices for p in f.patches]):
        _, ir, ig = pieces[k]
        pr = ramp.patches[ir]
        pg = flattened.patches[ig]
        c = pr.cx * pg.cy - pr.cy * pg.cx
        pf_patch = f.patches[jf]
        diff = {(0, 0): c - pf_patch.c0, (1, 0): -pf_patch.cx, (0, 1): -pf_patch.cy}
        total += pf.integrate(piece, poly_mul(diff, diff))
    return total
