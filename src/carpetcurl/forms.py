"""The wedge-approximation check of the vanishing one-form sequence.

The stage-n one-form is a remainder of the target f times the differential
of the flattened coordinate, which approximates g = y.  The target f = c0 +
cx*x + cy*y is the triple (c0, cx, cy) of ints or ``Fraction``s that
``witness.affine_target`` checks, and only its slopes enter.  The remainder
is the cell field of f's gradient (``witness.build_cell_field``), built from
the int slopes (bx, by) over e with grad f = (bx, by) / e: on each grid cell
it is f minus its value at the cell center, and each piece's map is int
numerators over one denominator.  For an affine f every norm of the check is a closed
form or a sum over the pieces of one tagged stage partition, so no common
refinement is built and no polygon is clipped.  The sums are taken on ints,
from those int maps and the int gradients (cx, cy) of the flattened
patches' tuples, one ``Fraction`` per row, as in ``witness``.
"""

from __future__ import annotations

from fractions import Fraction

from .carpet import Prefractal, side_length
from .geometry import ZERO, square_integral
from .report import VerificationReport
from .witness import (
    _over_lcd,
    _RowSum,
    affine_target,
    build_cell_field,
    build_flattened,
    flattening_density,
    measure_sum,
)


def verify_wedge_approximation(f: tuple, stages, pf: Prefractal) -> VerificationReport:
    """Check the two wedge defects of the vanishing one-form sequence.

    The second function of the wedge is g = y, the coordinate the flattened
    fields approximate.  For each stage n the first defect compares the
    wedge against the flattened coordinate and must stay below
    2*esssup(gamma(f))^2 times the flattening energy; the second defect must
    vanish identically.  The wedge norm itself stays bounded below, which is
    the whole point: a sequence of one-forms shrinking to zero whose
    derivatives do not.  The stage-n one-form is the cell field with f's
    gradient on every cell, times d(flattened).  The carpet is ``pf.spec``,
    and every integral is taken over ``pf``, its level-m prefractal; a
    ``pf`` the witness section has used already holds the moments of every
    region the two sections share.  A target that is not a tuple
    (c0, cx, cy) of ints or ``Fraction``s raises ``TypeError`` before any
    stage is built.
    """
    _, cx, cy = affine_target(f)
    spec = pf.spec
    report = VerificationReport()
    # grad f = (bx, by) / e, as ints
    bx, by, e = _over_lcd(cx, cy)

    # f and g = y are affine and every ratio is at most 1/3, so |P_m| > 0: the
    # wedge norm is the constant det(grad f, grad g)^2 = (df/dx)^2 integrated
    # over P_m, and the essential sup of gamma(f, f) is the constant |grad f|^2
    det_fg = cx
    gf_sup = cx ** 2 + cy ** 2
    wedge_norm = det_fg ** 2 * pf.measure
    report.add("wedge", None, "wedge_norm_sq", wedge_norm, Fraction(3, 4),
               wedge_norm > Fraction(3, 4),
               note="lower bound; equals the prefractal area for coordinate fields")

    # In the plane the Gram determinant of two wedges is the product of their
    # determinants (Cauchy-Binet), so |sum w*h*df^dg|^2 = (sum w*h*det[df, dg])^2
    # pointwise.  The remainder is built on the cell pieces the flattened
    # field carries, so each of its patches lies inside the flattened patch
    # its cell tag names, and every norm below is a sum over patches.
    for n in stages:
        flattened = build_flattened(spec, n)
        remainder = build_cell_field(flattened, [(bx, by)] * len(flattened.cells), e)
        measures = [pf.region_measure(verts, flattened.scale)
                    for verts, _, _, _ in flattened.patches]
        # each flattened patch's gradient (qx, qy), ints
        grads = [(qx, qy) for _, _, qx, qy in flattened.patches]
        # remainder pieces under a nonzero flattened gradient; on the others
        # both the cutoff form and the second defect vanish identically
        active = [(verts, p, grads[t]) for (verts, _), p, t in
                  zip(flattened.pieces, remainder.maps, flattened.cell_tags)
                  if grads[t][0] or grads[t][1]]
        moments = [pf.moments(verts, flattened.scale) for verts, _, _ in active]

        # per active piece: the cutoff form's |grad q|^2 * remainder^2 and the
        # second defect's (det(grad f, grad q) - det(grad p, grad q))^2, the
        # remainder's map p being (a0 + ax*x + ay*y) / d; a piece on which
        # that difference is zero adds nothing to the second
        omega_sum, defect2_sum = _RowSum(), _RowSum()
        for (_, (a0, ax, ay, d), (qx, qy)), mom in zip(active, moments):
            num, den = square_integral(a0, ax, ay, d, mom)
            omega_sum.add((qx * qx + qy * qy) * num, den)
            diff = (bx * qy - by * qx) * d - (ax * qy - ay * qx) * e
            if diff:
                defect2_sum.add(*square_integral(diff, 0, 0, e * d, mom))
        omega_norm, defect2 = omega_sum.value(), defect2_sum.value()
        report.add("wedge", n, "cutoff_form_l2", omega_norm)

        rem_sup = Fraction(*remainder.sup_norm)
        d_prev = side_length(spec, n - 1)
        osc_sq = gf_sup * 2 * d_prev ** 2
        report.add("wedge", n, "remainder_sup_sq", rem_sup * rem_sup, osc_sq,
                   rem_sup * rem_sup <= osc_sq,
                   note="squared sup against squared oscillation at cell scale")

        e_flat = measure_sum(measures, (flattening_density(qx, qy) for qx, qy in grads))
        # df^dg - df^d(flattened): (det_fg - det(grad f, grad q))^2 per patch
        defect1 = measure_sum(measures, (((bx * (1 - qy) + by * qx) ** 2, e * e)
                                         for qx, qy in grads))
        bound1 = 2 * gf_sup ** 2 * e_flat
        report.add("wedge", n, "wedge_defect_primary", defect1, bound1,
                   defect1 <= bound1)

        # df^d(flattened) - d(remainder)^d(flattened)
        report.add("wedge", n, "wedge_defect_secondary", defect2, ZERO,
                   defect2 == 0, note="must vanish identically")
    return report
