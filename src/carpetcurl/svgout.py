"""Deterministic SVG output for carpets, grids and corrector geometry.

Coordinates are scaled by 1000 and rendered from exact rationals with twelve
decimal digits via integer arithmetic, so identical inputs give byte-identical
files.  The y axis is flipped so that the origin sits at the bottom left.
The stage figures are drawn from the ints of the stage-n lattice
(``carpet.stage_lines`` and the stage builders), divided by L_n only as they
are emitted.
"""

from __future__ import annotations

from fractions import Fraction

SCALE = 1000
DIGITS = 12


def _fmt(value: Fraction) -> str:
    v = Fraction(value) * SCALE
    sign = "-" if v < 0 else ""
    v = abs(v)
    scaled = v.numerator * 10 ** DIGITS
    whole, rem = divmod(scaled, v.denominator)
    if 2 * rem >= v.denominator:
        whole += 1
    int_part, frac_part = divmod(whole, 10 ** DIGITS)
    return f"{sign}{int_part}.{frac_part:0{DIGITS}d}"


def _fy(value: Fraction) -> str:
    return _fmt(1 - Fraction(value))


class SvgCanvas:
    def __init__(self, title: str):
        self.elements = []
        self.title = title

    def rect(self, x0, y0, x1, y1, fill="black", stroke="none", dash=None, opacity=None):
        style = f'fill="{fill}" stroke="{stroke}"'
        if dash:
            style += f' stroke-dasharray="{dash}" stroke-width="1"'
        if opacity:
            style += f' fill-opacity="{opacity}"'
        self.elements.append(
            f'<rect x="{_fmt(x0)}" y="{_fy(y1)}" width="{_fmt(Fraction(x1) - Fraction(x0))}"'
            f' height="{_fmt(Fraction(y1) - Fraction(y0))}" {style}/>')

    def polygon(self, points, fill="none", stroke="black", opacity=None):
        pts = " ".join(f"{_fmt(x)},{_fy(y)}" for (x, y) in points)
        style = f'fill="{fill}" stroke="{stroke}" stroke-width="1"'
        if opacity:
            style += f' fill-opacity="{opacity}"'
        self.elements.append(f'<polygon points="{pts}" {style}/>')

    def line(self, x0, y0, x1, y1, stroke="black", dash=None):
        style = f'stroke="{stroke}" stroke-width="1"'
        if dash:
            style += f' stroke-dasharray="{dash}"'
        self.elements.append(
            f'<line x1="{_fmt(x0)}" y1="{_fy(y0)}" x2="{_fmt(x1)}" y2="{_fy(y1)}" {style}/>')

    def polyline(self, points, stroke="blue"):
        pts = " ".join(f"{_fmt(x)},{_fy(y)}" for (x, y) in points)
        self.elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" stroke-width="2"/>')

    def render(self) -> str:
        body = "\n".join(self.elements)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{SCALE}" height="{SCALE}" '
            f'viewBox="0 0 {SCALE} {SCALE}">\n'
            f'<title>{self.title}</title>\n'
            f'{body}\n</svg>\n'
        )


def carpet_svg(spec, m: int) -> str:
    """Filled surviving squares of the level-m prefractal."""
    from .carpet import enumerate_squares, side_length

    canvas = SvgCanvas(f"prefractal level {m}")
    canvas.rect(0, 0, 1, 1, fill="white", stroke="black")
    # the squares have side 1 on the lattice of their corners
    scale = side_length(spec, m).denominator
    for (x0, y0) in enumerate_squares(spec, m):
        canvas.rect(*_unit((x0, y0, x0 + 1, y0 + 1), scale), fill="black")
    return canvas.render()


def _unit(values, scale):
    """Lattice ints over ``scale`` as Fractions."""
    return tuple(Fraction(v, scale) for v in values)


def cells_svg(spec, n: int) -> str:
    """Cell grid with dashed cut lines and stage-n holes."""
    from .carpet import enumerate_holes, stage_lines
    from .witness import _cells

    canvas = SvgCanvas(f"stage {n} cell grid")
    canvas.rect(0, 0, 1, 1, fill="white", stroke="black")
    scale, lines = stage_lines(spec, n)
    for cell in _cells(lines):
        canvas.rect(*_unit(cell, scale), fill="none", stroke="#bbbbbb")
    for hole in enumerate_holes(spec, n):
        canvas.rect(*_unit(hole, scale), fill="none", stroke="black")
    cuts = lines[1:-1]
    for c in cuts:
        canvas.line(*_unit((c, 0, c, scale), scale), stroke="green", dash="6,4")
    for c in cuts:
        canvas.line(*_unit((0, c, scale, c), scale), stroke="red", dash="6,4")
    return canvas.render()


def staircase_svg(spec, n: int) -> str:
    """Strip set plus the staircase profile drawn against y."""
    from .witness import build_staircase

    canvas = SvgCanvas(f"stage {n} staircase")
    canvas.rect(0, 0, 1, 1, fill="white", stroke="black")
    scale, bands = build_staircase(spec, n)
    # the strips are the staircase's flat bands
    for y0, y1, _, slope in bands:
        if not slope:
            strip = ((0, y0), (scale, y0), (scale, y1), (0, y1))
            canvas.polygon([_unit(p, scale) for p in strip], fill="yellow", stroke="blue",
                           opacity="0.6")
    # the profile (value, y) at each band's lower edge, then at the top edge
    profile = [_unit((value, y0), scale) for y0, _, value, _ in bands]
    y0, y1, value, slope = bands[-1]
    profile.append(_unit((value + slope * (y1 - y0), y1), scale))
    canvas.polyline(profile, stroke="blue")
    return canvas.render()


def tents_svg(spec, n: int) -> str:
    """Tent rectangles with their trapezoids at stage n."""
    from .carpet import stage_scale
    from .witness import build_tents

    canvas = SvgCanvas(f"stage {n} tents")
    canvas.rect(0, 0, 1, 1, fill="white", stroke="black")
    scale = stage_scale(spec, n)
    for t in build_tents(spec, n):
        canvas.rect(*_unit(t.rectangle, scale), fill="yellow", stroke="none", opacity="0.5")
        canvas.polygon([_unit(p, scale) for p in t.trapezoid], stroke="blue")
        canvas.line(*_unit((t.column_x, t.y_lo, t.column_x, t.y_hi), scale),
                    stroke="red", dash="4,3")
    return canvas.render()


def neighborhoods_svg(spec, n: int) -> str:
    """Boundary neighborhoods (strip rectangles and tent trapezoids) per cell."""
    from .carpet import stage_lines
    from .witness import _cells, build_neighborhoods, build_tents

    canvas = SvgCanvas(f"stage {n} boundary neighborhoods")
    canvas.rect(0, 0, 1, 1, fill="white", stroke="black")
    scale, lines = stage_lines(spec, n)
    for cell in _cells(lines):
        canvas.rect(*_unit(cell, scale), fill="none", stroke="#bbbbbb")
    for nb in build_neighborhoods(spec, n, build_tents(spec, n)):
        for region in nb.rectangles:
            canvas.polygon([_unit(p, scale) for p in region], fill="yellow", stroke="none",
                           opacity="0.45")
        for region in nb.trapezoids:
            canvas.polygon([_unit(p, scale) for p in region], fill="orange", stroke="none",
                           opacity="0.45")
    return canvas.render()
