"""Geography scans: (chi_h, c1^2) rows for the glued family, CSV and SVG.

A scan builds the family once, symbolically; that build runs every check a
numeric build runs, exactly for all n >= 2.  Each row is a plain tuple

    (n, e, sigma, c1sq, chi_h, ratio_num, ratio_den, gap, side)

where e and sigma are the symbolic family's polynomials at n, walked from
n_min by algebra.values_from, and the rest is what ManifoldRecord(e, sigma)
and bmy_report derive from them, by the same functions of calculus: no
record or report is built per row.  The ratio is the unreduced integer pair
c1^2 / chi_h.

Output is text assembled by hand so that identical inputs give byte-identical
files: LF line endings, fixed column order, exact integers (or p/q) in every
column except the 6-decimal ratio.  The ratio and each SVG coordinate are an
integer numerator over an integer denominator, rounded half to even once by
algebra.format_quotient; no Fraction is built per row or point.
"""

from __future__ import annotations

import math

from .algebra import Scalar, _format_scaled, _round_scaled, format_quotient, values_from
from .calculus import _c1sq, _chi_h, _numeric_bmy, parameter
from .pipeline import build_family

CSV_HEADER = "n,e,sigma,c1sq,chi_h,ratio,bmy_gap,side"

# (n, e, sigma, c1sq, chi_h, ratio_num, ratio_den, gap, side)
Row = tuple[int, Scalar, Scalar, Scalar, Scalar, int, int, Scalar, str]


def scan(n_min: int, n_max: int) -> list[Row]:
    """Build the family once, symbolically, and evaluate it at each n in
    [n_min, n_max] into one Row each."""
    parameter(n_min)  # an integer >= 2, or ValueError
    if not isinstance(n_max, int) or isinstance(n_max, bool):
        raise ValueError(f"n_max must be an integer, got {n_max!r}")
    if n_min > n_max:
        raise ValueError(f"empty range: {n_min} > {n_max}")
    family = build_family().manifold
    rows = []
    for n, e, sigma in zip(range(n_min, n_max + 1),
                           values_from(family.e, n_min), values_from(family.sigma, n_min)):
        c1sq, chi_h = _c1sq(e, sigma), _chi_h(e, sigma)
        rows.append((n, e, sigma, c1sq, chi_h, *_numeric_bmy(c1sq, chi_h)))
    return rows


def render_csv(rows: list[Row]) -> str:
    lines = [CSV_HEADER]
    for n, e, sigma, c1sq, chi_h, num, den, gap, side in rows:
        lines.append(f"{n},{e},{sigma},{c1sq},{chi_h},{format_quotient(num, den, 6)},{gap},{side}")
    return "\n".join(lines) + "\n"


# -- SVG scatter -------------------------------------------------------------

_WIDTH, _HEIGHT = 860, 620
_MARGIN = 70
_PLOT_W, _PLOT_H = _WIDTH - 2 * _MARGIN, _HEIGHT - 2 * _MARGIN


def _axis(values: list) -> tuple[list[int], int, int]:
    """(P, D, L) for one axis: the values as ints P over their common
    denominator L, and D = max(21 * max P, 20 * L), so that the axis top
    max(21/20 * max value, 1) is D / (20 * L) and a value P / L lies at
    20 * P / D of the axis."""
    common = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (common // v.denominator) for v in values]
    return scaled, max(21 * max(scaled), 20 * common), common


def render_svg(rows: list[Row]) -> str:
    """Scatter of (chi_h, c1^2) with the reference lines c1^2 = 8*chi_h and
    c1^2 = 9*chi_h, linear axes from the origin, points labeled by n.

    Every coordinate is an int numerator over an int denominator, rounded
    once, half to even, as format_quotient rounds; a point's label is placed
    from the point's rounded coordinates."""
    if not rows:
        raise ValueError("nothing to plot")
    chis, x_den, x_common = _axis([row[4] for row in rows])
    c1s, y_den, y_common = _axis([row[3] for row in rows])
    bottom = _HEIGHT - _MARGIN
    fmt = format_quotient

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_PLOT_W}" '
        f'height="{_PLOT_H}" fill="none" stroke="black"/>',
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 20}" text-anchor="middle" '
        f'font-size="14">chi_h</text>',
        f'<text x="20" y="{_HEIGHT // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 20 {_HEIGHT // 2})">c1^2</text>',
    ]
    for slope, dash in ((8, "6,4"), (9, "")):
        # The ray c1^2 = slope*chi_h, clipped to the plot box, ends at
        # m / h of the x axis and m / w of the y axis: h / w is slope
        # times the x top over the y top, and m = min(h, w).
        h, w = slope * x_den * y_common, y_den * x_common
        m = min(h, w)
        x_end, y_end = _MARGIN * h + _PLOT_W * m, bottom * w - _PLOT_H * m
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{fmt(_MARGIN, 1, 2)}" y1="{fmt(bottom, 1, 2)}" '
            f'x2="{fmt(x_end, h, 2)}" y2="{fmt(y_end, w, 2)}" stroke="gray"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{fmt(x_end + 4 * h, h, 2)}" y="{fmt(y_end + 4 * w, w, 2)}" '
            f'font-size="12">c1^2 = {slope}*chi_h</text>'
        )
    x0, y0 = _MARGIN * x_den, bottom * y_den
    x_unit, y_unit = 20 * _PLOT_W, 20 * _PLOT_H
    # A label sits 6 units right of and above its point: (x +- 6 * den) / den
    # rounded to hundredths is x / den rounded, +- 600.  Adding 600 * den to
    # 100 * x adds 600 to the floor of the quotient and leaves the remainder
    # as it was, and 600 is even, so a tie (remainder half of den) rounds
    # to even the same way.
    for row, chi, c1 in zip(rows, chis, c1s):
        cx = _round_scaled(x0 + x_unit * chi, x_den, 2)
        cy = _round_scaled(y0 - y_unit * c1, y_den, 2)
        parts.append(f'<circle cx="{_format_scaled(cx, 2)}" cy="{_format_scaled(cy, 2)}" '
                     f'r="3" fill="black"/>')
        parts.append(
            f'<text x="{_format_scaled(cx + 600, 2)}" y="{_format_scaled(cy - 600, 2)}" '
            f'font-size="11">n={row[0]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
