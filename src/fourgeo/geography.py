"""Geography scans: (chi_h, c1^2) rows for the glued family, CSV and SVG.

A scan builds the family once, symbolically; that build runs every check a
numeric build runs, exactly for all n >= 2.  Each row is the triple
(n, record, bmy_report(record)), where record is (e(n), sigma(n)) of the
symbolic family evaluated at n; the renderers read c1^2 and chi_h from the
record and the ratio, gap and side from the report.

Output is text assembled by hand so that identical inputs give byte-identical
files: LF line endings, fixed column order, exact integers (or p/q) in every
column except the 6-decimal ratio, coordinates derived by exact rational
scaling before formatting.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import format_decimal, quotient, scalar_str
from .calculus import BmyReport, ManifoldRecord, bmy_report, parameter
from .pipeline import build_family

CSV_HEADER = "n,e,sigma,c1sq,chi_h,ratio,bmy_gap,side"

Row = tuple[int, ManifoldRecord, BmyReport]


def scan(n_min: int, n_max: int) -> list[Row]:
    """Build the family once, symbolically, and evaluate it at each n in
    [n_min, n_max] into (n, record, bmy_report(record)) rows."""
    parameter(n_min)  # an integer >= 2, or ValueError
    if not isinstance(n_max, int) or isinstance(n_max, bool):
        raise ValueError(f"n_max must be an integer, got {n_max!r}")
    if n_min > n_max:
        raise ValueError(f"empty range: {n_min} > {n_max}")
    family = build_family().manifold
    rows = []
    for n in range(n_min, n_max + 1):
        record = ManifoldRecord(family.e(n), family.sigma(n))
        rows.append((n, record, bmy_report(record)))
    return rows


def render_csv(rows: list[Row]) -> str:
    lines = [CSV_HEADER]
    for n, record, report in rows:
        lines.append(
            ",".join(
                (
                    str(n),
                    scalar_str(record.e),
                    scalar_str(record.sigma),
                    scalar_str(record.c1sq),
                    scalar_str(record.chi_h),
                    format_decimal(report.ratio),
                    scalar_str(report.gap),
                    report.side,
                )
            )
        )
    return "\n".join(lines) + "\n"


# -- SVG scatter -------------------------------------------------------------

_WIDTH, _HEIGHT = 860, 620
_MARGIN = 70


def _fmt(x: Fraction) -> str:
    return format_decimal(x, 2)


def render_svg(rows: list[Row]) -> str:
    """Scatter of (chi_h, c1^2) with the reference lines c1^2 = 8*chi_h and
    c1^2 = 9*chi_h, linear axes from the origin, points labeled by n."""
    if not rows:
        raise ValueError("nothing to plot")
    x_max = max(record.chi_h for _, record, _ in rows) * Fraction(21, 20)
    y_max = max(record.c1sq for _, record, _ in rows) * Fraction(21, 20)
    x_max = max(x_max, Fraction(1))
    y_max = max(y_max, Fraction(1))
    plot_w = Fraction(_WIDTH - 2 * _MARGIN)
    plot_h = Fraction(_HEIGHT - 2 * _MARGIN)

    def px(chi: Fraction) -> Fraction:
        return _MARGIN + quotient(chi, x_max) * plot_w

    def py(c1: Fraction) -> Fraction:
        return _HEIGHT - _MARGIN - quotient(c1, y_max) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_WIDTH - 2 * _MARGIN}" '
        f'height="{_HEIGHT - 2 * _MARGIN}" fill="none" stroke="black"/>',
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 20}" text-anchor="middle" '
        f'font-size="14">chi_h</text>',
        f'<text x="20" y="{_HEIGHT // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 20 {_HEIGHT // 2})">c1^2</text>',
    ]
    for slope, dash in ((8, "6,4"), (9, "")):
        # clip the ray c1^2 = slope*chi_h to the plot box
        x_end = min(x_max, quotient(y_max, slope))
        y_end = slope * x_end
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{_fmt(px(Fraction(0)))}" y1="{_fmt(py(Fraction(0)))}" '
            f'x2="{_fmt(px(x_end))}" y2="{_fmt(py(y_end))}" stroke="gray"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{_fmt(px(x_end) + 4)}" y="{_fmt(py(y_end) + 4)}" '
            f'font-size="12">c1^2 = {slope}*chi_h</text>'
        )
    for n, record, _ in rows:
        x, y = px(record.chi_h), py(record.c1sq)
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="black"/>')
        parts.append(
            f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 6)}" '
            f'font-size="11">n={n}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
