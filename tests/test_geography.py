"""geography.scan evaluates the symbolic family; building each member the
old way, numerically, is the oracle.  render_svg works on integers; the
Fraction-scaled renderer it replaced is the oracle for its bytes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourgeo import geography
from fourgeo.algebra import format_quotient, quotient
from fourgeo.calculus import ManifoldRecord, bmy_report
from fourgeo.pipeline import build_family


def _facts(n, record, report):
    return n, record.e, record.sigma, record.c1sq, record.chi_h, report


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(min_value=2, max_value=60),
                 st.integers(min_value=2, max_value=10**12)))
def test_scan_row_equals_numeric_build(a):
    record = build_family(a).manifold
    [row] = geography.scan(a, a)
    assert _facts(*row) == _facts(a, record, bmy_report(record))


def test_scan_builds_the_family_once(monkeypatch):
    calls = []
    monkeypatch.setattr(geography, "build_family",
                        lambda *args: calls.append(args) or build_family(*args))
    rows = geography.scan(2, 40)
    assert [n for n, _, _ in rows] == list(range(2, 41))
    assert calls == [()]


def test_scan_validates_its_range():
    with pytest.raises(ValueError, match="must be >= 2"):
        geography.scan(1, 5)
    with pytest.raises(ValueError, match="must be an integer"):
        geography.scan(2.5, 5)
    with pytest.raises(ValueError, match="empty range"):
        geography.scan(6, 5)


def test_scan_upper_end_must_be_an_int():
    for n_max in (4.0, True, "4"):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            geography.scan(2, n_max)


def _reference_svg(rows):
    # render_svg as it was with one Fraction per coordinate
    W, H, M = 860, 620, 70

    def fmt(x):
        return format_quotient(x.numerator, x.denominator, 2)

    x_max = max(record.chi_h for _, record, _ in rows) * Fraction(21, 20)
    y_max = max(record.c1sq for _, record, _ in rows) * Fraction(21, 20)
    x_max = max(x_max, Fraction(1))
    y_max = max(y_max, Fraction(1))
    plot_w = Fraction(W - 2 * M)
    plot_h = Fraction(H - 2 * M)

    def px(chi):
        return M + quotient(chi, x_max) * plot_w

    def py(c1):
        return H - M - quotient(c1, y_max) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect x="{M}" y="{M}" width="{W - 2 * M}" '
        f'height="{H - 2 * M}" fill="none" stroke="black"/>',
        f'<text x="{W // 2}" y="{H - 20}" text-anchor="middle" '
        f'font-size="14">chi_h</text>',
        f'<text x="20" y="{H // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 20 {H // 2})">c1^2</text>',
    ]
    for slope, dash in ((8, "6,4"), (9, "")):
        x_end = min(x_max, quotient(y_max, slope))
        y_end = slope * x_end
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{fmt(px(Fraction(0)))}" y1="{fmt(py(Fraction(0)))}" '
            f'x2="{fmt(px(x_end))}" y2="{fmt(py(y_end))}" stroke="gray"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{fmt(px(x_end) + 4)}" y="{fmt(py(y_end) + 4)}" '
            f'font-size="12">c1^2 = {slope}*chi_h</text>'
        )
    for n, record, _ in rows:
        x, y = px(record.chi_h), py(record.c1sq)
        parts.append(f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="3" fill="black"/>')
        parts.append(
            f'<text x="{fmt(x + 6)}" y="{fmt(y - 6)}" '
            f'font-size="11">n={n}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _rationals(bound):
    return st.builds(Fraction, st.integers(min_value=-bound, max_value=bound),
                     st.integers(min_value=1, max_value=12))


# (e, sigma): small ones reach the clamped axis top of 1, large ones the
# size of far members of the family
invariants = st.tuples(*[st.one_of(_rationals(20), _rationals(10**90))] * 2)


@settings(max_examples=500, deadline=None)
@given(st.lists(invariants, min_size=1, max_size=6), st.booleans())
def test_render_svg_matches_fraction_reference(pairs, nonpositive):
    if nonpositive:  # every chi_h = (e + sigma)/4 <= 0: the x axis top is 1
        pairs = [(e, -e - abs(sigma)) for e, sigma in pairs]
    # the renderer reads chi_h and c1^2 only, never the report
    rows = [(n, ManifoldRecord(e, sigma), None) for n, (e, sigma) in enumerate(pairs, 2)]
    assert geography.render_svg(rows) == _reference_svg(rows)
