"""geography.scan evaluates the symbolic family into plain rows; building
each member the old way, numerically, and reading its record and
bmy_report is the oracle.  render_svg works on integers; the Fraction-scaled
renderer it replaced is the oracle for its bytes."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourgeo import geography
from fourgeo.algebra import N, format_quotient, quotient
from fourgeo.calculus import ManifoldRecord, bmy_report
from fourgeo.pipeline import build_family


def _expected_row(n, record):
    # the row that scan must give at n for the numeric record (e, sigma)
    report = bmy_report(record)
    assert not report.asymptotic
    return (n, record.e, record.sigma, record.c1sq, record.chi_h,
            report.ratio_num, report.ratio_den, report.gap, report.side)


def _assert_row(row, record):
    expected = _expected_row(row[0], record)
    assert row == expected
    # each column an int, or a Fraction, exactly where the record has one
    assert list(map(type, row)) == list(map(type, expected))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(min_value=2, max_value=60),
                 st.integers(min_value=2, max_value=10**12)),
       st.integers(min_value=1, max_value=40))
def test_scan_row_equals_numeric_build(start, width):
    rows = geography.scan(start, start + width - 1)
    assert [row[0] for row in rows] == list(range(start, start + width))
    for row in rows:
        _assert_row(row, build_family(row[0]).manifold)


def test_scan_builds_the_family_once(monkeypatch):
    calls = []
    monkeypatch.setattr(geography, "build_family",
                        lambda *args: calls.append(args) or build_family(*args))
    rows = geography.scan(2, 40)
    assert [row[0] for row in rows] == list(range(2, 41))
    assert calls == [()]


def test_scan_rows_of_a_family_with_vanishing_chi_h(monkeypatch):
    # e and sigma are Fractions at odd n; e + sigma = n - 5, so chi_h =
    # (n - 5) / 4 is a Fraction at n = 2, 3, 4 and 0 at n = 5, where
    # bmy_report has no ratio
    e, sigma = N**2 / 2, -N**2 / 2 + N - 5
    monkeypatch.setattr(geography, "build_family",
                        lambda: SimpleNamespace(manifold=ManifoldRecord(e, sigma)))
    rows = geography.scan(2, 4)
    assert [type(row[4]) for row in rows] == [Fraction] * 3
    assert [type(row[1]) for row in rows] == [int, Fraction, int]
    for row in rows:
        _assert_row(row, ManifoldRecord(e(row[0]), sigma(row[0])))
    with pytest.raises(ValueError, match="ratio undefined: chi_h = 0"):
        bmy_report(ManifoldRecord(e(5), sigma(5)))
    with pytest.raises(ValueError, match="ratio undefined: chi_h = 0"):
        geography.scan(2, 6)


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


def _reference_svg(records):
    # render_svg as it was with one Fraction per coordinate, on (n, record)
    # pairs
    W, H, M = 860, 620, 70

    def fmt(x):
        return format_quotient(x.numerator, x.denominator, 2)

    x_max = max(record.chi_h for _, record in records) * Fraction(21, 20)
    y_max = max(record.c1sq for _, record in records) * Fraction(21, 20)
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
    for n, record in records:
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


# Ties, where a coordinate's hundredths end in exactly 5 thousandths, with
# an even and an odd number of hundredths below: the renderer rounds each
# point once and places its label 600 hundredths away, which the reference
# rounds on its own.  Offsetting by 6.00 adds 600 * den to the scaled
# numerator: the floor moves by 600, an even number, and the remainder stays,
# so a tie rounds to the same side.
# - next to chi_h = 2880000 and c1^2 = 1920000, chi_h = 21 and 63 lie at
#   x = 70.005 and 70.015, c1^2 = 21 and 63 at y = 549.995 and 549.985;
# - with every chi_h <= 0 the x axis top is 1 and x = 70 + 720 * chi_h:
#   chi_h = -14001/144000 lies at -0.005, -36001/144000 at -110.005 and
#   -36003/144000 at -110.015.
@example([(32640000, -21120000), (231, -147), (693, -441)], False)
@example([(1, Fraction(14001, 36000)), (1, Fraction(36001, 36000)),
          (1, Fraction(36003, 36000))], True)
@settings(max_examples=500, deadline=None)
@given(st.lists(invariants, min_size=1, max_size=6), st.booleans())
def test_render_svg_matches_fraction_reference(pairs, nonpositive):
    if nonpositive:  # every chi_h = (e + sigma)/4 <= 0: the x axis top is 1
        pairs = [(e, -e - abs(sigma)) for e, sigma in pairs]
    records = [(n, ManifoldRecord(e, sigma)) for n, (e, sigma) in enumerate(pairs, 2)]
    # the renderer reads n, c1^2 and chi_h only, never the ratio, gap or side
    rows = [(n, r.e, r.sigma, r.c1sq, r.chi_h, None, None, None, None) for n, r in records]
    assert geography.render_svg(rows) == _reference_svg(records)
