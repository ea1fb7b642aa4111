"""geography.scan evaluates the symbolic family; building each member the
old way, numerically, is the oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourgeo import geography
from fourgeo.calculus import bmy_report
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
