"""The numeric half of the Scalar contract: at a concrete n every number a
build holds is an int when integral and a Fraction only when not, never a
float, and it equals the symbolic family evaluated at n.  A symbolic record's
derived invariants are normal too: a constant is its number, not a Poly."""

from fractions import Fraction
from pathlib import Path

import pytest

from fourgeo import geography
from fourgeo.algebra import N, Poly, as_scalar, quotient, scalar_eval
from fourgeo.calculus import ManifoldRecord, bmy_report
from fourgeo.pipeline import build_family, build_k3_block
from fourgeo.record import Record
from fourgeo.script import evaluate, parse

KN = Path(__file__).resolve().parent.parent / "scripts" / "kn.geo"

SYMBOLIC = build_family()


def _numbers(value, where):
    """Every number held by value, walking Record fields and tuples, as
    (path, number) pairs; bools are flags, not scalars."""
    if isinstance(value, Record):
        for f in value._fields:
            yield from _numbers(getattr(value, f), f"{where}.{f}")
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _numbers(item, f"{where}[{i}]")
    elif isinstance(value, (int, float, Fraction, Poly)) and not isinstance(value, bool):
        yield where, value


def _assert_numeric_scalars(value, where):
    found = list(_numbers(value, where))
    assert found
    for path, x in found:
        assert type(x) is int or (type(x) is Fraction and x.denominator != 1), (path, x)


def _assert_matches_symbolic(record, symbolic, n, where):
    for key, value in record.invariants().items():
        _assert_numeric_scalars(value, f"{where}.{key}")
        assert value == scalar_eval(symbolic.invariants()[key], n), (where, key)


def _assert_bmy_scalars(report, record, where):
    # the fields of bmy_report(record), and its ratio, which is not a field
    _assert_numeric_scalars(report, f"bmy_report({where})")
    _assert_numeric_scalars(report.ratio, f"bmy_report({where}).ratio")
    assert report.ratio == quotient(record.c1sq, record.chi_h), where


@pytest.mark.parametrize("n", range(2, 13))
def test_numeric_build_holds_ints(n):
    report = build_family(n)
    _assert_numeric_scalars(report, f"build_family({n})")
    for stage in ("cover", "k3"):
        _assert_matches_symbolic(
            getattr(report, stage).manifold, getattr(SYMBOLIC, stage).manifold, n, stage
        )
    _assert_matches_symbolic(report.manifold, SYMBOLIC.manifold, n, "family")
    # the K3 block's ratio, (2 - 2n^3) / 2, is integral
    for stage in (report.cover.manifold, report.k3.manifold, report.manifold):
        _assert_bmy_scalars(bmy_report(stage), stage, f"build_family({n}) stage")


@pytest.mark.parametrize("n", [2, 3, 7])
def test_numeric_script_holds_ints(n):
    record = evaluate(parse(KN.read_text(encoding="utf-8")), n)
    _assert_numeric_scalars(record, f"kn.geo at n = {n}")
    _assert_matches_symbolic(record, SYMBOLIC.manifold, n, "kn.geo")


def test_script_arithmetic_returns_ints_when_integral():
    value = evaluate(parse("report 1/2 + 1/2\n"), 3)
    assert type(value) is int and value == 1
    assert evaluate(parse("report 2/3 * 3/4\n"), 3) == Fraction(1, 2)
    assert type(evaluate(parse("report n - 1/2 + 1/2\n"), 3)) is int


def test_scan_rows_hold_ints():
    invariants = SYMBOLIC.manifold.invariants()
    for row in geography.scan(2, 30):
        n, e, sigma, c1sq, chi_h, num, den, gap, side = row
        where = f"scan row {n}"
        for key, value in (("e", e), ("sigma", sigma), ("c1sq", c1sq), ("chi_h", chi_h)):
            _assert_numeric_scalars(value, f"{where}.{key}")
            assert value == scalar_eval(invariants[key], n), (where, key)
        # the columns bmy_report would hold, and the ratio they stand for
        _assert_numeric_scalars((num, den, gap), where)
        assert type(num) is int and type(den) is int and den > 0, where
        _assert_numeric_scalars(quotient(num, den), f"{where} ratio")
        assert quotient(num, den) == quotient(c1sq, chi_h), where
        assert side in ("below", "on", "above"), where


def _assert_normal(x, where):
    # the normal form of as_scalar: a Poly only when its degree is positive
    if isinstance(x, Poly):
        assert x.degree > 0, (where, x)
    else:
        assert type(x) is int or (type(x) is Fraction and x.denominator != 1), (where, x)


@pytest.mark.parametrize("where, record", [
    ("family", SYMBOLIC.manifold),
    ("cover block", SYMBOLIC.cover.manifold),
    # chi_h = 2 in these two
    ("K3 block", build_k3_block().manifold),
    ("blowup(E2, k=n)", evaluate(parse("report blowup(E2, k=n)\n"))),
    ("kn.geo", evaluate(parse(KN.read_text(encoding="utf-8")))),
    # 9*chi_h - c1^2 = -5, though chi_h and c1^2 have degree 1
    ("e = 3n - 20, sigma = n", ManifoldRecord(3 * N - 20, N)),
    ("build_family(3)", build_family(3).manifold),
])
def test_derived_invariants_are_normal(where, record):
    for key, value in record.invariants().items():
        _assert_normal(value, f"{where}.{key}")
    try:
        report = bmy_report(record)
    except ValueError:  # c1^2 outgrows chi_h: no report, so no gap
        return
    _assert_normal(report.gap, f"bmy_report({where}).gap")


def test_as_scalar_normalizes_numbers():
    assert type(as_scalar(Fraction(6, 3))) is int
    assert as_scalar(Fraction(1, 3)) == Fraction(1, 3)
    assert type(as_scalar(7)) is int
    # a constant polynomial is the number it denotes, and only it
    assert type(as_scalar(N - N)) is int and as_scalar(N - N) == 0
    half = as_scalar(Poly.const(Fraction(1, 2)))
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert as_scalar(N) is N
    with pytest.raises(TypeError):
        as_scalar(True)
    with pytest.raises(TypeError):
        as_scalar(0.5)


def test_quotient_keeps_each_kind():
    assert type(quotient(12, 4)) is int
    assert quotient(12, 8) == Fraction(3, 2)
    assert type(quotient(Fraction(3, 2), Fraction(1, 2))) is int
    n = Poly((0, 1))
    assert quotient(n * 6, 3) == n * 2
    with pytest.raises(ZeroDivisionError):
        quotient(n, 0)
