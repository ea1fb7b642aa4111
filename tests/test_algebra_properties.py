"""Randomized laws for the arithmetic kernel (ring axioms, eval morphism,
canonical forms, and the exact integrality and sign decisions)."""

import math
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourgeo import algebra
from fourgeo.algebra import (
    LaurentPoly,
    Poly,
    _format_dense,
    _horner,
    at_least,
    format_quotient,
    integer_valued,
    quotient,
)
from fourgeo.knots import torus_knot_alexander


def _coefficient(i: int) -> Fraction:
    # i encodes a denominator d = 1..12 and j = 0..1200; the numerator
    # (j + 50d) mod (100d + 1) - 50d takes every value in [-50d, 50d], since
    # 100d + 1 <= 1201, and i = 0 gives 0
    j, r = divmod(i, 12)
    d = r + 1
    return Fraction((j + 50 * d) % (100 * d + 1) - 50 * d, d)


# Fractions in [-50, 50] with denominator at most 12, mapped from one drawn
# integer: far cheaper to generate than st.fractions with the same range,
# or than a numerator range chosen per denominator with flatmap.
coefficients = st.integers(min_value=0, max_value=12 * 1201 - 1).map(_coefficient)

polys = st.lists(coefficients, max_size=7).map(lambda cs: Poly(tuple(cs)))

laurents = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-20, max_value=20),
    max_size=8,
).map(LaurentPoly)

RING_CASES = settings(max_examples=1000, deadline=None)


@RING_CASES
@given(polys, polys, polys)
def test_poly_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@RING_CASES
@given(laurents, laurents, laurents)
def test_laurent_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@RING_CASES
@given(polys, polys, st.integers(min_value=-20, max_value=20))
def test_eval_is_ring_homomorphism(a, b, k):
    assert (a * b)(k) == a(k) * b(k)
    assert (a + b)(k) == a(k) + b(k)


def _in_lowest_terms(p: Poly) -> bool:
    # the stored integer form: den > 0, gcd(den, *nums) = 1, no trailing zero
    nums, den = p._nums, p._den
    return den > 0 and math.gcd(den, *nums) == 1 and (not nums or nums[-1] != 0)


nonzero_rationals = coefficients.filter(bool)


@RING_CASES
@given(polys, polys, st.integers(min_value=0, max_value=4), nonzero_rationals)
def test_poly_results_are_in_lowest_terms(a, b, e, c):
    shifted = a.shift(e - 2)
    for p in (a, b, a + b, a - b, a * b, a**e, a / c, -a, a + c, c - a, c * a, shifted):
        assert _in_lowest_terms(p)
        assert Poly(p.coeffs) == p


@settings(deadline=None)
@given(coefficients)
def test_constant_poly_hashes_as_its_value(q):
    assert Poly.const(q) == q and hash(Poly.const(q)) == hash(q)
    assert hash(Poly((q, 0))) == hash(q)


# -- the integer-form kernel against the Fraction-based code it replaced -------
# Each reference is that code as it was, on the Fraction accessors; both
# sides share the ring arithmetic, which did not change.

def _reference_const(c) -> Poly:
    c = Fraction(c)
    return Poly._reduced([c.numerator], c.denominator)


def _reference_monomial(power: int, c) -> Poly:
    c = Fraction(c)
    return Poly._reduced([0] * power + [c.numerator], c.denominator)


def _reference_pow(p: Poly, e: int) -> Poly:
    result, base = _reference_const(1), p
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def _reference_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    q, r = Poly(), a
    while not r.is_zero() and r.degree >= b.degree:
        shift = r.degree - b.degree
        t = _reference_monomial(shift, r.coeffs[-1] / b.coeffs[-1])
        q, r = q + t, r - t * b
    return q, r


def _constant(p: Poly) -> Fraction:
    # the value of a polynomial of degree <= 0
    return p.coeffs[0] if p.coeffs else Fraction(0)


def _reference_eq(p: Poly, x) -> bool:
    return p.degree <= 0 and _constant(p) == x


def _reference_hash(p: Poly) -> int:
    return hash(_constant(p)) if p.degree <= 0 else hash((p._nums, p._den))


def _same(p: Poly, q: Poly) -> bool:
    return type(p) is Poly and (p._nums, p._den) == (q._nums, q._den)


numbers = st.one_of(st.integers(min_value=-10**6, max_value=10**6), coefficients)


@RING_CASES
@given(polys, polys.filter(bool), numbers, numbers, st.integers(min_value=0, max_value=6))
# divisors that are not monic, with a negative leading coefficient, of
# degree 0 and above the dividend's
@example(Poly((1, 2, 3)), Poly((5, 0, -3)), 7, Fraction(-7, 2), 3)
@example(Poly((Fraction(1, 2), -4)), Poly((Fraction(-2, 3),)), Fraction(4, 2), 0, 0)
@example(Poly((3,)), Poly((0, 0, Fraction(-5, 6))), -1, Fraction(1, 3), 1)
def test_integer_form_kernel_matches_the_fraction_reference(a, b, x, y, k):
    assert all(map(_same, divmod(a, b), _reference_divmod(a, b)))
    if x:
        assert all(map(_same, divmod(a, x), _reference_divmod(a, _reference_const(x))))
    assert _same(a**k, _reference_pow(a, k))
    assert _same(Poly.const(x), _reference_const(x))
    for p in (a, b, divmod(a, b)[1], Poly.const(x), Poly.const(y), Poly()):
        assert hash(p) == _reference_hash(p)
        for z in (x, y, 0, *p.coeffs[:1]):
            assert (p == z) == (z == p) == _reference_eq(p, z)
            assert (p != z) == (not _reference_eq(p, z))
            if p == z:
                assert hash(p) == hash(z)
    assert Poly.const(1) != True and True != Poly.const(1)  # noqa: E712  a bool is no scalar


@settings(deadline=None)
@given(polys)
def test_cancellation_gives_canonical_zero(a):
    assert (a - a) == Poly()
    assert (a - a).coeffs == ()
    assert a + Poly() == a


@settings(deadline=None)
@given(laurents)
def test_laurent_cancellation(a):
    assert (a - a) == LaurentPoly(())
    assert (a - a).terms == ()


@settings(deadline=None)
@given(laurents)
def test_substitute_square_doubles_exponents(a):
    doubled = a.substitute_square()
    assert doubled.terms == tuple((2 * e, c) for e, c in a.terms)


def _is_canonical(x: LaurentPoly) -> bool:
    # the public constructor checks types and re-normalizes; a canonical
    # value passes through it unchanged
    return LaurentPoly(x.terms).terms == x.terms


@RING_CASES
@given(laurents, laurents)
def test_laurent_operations_return_canonical_terms(a, b):
    assert _is_canonical(a * b)
    assert _is_canonical(-a)
    assert _is_canonical(a - b)
    assert _is_canonical(a.substitute_square())


@settings(deadline=None)
@given(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-20, max_value=20).filter(bool),
    laurents,
)
def test_monomial_product_shifts_and_scales(k, c, a):
    expected: dict[int, int] = {}
    for e, d in a.terms:
        expected[e + k] = expected.get(e + k, 0) + c * d
    expected_terms = tuple(sorted((e, d) for e, d in expected.items() if d))
    monomial = LaurentPoly(((k, c),))
    assert (monomial * a).terms == expected_terms
    assert (a * monomial).terms == expected_terms


# A few terms up to 2 * 10^4 apart: the dense form stores every coefficient
# in between, so gaps and cancellation at either end get exercised.
wide_terms = st.dictionaries(
    st.integers(min_value=-10**4, max_value=10**4),
    st.integers(min_value=-3, max_value=3),
    max_size=4,
)


def _pairs(d: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((e, c) for e, c in d.items() if c))


def _combine(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return out


def _sparse_str(d: dict[int, int]) -> str:
    # the printed form, term by term from the model
    parts = []
    for e, c in reversed(_pairs(d)):
        a = abs(c)
        if e == 0:
            term = str(a)
        elif a == 1:
            term = "t" if e == 1 else f"t^{e}"
        else:
            term = f"{a}*t" if e == 1 else f"{a}*t^{e}"
        parts.append(("- " if c < 0 else "+ ") + term)
    text = " ".join(parts)
    return "0" if not text else text[2:] if text[0] == "+" else "-" + text[2:]


@settings(max_examples=300, deadline=None)
@given(wide_terms, wide_terms, st.integers(min_value=-10**4, max_value=10**4))
def test_wide_laurent_matches_dict_model(a, b, e):
    x, y = LaurentPoly(a), LaurentPoly(b)
    product: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
    mirror = {-k: c for k, c in a.items()}
    expected = [
        (x + y, _combine(a, b, 1)),
        (x - y, _combine(a, b, -1)),
        (x * y, product),
        (x.substitute_square(), {2 * k: c for k, c in a.items()}),
        (-x, {k: -c for k, c in a.items()}),
        (x + LaurentPoly(mirror), _combine(a, mirror, 1)),
    ]
    for value, model in expected:
        assert value.terms == _pairs(model)
        rebuilt = LaurentPoly(model)
        assert rebuilt == value and hash(rebuilt) == hash(value)
        assert LaurentPoly(value.terms) == value
        assert str(value) == _sparse_str(model)
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)
    assert dict(x.terms).get(e, 0) == a.get(e, 0)
    support = [k for k, c in a.items() if c]
    if support:
        assert len(x.coefficients) - 1 == max(support) - min(support)
        assert x.coefficients[0] != 0 and x.coefficients[-1] != 0
    else:
        assert x.is_zero() and x.coefficients == ()
    assert x.is_symmetric() == (_pairs(a) == _pairs(mirror))
    assert (x + LaurentPoly(mirror)).is_symmetric()


def _reference_newton_table(p: Poly) -> tuple[tuple[int, ...], int]:
    # the table as it was computed before synthetic division: the numerators
    # at n = 2 .. deg p + 2 by Horner, then their forward differences
    values = [_horner(p._nums, x) for x in range(2, 3 + max(p.degree, 0))]
    diffs = []
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return tuple(diffs), p._den


# small fractions with denominators up to 12, and integers up to 10^30
wide_coefficients = st.one_of(coefficients, st.integers(min_value=-10**30, max_value=10**30))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=61).flatmap(
        lambda size: st.lists(wide_coefficients, min_size=size, max_size=size)
    )
)
@example([])  # zero
@example([7])
@example([Fraction(-5, 6)])
@example([Fraction(1, 2), -3, 0, Fraction(-7, 12)])
@example([(-1) ** k * 10**30 for k in range(61)])  # degree 60
@example([Fraction(k - 30, 11) for k in range(61)])  # degree 60, den 11
def test_newton_table_matches_the_differences_of_values(cs):
    p = Poly(tuple(cs))
    assert p.newton_table == _reference_newton_table(p)


@RING_CASES
@given(polys, st.integers(min_value=-10**6, max_value=10**6))
@example(Poly(), 0)
@example(Poly((3,)), -3)
@example(Poly((Fraction(1, 2), Fraction(3, 4))), 2)
def test_int_operands_act_as_constant_polys(p, k):
    c = Poly.const(k)
    for got, expected in (
        (p + k, p + c), (k + p, c + p), (p - k, p - c),
        (k - p, c - p), (k * p, c * p), (p * k, p * c),
    ):
        assert _same(got, expected)
        assert _in_lowest_terms(got)
    for flag in (True, False):
        for apply in (
            lambda: p + flag, lambda: flag + p, lambda: p - flag,
            lambda: flag - p, lambda: p * flag, lambda: flag * p,
        ):
            with pytest.raises(TypeError):
                apply()


def test_torus_knot_alexander_is_canonical():
    for q in range(3, 40):
        for p in range(2, q):
            if math.gcd(p, q) == 1:
                assert _is_canonical(torus_knot_alexander(p, q)), (p, q)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.builds(
            Fraction,
            st.integers(min_value=-30, max_value=30),
            st.sampled_from([1, 2, 3, 6]),
        ),
        max_size=6,
    )
)
def test_integer_valued_matches_brute_force(coeffs):
    p = Poly(tuple(coeffs))
    # Integrality on 101 consecutive integers decides it for deg <= 100.
    brute = all(p(k).denominator == 1 for k in range(-50, 51))
    assert integer_valued(p) == brute


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=-9, max_value=9), max_size=4),
    st.lists(st.integers(min_value=2, max_value=60), max_size=3),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=1),
)
def test_at_least_matches_brute_force(coeffs, double_roots, shift, bound):
    # Double roots inside the range leave the Newton table undecided, so
    # many cases reach the root-isolation fallback.
    p = Poly(tuple(Fraction(c) for c in coeffs))
    for r in double_roots:
        p = p * Poly((Fraction(-r), Fraction(1))) ** 2
    p = p + shift
    if p.degree < 1:
        expected = _constant(p) >= bound
    elif p.coeffs[-1] < 0:
        expected = False
    else:
        # Fujiwara's bound: every root has |z| <= 2 * max_i |a_{d-i}/a_d|^(1/i)
        d, lead = p.degree, p.coeffs[-1]
        ratios = [abs(p.coeffs[d - i] / lead) for i in range(1, d + 1)]
        ratios[-1] /= 2
        top = 3 + int(2 * max(float(r) ** (1 / i) for i, r in enumerate(ratios, 1)))
        expected = all(p(k) >= bound for k in range(2, top + 1))
    assert at_least(p, bound) == expected


@settings(max_examples=1000, deadline=None)
@given(st.integers(min_value=-10**30, max_value=10**30), st.integers(min_value=-10**6, max_value=10**6))
def test_quotient_of_ints_is_exact(a, b):
    if b == 0:
        with pytest.raises(ZeroDivisionError):
            quotient(a, b)
        return
    q = quotient(a, b)
    assert q == Fraction(a, b)
    assert isinstance(q, int) == (a % b == 0)
    assert not isinstance(q, (bool, float))


def _reference_decimal(x, places):
    # the rounding before format_quotient: a Fraction product, then
    # Fraction.__round__, which rounds half to even
    scale = 10**places
    scaled = round(Fraction(x) * scale)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // scale}.{scaled % scale:0{places}d}"


@settings(max_examples=1000, deadline=None)
@given(st.integers(min_value=-10**90, max_value=10**90), st.integers(min_value=1, max_value=10**30),
       st.integers(min_value=1, max_value=8), st.integers(min_value=-10**20, max_value=10**20),
       st.integers(min_value=1, max_value=10**6))
def test_format_decimal_matches_fraction_round(a, b, places, k, m):
    for x in (a, Fraction(a, b)):
        assert format_quotient(x.numerator, x.denominator, places) == _reference_decimal(x, places)
    # any int over any positive int, in lowest terms or not
    assert format_quotient(a, b, places) == _reference_decimal(Fraction(a, b), places)
    # an exact tie halfway between two neighbours at `places` digits
    tie = ((2 * k + 1) * m, 2 * 10**places * m)
    assert format_quotient(*tie, places) == _reference_decimal(Fraction(*tie), places)


def _reference_poly_str(p: Poly) -> str:
    # Poly.__str__ as it was before printing read the integer form: the
    # dense formatter run on the Fraction coefficients
    cs = p.coeffs
    parts = []
    step = 1 if any(cs[1::2]) else 2
    rev = cs[::-step]
    for e, c in zip(range(len(cs) - 1, -1, -step), rev):
        if not c:
            continue
        if c == 1 and e != 0 and e != 1:
            parts.append(f" + n^{e}")
        elif c == -1 and e != 0 and e != 1:
            parts.append(f" - n^{e}")
        else:
            a = abs(c)
            if e == 0:
                term = str(a)
            elif a == 1:
                term = "n"
            else:
                term = f"{a}*n" if e == 1 else f"{a}*n^{e}"
            parts.append(f" - {term}" if c < 0 else f" + {term}")
    text = "".join(parts)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else f"-{text[3:]}"


# zero, +-1, small fractions, and numerators up to 10^60 over denominators
# up to 10^20
printed_coefficients = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    coefficients,
    st.builds(
        Fraction,
        st.integers(min_value=-10**60, max_value=10**60),
        st.integers(min_value=1, max_value=10**20),
    ),
)
printed_polys = st.one_of(
    st.builds(Poly.const, printed_coefficients),
    st.lists(printed_coefficients, max_size=9).map(lambda cs: Poly(tuple(cs))),
    # polynomials in n^2, which the formatter walks with step 2
    st.lists(printed_coefficients, max_size=5).map(
        lambda cs: Poly(tuple(x for c in cs for x in (c, 0)))
    ),
)


@settings(max_examples=1000, deadline=None)
@given(printed_polys)
def test_poly_prints_as_the_fraction_formatter(p):
    assert str(p) == _reference_poly_str(p)
    assert repr(p) == f"Poly[{_reference_poly_str(p)}]"
    # the ^ size estimate reads these pairs in place of the Fractions
    assert p.coefficient_pairs() == [(c.numerator, c.denominator) for c in p.coeffs]



def _reference_format_dense(low, cs, symbol, den=1):
    # _format_dense as it was before its unit terms came from a memo: an
    # f-string per term
    parts = []
    plus, minus = f" + {symbol}^", f" - {symbol}^"
    step = 1 if any(cs[1::2]) else 2
    rev = cs[::-step]
    for e, c in compress(zip(range(low + len(cs) - 1, low - 1, -step), rev), rev):
        if c == den and e != 0 and e != 1:
            parts.append(f"{plus}{e}")
        elif c == -den and e != 0 and e != 1:
            parts.append(f"{minus}{e}")
        else:
            a = abs(c)
            if den != 1:
                g = math.gcd(a, den)
                a = a // g if g == den else f"{a // g}/{den // g}"
            if e == 0:
                term = str(a)
            elif a == 1:
                term = symbol
            else:
                term = f"{a}*{symbol}" if e == 1 else f"{a}*{symbol}^{e}"
            parts.append(f" - {term}" if c < 0 else f" + {term}")
    text = "".join(parts)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else f"-{text[3:]}"


@st.composite
def _dense_calls(draw):
    # (low, cs, symbol, den) as Poly and LaurentPoly pass them: near e = 0
    # and 1 or far from them, and sometimes a polynomial in symbol^2.  Each
    # coefficient is read off one drawn byte: two in three are 0 or +-den,
    # the others run from -43 to 42.
    symbol = draw(st.sampled_from("tn"))
    den = draw(st.sampled_from([1, 1, 2, 3, 12]))
    low = draw(st.one_of(st.integers(-150, 150), st.integers(-10**12, 10**12)))
    units = (0, den, -den)
    cs = [units[b % 3] if b < 170 else b - 213 for b in draw(st.binary(max_size=60))]
    if draw(st.booleans()):
        cs = [x for c in cs for x in (0, c)][1:]
    while cs and not cs[-1]:
        cs.pop()
    return (low if cs else 0), tuple(cs), symbol, den


@settings(max_examples=300, deadline=None)
@given(st.lists(_dense_calls(), min_size=1, max_size=8))
# grown upward, then downward, then upward past the last growth, then read
# inside the range; then a range far above it, which is not stored
@example([(0, (1,) * 5, "t", 1), (-40, (-1, 0) * 10 + (1,), "t", 1), (-3, (1, -1) * 30 + (1,), "t", 1),
          (2, (-1, 1, 1), "t", 1), (10**9, (1, 2, 1), "t", 1), (0, (1, 1), "t", 1)])
@example([(0, (2, 0, -2, 3, 2), "n", 2), (-20, (1, 0, 1), "n", 1), (0, (-3, 0, 3), "n", 3)])
def test_memoized_unit_terms_print_as_the_formatter_before_them(calls):
    algebra._UNIT_TERMS.clear()  # each example grows the memo from empty
    for low, cs, symbol, den in calls:
        assert _format_dense(low, cs, symbol, den) == _reference_format_dense(low, cs, symbol, den)
