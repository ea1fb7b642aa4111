"""Cross-check of the exact kernel against sympy, an independent oracle that
the package itself never imports.

The cases come from criterion 9's seeded generator (random.Random(1163)):
polynomials in n with up to 6 coefficients in {-30..30}/{1, 2, 3, 6}, and
Laurent polynomials in t with up to 6 terms, exponents in -6..6 and
coefficients in -9..9.  Polynomials of degree about 30 with denominators up
to 6! exercise the integer form with large common denominators.
"""

import math
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from fourgeo.algebra import LaurentPoly, Poly  # noqa: E402
from fourgeo.knots import torus_knot_alexander  # noqa: E402

CASES = 200
n, t = sympy.symbols("n t")


def rand_poly(rng):
    return Poly(
        tuple(
            Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 6]))
            for _ in range(rng.randint(0, 6))
        )
    )


def rand_big_poly(rng):
    return Poly(
        tuple(
            Fraction(rng.randint(-10**6, 10**6), rng.randint(1, math.factorial(6)))
            for _ in range(rng.randint(28, 32))
        )
    )


def rand_rational(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 12))


def rand_laurent(rng):
    return LaurentPoly(
        {rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(rng.randint(0, 6))}
    )


def fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def to_sympy(p: Poly):
    expr = sum(sympy.Rational(a, b) * n**k for k, (a, b) in enumerate(p.coefficient_pairs()))
    return sympy.Poly(expr, n, domain="QQ")


def from_sympy(p) -> Poly:
    return Poly(tuple(fraction(c) for c in reversed(p.all_coeffs())))


def laurent_to_sympy(x: LaurentPoly, shift: int = 6):
    """x * t^shift as a sympy polynomial in t (shift clears the negative
    exponents)."""
    return sympy.Poly(sum(c * t**(e + shift) for e, c in x.terms), t, domain="ZZ")


def laurent_from_sympy(p, shift: int) -> LaurentPoly:
    """The Laurent polynomial p / t^shift."""
    coeffs = p.all_coeffs()
    top = len(coeffs) - 1
    return LaurentPoly({top - i - shift: int(c) for i, c in enumerate(coeffs)})


def test_poly_arithmetic_matches_sympy():
    rng = random.Random(1163)
    for case in range(CASES):
        make = rand_big_poly if case % 10 == 0 else rand_poly
        a, b = make(rng), make(rng)
        sa, sb = to_sympy(a), to_sympy(b)
        assert a + b == from_sympy(sa + sb)
        assert a - b == from_sympy(sa - sb)
        assert a * b == from_sympy(sa * sb)
        if b:
            q, r = divmod(a, b)
            sq, sr = sympy.div(sa, sb)
            assert (q, r) == (from_sympy(sq), from_sympy(sr))
        e = case % 5
        assert a**e == from_sympy(sa**e)
        c = rand_rational(rng) or Fraction(1, 7)
        assert a / c == from_sympy(sa * sympy.Rational(c.denominator, c.numerator))
        k = rng.randint(-10, 10)
        assert a(k) == fraction(sa.eval(k))


def test_shift_matches_sympy():
    rng = random.Random(1163)
    for case in range(CASES):
        a = (rand_big_poly if case % 10 == 0 else rand_poly)(rng)
        k, x = rng.randint(-5, 5), rng.randint(-10, 10)
        shifted = sympy.expand(to_sympy(a).as_expr().subs(n, n + k))
        assert a.shift(k) == from_sympy(sympy.Poly(shifted, n, domain="QQ"))
        assert a.shift(k)(x) == a(x + k)


def test_laurent_product_matches_sympy():
    rng = random.Random(1163)
    for _ in range(CASES):
        x, y = rand_laurent(rng), rand_laurent(rng)
        product = laurent_to_sympy(x) * laurent_to_sympy(y)
        assert x * y == laurent_from_sympy(product, 12)


def test_torus_knot_alexander_matches_sympy():
    for p in range(2, 8):
        for q in range(p + 1, 12):
            if math.gcd(p, q) != 1:
                continue
            quotient = sympy.cancel(
                (t**(p * q) - 1) * (t - 1) / ((t**p - 1) * (t**q - 1))
            )
            expected = laurent_from_sympy(sympy.Poly(quotient, t), (p - 1) * (q - 1) // 2)
            assert torus_knot_alexander(p, q) == expected
