from fractions import Fraction

import pytest

from fourgeo.algebra import (
    N,
    LaurentPoly,
    Poly,
    divide_exact,
    format_quotient,
    integer_valued,
    scalar_eval,
)


def poly(*coeffs):
    """Ascending-coefficient constructor shorthand."""
    return Poly(tuple(Fraction(c) for c in coeffs))


def test_binomial_square():
    assert (N - 1) * (N - 1) == poly(1, -2, 1)


def test_additive_identity():
    assert N**7 + Poly() == N**7
    assert N**7 + 0 == N**7


def test_sum_matches_evaluation():
    # oracle: evaluate both sides at n = 2..10
    a = 3 * N**7 - 4 * N**5
    b = -2 * N**3 + 2
    total = a + b
    for n in range(2, 11):
        assert total(n) == a(n) + b(n)


def test_eval_power():
    assert (N**7)(3) == 2187


def test_eval_family_chi():
    chi = (N**7 + 8 * N**5) / 3 - 3 * N**4 + N**3 + 2
    assert chi(3) == 1163


def test_eval_cover_chi():
    # direct arithmetic: (2^7 - 2^5)/3 = 96/3
    assert ((N**7 - N**5) / 3)(2) == 32


def test_poly_string_form():
    assert str(3 * N**7 + 20 * N**5 - 24 * N**4 + 6 * N**3 + 2) == (
        "3*n^7 + 20*n^5 - 24*n^4 + 6*n^3 + 2"
    )
    assert str((N**7 + 8 * N**5) / 3 - 3 * N**4 + N**3 + 2) == (
        "1/3*n^7 + 8/3*n^5 - 3*n^4 + n^3 + 2"
    )
    assert str(Poly()) == "0"
    assert str(-N) == "-n"


def test_constant_poly_compares_to_fraction():
    c = N - N + Fraction(3, 2)
    assert c == Fraction(3, 2)
    assert hash(c) == hash(Fraction(3, 2))
    assert Poly() == 0


def test_divmod_and_exact_division():
    a = (N**2 - 1) * (N + 3)
    q, r = divmod(a, N + 3)
    assert q == N**2 - 1 and not r
    assert divide_exact(a, N - 1) == (N + 1) * (N + 3)
    with pytest.raises(ValueError):
        divide_exact(N**2 + 1, N)


def test_integer_valued_examples():
    assert integer_valued((N**7 + 8 * N**5) / 3)
    assert not integer_valued((N**2 + 1) / 2)  # n = 2 gives 5/2
    assert integer_valued(N**3)
    assert integer_valued(Poly())
    assert integer_valued(Fraction(4))
    assert not integer_valued(Fraction(1, 3))


def test_integer_valued_binomial_basis():
    # n(n-1)/2 is the binomial coefficient C(n,2)
    assert integer_valued(N * (N - 1) / 2)
    assert not integer_valued(N * (N + 1) / 3)  # n = 1 gives 2/3


def test_scalar_eval():
    assert scalar_eval(N**2 + 1, 3) == 10
    assert scalar_eval(Fraction(5, 2), 3) == Fraction(5, 2)


def test_eval_at_an_integer_is_an_int_when_integral():
    p = (N**3 + 2 * N) / 3  # integer-valued
    assert type(p(4)) is int and p(4) == 24
    assert type(scalar_eval(p, 5)) is int
    assert type((N / 2)(4)) is int
    assert type(Poly()(5)) is int


def test_eval_only_at_an_int():
    assert (N / 2)(3) == Fraction(3, 2)
    for x in (Fraction(1, 2), Fraction(4), True, 1.5):
        with pytest.raises(TypeError, match="evaluated at an int"):
            N(x)


def test_power_only_by_a_nonnegative_int():
    assert N**0 == 1 and N**1 == N
    # a bool is no scalar here either: N ** True is not N
    for e in (True, False, -1, Fraction(2), 2.0):
        with pytest.raises(ValueError, match="nonnegative integer"):
            N**e


def laurent(d):
    return LaurentPoly(d)


def test_substitute_square():
    a = laurent({1: 1, 0: -1, -1: 1})
    assert a.substitute_square() == laurent({2: 1, 0: -1, -2: 1})


def test_laurent_multiplicative_identity():
    a = laurent({1: 1, 0: -1, -1: 1})
    assert a * LaurentPoly.one() == a


def test_laurent_product_against_convolution():
    a = laurent({1: 1, 0: -1, -1: 1})
    b = laurent({3: 1, 2: -1, 1: 1, 0: -1, -1: 1, -2: -1, -3: 1})
    product = a * b
    # oracle: direct convolution of the coefficient dictionaries
    expected = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            expected[e1 + e2] = expected.get(e1 + e2, 0) + c1 * c2
    assert product == laurent(expected)
    assert product != a and product != b


def test_laurent_string_form():
    assert str(laurent({1: 2, 0: -5, -1: 2})) == "2*t - 5 + 2*t^-1"
    assert str(LaurentPoly.one()) == "1"
    assert str(LaurentPoly(())) == "0"


def test_laurent_rejects_nonint_coefficients():
    with pytest.raises(TypeError):
        LaurentPoly({0: Fraction(1, 2)})


def is_monic_symmetric(a: LaurentPoly) -> bool:
    """Oracle for `Knot.monic`: coefficientwise symmetric with top
    coefficient +-1 (the test_knots assertions read it from here)."""
    if not a:
        raise ValueError("undefined for zero")
    return a.is_symmetric() and abs(a.terms[-1][1]) == 1


def test_monic_symmetric():
    assert is_monic_symmetric(laurent({1: 1, 0: -1, -1: 1}))
    assert not is_monic_symmetric(laurent({1: 2, 0: -3, -1: 2}))
    assert is_monic_symmetric(laurent({2: 1, 0: -1, -2: 1}))
    assert not is_monic_symmetric(laurent({1: 1, 0: -1}))  # asymmetric
    with pytest.raises(ValueError, match="undefined for zero"):
        is_monic_symmetric(LaurentPoly(()))


def test_laurent_span():
    a = laurent({3: 1, -3: 1})
    assert a.coefficients == (1, 0, 0, 0, 0, 0, 1)
    assert LaurentPoly(()).coefficients == ()


def test_big_values_stay_exact():
    # degree 64 and coefficients beyond 2^512 are routine
    p = (N + 1) ** 64
    assert p.degree == 64
    assert p(1) == 2**64
    big = Poly((Fraction(2**600),)) * Poly((Fraction(3),))
    assert big == Fraction(3 * 2**600)
    assert (N**7)(100) == 10**14


# A sample of each kernel value, and a second constructor call that builds
# an equal value from other input.
KERNEL_VALUES = {
    "Poly": (lambda: N**2 + 1, lambda: Poly((1, 0, Fraction(2, 2)))),
    "LaurentPoly": (
        lambda: LaurentPoly({1: 2, 0: -3, -1: 2}),
        lambda: LaurentPoly([(-1, 2), (1, 1), (0, -3), (1, 1)]),
    ),
}


@pytest.mark.parametrize("kind", KERNEL_VALUES)
def test_kernel_values_refuse_assignment_and_deletion(kind):
    value = KERNEL_VALUES[kind][0]()
    for name in list(vars(value)):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("kind", KERNEL_VALUES)
def test_equal_kernel_values_compare_and_hash_equal(kind):
    build, rebuild = KERNEL_VALUES[kind]
    value, copy = build(), rebuild()
    assert copy is not value
    assert copy == value and not copy != value
    assert hash(copy) == hash(value)
    assert len({value, copy}) == 1


def test_newton_table_is_computed_once_per_instance(monkeypatch):
    table = vars(Poly)["newton_table"]
    expected = (N**2 + 1).newton_table
    calls = []

    def counting(p, compute=table.fn):
        calls.append(p)
        return compute(p)

    monkeypatch.setattr(table, "fn", counting)
    fresh = N**2 + 1
    assert "newton_table" not in vars(fresh)
    first = fresh.newton_table
    assert fresh.newton_table is first
    assert len(calls) == 1 and calls[0] is fresh
    assert first == expected == ((5, 5, 2), 1)
    with pytest.raises(AttributeError):
        fresh.newton_table = first
    with pytest.raises(AttributeError):
        del fresh.newton_table
    assert fresh.newton_table is first


def decimal(x: Fraction, places: int = 6) -> str:
    return format_quotient(x.numerator, x.denominator, places)


def test_format_decimal_round_half_even():
    assert decimal(Fraction(1, 3)) == "0.333333"
    assert decimal(Fraction(63874, 7490)) == "8.527904"
    # ties go to the even neighbor
    assert decimal(Fraction(25, 10**7)) == "0.000002"
    assert decimal(Fraction(35, 10**7)) == "0.000004"
    assert decimal(Fraction(-85, 10)) == "-8.500000"
    assert [decimal(Fraction(k, 8), 2) for k in (1, 3, -1, -3)] == [
        "0.12", "0.38", "-0.12", "-0.38"]
