"""Exact arithmetic kernel: rationals, polynomials in n, Laurent polynomials in t.

Besides ints and Fractions, two kinds of values circulate through the
calculus:

  Poly         a univariate polynomial in the construction parameter n with
               rational coefficients, stored as ascending integer
               numerators over one positive denominator, in lowest terms
               (gcd(den, *nums) = 1, no trailing zero).  The zero
               polynomial is ((), 1).  Arithmetic, evaluation and printing
               work on plain ints, and coefficient_pairs reads the
               coefficients as (numerator, denominator) int pairs.
  LaurentPoly  a Laurent polynomial in t with *integer* coefficients, stored
               densely as its lowest exponent and the tuple of every
               coefficient from there up, with no zero at either end; zero
               is (0, ()).  Integer-only coefficients are deliberate: the
               knot polynomials carried in this form are integral, and
               rational leakage indicates a normalization bug upstream.
               The public constructor checks and normalizes a mapping or
               iterable of (exponent, coefficient) pairs.  The arithmetic
               is what knots and ledgers use, * and t -> t^2 only; it works
               on the int tuples and builds its results through the
               private LaurentPoly._dense.  Storage grows with the span,
               not with the number of nonzero terms; every Laurent
               polynomial the package builds is a knot polynomial or a
               ledger, and each expanded knot factor spans at most
               4 * knots.ALEXANDER_GENUS_CAP.

A Scalar is an int, a Fraction or a Poly, and as_scalar states its normal
form: an int when the value is integral, a Fraction when it is not, and a
Poly only when its degree is positive, so a constant polynomial is the
number it denotes.  It is applied where a value is made or enters: the
record constructors, the arguments of the calculus and knot operations, and
each value a script computes.  Arithmetic on normal scalars can leave the
form (n - n is the zero Poly, 3 * Fraction(1, 3) an integral Fraction), but
a constant Poly compares and hashes equal to the number it denotes, so
numeric and symbolic code paths can be shared, and a scalar prints with
str, which gives a constant Poly or an integral Fraction the text of that
number.  Every division between scalars goes through quotient, the one
exact division (int / int in Python would be a float), and Poly evaluation
at an integer returns a normal number.

A Fraction is built only for a value that is not an integer.  The fractions
module, which loads decimal and numbers, is imported when the first one is
built, so a run whose numbers are all integral never imports it.  Until
then no Fraction can exist, so the type tests read the class from
sys.modules.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate, compress, cycle, repeat, zip_longest
from operator import getitem

from .record import Frozen, cached

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator, Mapping, Sequence
    from fractions import Fraction
    from typing import TypeAlias

Scalar: TypeAlias = "int | Fraction | Poly"


def _is_number(x) -> bool:
    # an int (not a bool) or a Fraction; a Fraction exists only once
    # fractions is imported, so its class is read from sys.modules
    if isinstance(x, int):
        return not isinstance(x, bool)
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def _number(x):
    # x, checked to be an int (not a bool) or a Fraction: either one has
    # .numerator and .denominator in lowest terms, denominator > 0
    if _is_number(x):
        return x
    raise TypeError(f"expected an integer or Fraction, got {x!r}")


def _fraction(numerator: int, denominator: int = 1) -> Fraction:
    # every Fraction the package builds is built here, importing fractions
    # on first use
    from fractions import Fraction

    return Fraction(numerator, denominator)


# Per symbol, the unit terms of every exponent e from bottom to top, as
# (bottom, top, terms) with terms[top - e] = ("", " + x", " - x"), where x
# is symbol^e, or "1" and symbol at e = 0 and 1: the terms of coefficients
# 0, 1 and -1 (the last read by index -1).  Each growth widens the range
# by at least half its width on every side it grows, so the strings for a
# run of ever wider ledgers cost time and memory linear in the widest.  A
# growth is stored whole, never edited in place.
_UNIT_TERMS: dict[str, tuple[int, int, list[tuple[str, str, str]]]] = {}
# the coefficients whose term is its entry of the unit terms
_UNIT_COEFFICIENTS = frozenset((-1, 0, 1))


def _grown_powers(
    symbol: str, step: int, bottom: int, top: int, low: int, high: int
) -> tuple[int, int, bool, list[str]]:
    # (bottom, top, store, powers): the memo range of exponents top, top -
    # step, ..., bottom grown to cover [low, high], as the _UNIT_TERMS
    # comment says, and powers[i] = symbol^(top - i * step), or "1" and
    # symbol at e = 0 and 1
    half = ((top - bottom) // step + 2) // 2 * step
    if high > top:
        top = max(high, top + half)
    if low < bottom:
        bottom = min(low, bottom - half)
    store = top - bottom < 4 * (high - low) + 64 * step
    if not store:  # far from the stored range, as t^(10^9): these terms only
        bottom, top = low, high
    powers = list(map(f"{symbol}^".__add__, map(str, range(top, bottom - 1, -step))))
    for e, x in ((0, "1"), (1, symbol)):
        if bottom <= e <= top and (top - e) % step == 0:
            powers[(top - e) // step] = x
    return bottom, top, store, powers


def _unit_terms(symbol: str, low: int, high: int) -> tuple[int, list[tuple[str, str, str]]]:
    # (top, terms) as in _UNIT_TERMS, for a range that covers [low, high]
    bottom, top, terms = _UNIT_TERMS.get(symbol, (0, -1, []))
    if low >= bottom and high <= top:
        return top, terms
    bottom, top, store, powers = _grown_powers(symbol, 1, bottom, top, low, high)
    terms = list(zip(repeat(""), map(" + ".__add__, powers), map(" - ".__add__, powers)))
    if store:
        _UNIT_TERMS[symbol] = bottom, top, terms
    return top, terms


# Per (symbol, step, top exponent mod step), the alternating runs of unit
# terms of every exponent e = top, top - step, ..., bottom, as
# (bottom, top, plus, minus, offsets): plus joins " + x" at each e with
# e // step even and " - x" at the others, minus the opposite signs, and the
# term of exponent top - i * step starts at offsets[i] in both, with
# offsets[-1] their length.  It grows, and skips a far range, as
# _UNIT_TERMS does (_grown_powers); a growth is stored whole, never edited
# in place.
_ALTERNATING: dict[tuple[str, int, int], tuple[int, int, str, str, list[int]]] = {}
# the fewest terms a +-1 run needs to print as a slice of _ALTERNATING: at
# 3 terms the slice costs as much as the join of unit terms
_ALTERNATING_MIN = 4


def _alternating(symbol: str, step: int, low: int, high: int) -> tuple[int, str, str, list[int]]:
    # (top, plus, minus, offsets) as in _ALTERNATING, for a range that
    # covers [low, high]; low and high are congruent mod step
    residue = high % step
    key = symbol, step, residue
    bottom, top, plus, minus, offsets = _ALTERNATING.get(key, (residue, residue - step, "", "", [0]))
    if low >= bottom and high <= top:
        return top, plus, minus, offsets
    bottom, top, store, powers = _grown_powers(symbol, step, bottom, top, low, high)
    signs = (" + ", " - ") if top // step % 2 == 0 else (" - ", " + ")
    terms = list(map(str.__add__, cycle(signs), powers))
    offsets = list(accumulate(map(len, terms), initial=0))
    plus, minus = "".join(terms), "".join(map(str.__add__, cycle(signs[::-1]), powers))
    if store:
        _ALTERNATING[key] = bottom, top, plus, minus, offsets
    return top, plus, minus, offsets


def _format_dense(low: int, cs: Sequence[int], symbol: str, den: int = 1) -> str:
    """Render sum(cs[i] / den * symbol^(low + i)), for ints cs and den > 0,
    highest power first and zero coefficients skipped, as in
    "-n^7 + 3*n - 1/3" or "t - 1 + t^-1"; "0" when cs is empty.  cs[-1] must
    be nonzero.  A coefficient prints in lowest terms, reduced by one gcd.

    With den 1, at least _ALTERNATING_MIN printed terms whose coefficients
    alternate +1 and -1, as in a torus-knot ledger Delta(t^2), print as one
    slice of an _ALTERNATING run; every other polynomial is built term by
    term from the unit terms of _UNIT_TERMS."""
    high = low + len(cs) - 1
    # a polynomial in symbol^2, such as a ledger Delta(t^2), skips its odd
    # offsets
    step = 1 if any(cs[1::2]) else 2
    rev = cs[::-step]
    if (
        den == 1 and len(rev) >= _ALTERNATING_MIN and (c := rev[0]) in (1, -1)
        and rev[::2].count(c) + rev[1::2].count(-c) == len(rev)
    ):
        top, plus, minus, offsets = _alternating(symbol, step, low, high)
        text = plus if (high // step % 2 == 0) == (c == 1) else minus
        text = text[offsets[(top - high) // step] + 3 : offsets[(top - low) // step + 1]]
        return text if c == 1 else f"-{text}"
    top, terms = _unit_terms(symbol, low, high)
    units = terms[top - high : top - low + 1 : step]
    if den == 1 and _UNIT_COEFFICIENTS.issuperset(rev):
        # every coefficient 0 or +-1, as in most knot polynomials: each
        # term is its coefficient's entry
        text = "".join(map(getitem, units, rev))
    else:
        parts = []
        for e, c, unit in compress(zip(range(high, low - 1, -step), rev, units), rev):
            if c == den:
                parts.append(unit[1])
            elif c == -den:
                parts.append(unit[2])
            else:
                a = abs(c)
                if den != 1:
                    g = math.gcd(a, den)
                    a = a // g if g == den else f"{a // g}/{den // g}"
                if e == 0:
                    term = str(a)
                else:
                    term = f"{a}*{symbol}" if e == 1 else f"{a}*{symbol}^{e}"
                parts.append(f" - {term}" if c < 0 else f" + {term}")
        text = "".join(parts)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else f"-{text[3:]}"


def _lowest_terms(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    # (nums, den) with trailing zeros stripped and the common factor cancelled;
    # den must be positive
    while nums and not nums[-1]:
        nums.pop()
    if den == 1:
        return tuple(nums), 1
    g = math.gcd(den, *nums)
    if g != 1:
        return tuple([c // g for c in nums]), den // g
    return tuple(nums), den


class Poly(Frozen):
    """Polynomial in n over the rationals, canonical integer form.

    The value is sum(_nums[k] * n^k) / _den with _den > 0, gcd(_den, *_nums)
    = 1 and no trailing zero in _nums, so equality is structural; the zero
    polynomial is ((), 1).  The public constructor takes the coefficients
    coeffs[k] of n^k as ints or Fractions; coefficient_pairs gives them back
    as int pairs.  Supports +, -, *, ** with other polynomials, Fractions and
    ints, division by a nonzero constant, and evaluation at an integer by
    call.
    """

    def __init__(self, coeffs: Iterable[int | Fraction] = ()):
        cs = [_number(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self.__dict__["_nums"], self.__dict__["_den"] = _lowest_terms(
            [c.numerator * (den // c.denominator) for c in cs], den
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def _reduced(cls, nums: list[int], den: int) -> "Poly":
        # sum(nums[k] * n^k) / den for den > 0, put in lowest terms; the
        # arithmetic builds its results here, past the checking constructor
        self = object.__new__(cls)
        self.__dict__["_nums"], self.__dict__["_den"] = _lowest_terms(nums, den)
        return self

    @classmethod
    def const(cls, c) -> "Poly":
        c = _number(c)
        return cls._reduced([c.numerator], c.denominator)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._nums) - 1

    def shift(self, k: int) -> "Poly":
        """The polynomial p(n + k), for an integer k."""
        return Poly._reduced(_taylor_shift(self._nums, k), self._den)

    def coefficient_pairs(self) -> list[tuple[int, int]]:
        """The coefficients of n^0 .. n^deg in lowest terms, as (numerator,
        denominator) int pairs."""
        den = self._den
        return [(c // g, den // g) for c in self._nums for g in [math.gcd(c, den)]]

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if _is_number(other):
            return Poly._reduced([other.numerator], other.denominator)
        return None

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        # self + sign * other over the least common denominator
        den = math.lcm(self._den, other._den)
        s, t = den // self._den, sign * (den // other._den)
        return Poly._reduced(
            [a * s + b * t for a, b in zip_longest(self._nums, other._nums, fillvalue=0)], den
        )

    def _plus_int(self, k: int, sign: int) -> "Poly":
        # k + sign * self, for an int k: only the constant numerator changes
        nums = [-c for c in self._nums] if sign < 0 else list(self._nums)
        if nums:
            nums[0] += k * self._den
        else:
            nums.append(k)
        return Poly._reduced(nums, self._den)

    def __add__(self, other):
        if type(other) is int:
            return self._plus_int(other, 1)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return Poly._reduced([-c for c in self._nums], self._den)

    def __sub__(self, other):
        if type(other) is int:
            return self._plus_int(-other, 1)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        if type(other) is int:
            return self._plus_int(other, -1)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._plus(self, -1)

    def __mul__(self, other):
        if type(other) is int:
            return Poly._reduced([c * other for c in self._nums], self._den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._nums, o._nums
        if len(a) > len(b):
            a, b = b, a
        # the shorter factor in the outer loop: p * (n - k) is two passes
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return Poly._reduced(out, self._den * o._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if type(exponent) is not int or exponent < 0:
            raise ValueError(f"polynomial power must be a nonnegative integer, got {exponent!r}")
        nums = self._nums
        if nums and not any(nums[:-1]):
            # a monomial c * n^j / den, as N itself: its k-th power is
            # c^k * n^(j * k) / den^k, with no multiplication of polynomials
            j = len(nums) - 1
            return Poly._reduced([0] * (j * exponent) + [nums[-1] ** exponent],
                                 self._den ** exponent)
        result = Poly._reduced([1], 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __truediv__(self, other):
        # Division by a nonzero constant only; use divide_exact for polynomials.
        if _is_number(other):
            if not other:
                raise ZeroDivisionError("division by zero")
            num, den = other.numerator, other.denominator
            if num < 0:
                num, den = -num, -den
            return Poly._reduced([c * den for c in self._nums], self._den * num)
        return NotImplemented

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("polynomial division by zero")
        # each step's quotient term is r's leading coefficient over o's,
        # r_lead / r_den * o_den / o_lead, with the sign of o_lead moved
        # into the numerator's factor
        lead, scale = o._nums[-1], o._den
        if lead < 0:
            lead, scale = -lead, -scale
        q = Poly()
        r = self
        while r._nums and r.degree >= o.degree:
            t = Poly._reduced([0] * (r.degree - o.degree) + [r._nums[-1] * scale], r._den * lead)
            q = q + t
            r = r - t * o
        return q, r

    @cached
    def newton_table(self) -> tuple[tuple[int, ...], int]:
        """Forward differences at n = 2 over one common denominator.

        Returns (diffs, den), den the stored denominator and diffs[k] =
        den * D^k p(2) for k = 0..deg p (the zero polynomial gives
        ((0,), 1)).  Since p(2 + m) = sum_k D^k p(2) * C(m, k) for every
        integer m, this one table decides integer-valuedness on Z and
        settles the sign of p on n >= 2 whenever diffs[1:] are all
        nonnegative.  Computed on the integer numerators in Newton's form
        p = sum_k a_k (n - 2)(n - 3)...(n - k - 1), where D^k p(2) = k! a_k:
        a_k is the remainder of dividing the previous quotient (p itself
        for k = 0) by n - k - 2, one synthetic division each, so the table
        takes (d + 1)(d + 2) / 2 multiply-adds for degree d.
        """
        cs = self._nums[::-1] or (0,)  # highest power first
        diffs = []
        factorial = 1
        for x in range(2, len(cs) + 2):
            q = []
            acc = 0
            for c in cs:
                acc = acc * x + c
                q.append(acc)
            diffs.append(q.pop() * factorial)
            factorial *= x - 1
            cs = q
        return tuple(diffs), self._den

    def __call__(self, x: int) -> int | Fraction:
        """Exact evaluation at an integer x (not a bool), a numeric scalar:
        Horner on the integer form over den."""
        if type(x) is not int:
            raise TypeError(f"a polynomial is evaluated at an int, got {x!r}")
        return quotient(_horner(self._nums, x), self._den)

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self._nums == other._nums and self._den == other._den
        if _is_number(other):
            # both sides in lowest terms over a positive denominator
            nums = self._nums
            return len(nums) <= 1 and (
                (nums[0] if nums else 0) * other.denominator == other.numerator * self._den
            )
        return NotImplemented

    def __hash__(self):
        # a constant hashes as the number it equals
        nums = self._nums
        if len(nums) > 1:
            return hash((nums, self._den))
        c = nums[0] if nums else 0
        return hash(c) if self._den == 1 else hash(_fraction(c, self._den))

    def __bool__(self):
        return bool(self._nums)

    def __str__(self):
        return _format_dense(0, self._nums, "n", self._den)

    def __repr__(self):
        return f"Poly[{self}]"


#: The construction parameter n as a polynomial.
N = Poly._reduced([0, 1], 1)


def as_scalar(x) -> Scalar:
    """The normal form of an int, Fraction or Poly: an int when integral, a
    Fraction when not, and a Poly only when its degree is positive (a
    constant Poly becomes its number, p(0))."""
    if type(x) is int:
        return x
    if isinstance(x, Poly):
        return x if len(x._nums) > 1 else x(0)
    x = _number(x)
    return x.numerator if x.denominator == 1 else x


def quotient(a: Scalar, b: Scalar) -> Scalar:
    """a / b, exactly, for a nonzero number b: an int when it is integral,
    else a Fraction, and a Poly when a is one.  Every division between
    scalars goes through here; use divide_exact for a polynomial divisor."""
    if isinstance(a, Poly):
        return a / b
    if not b:
        raise ZeroDivisionError("division by zero")
    if type(a) is int and type(b) is int:
        num, den = a, b
    else:
        a, b = _number(a), _number(b)
        num, den = a.numerator * b.denominator, a.denominator * b.numerator
    q, r = divmod(num, den)
    return _fraction(num, den) if r else q


def scalar_eval(s: Scalar, n) -> Scalar:
    """Evaluate a Scalar at a concrete parameter value."""
    return s(n) if isinstance(s, Poly) else s


def values_from(s: Scalar, start: int) -> Iterator[Scalar]:
    """s(start), s(start + 1), ... exactly; a number just repeats.  A Poly p
    steps its forward differences at start (over p's denominator, all ints)
    by deg p additions per value, as p(start + m) = sum_k D^k p(start) *
    C(m, k): fewer operations than evaluating p afresh at each n."""
    if not isinstance(s, Poly):
        yield from repeat(s)  # endless: a number never reaches the walk below
    # the table at 2 of s(n + start - 2) is the table of s at start
    diffs, den = s.shift(start - 2).newton_table
    diffs = list(diffs)
    steps = range(len(diffs) - 1)
    while True:
        yield quotient(diffs[0], den)
        for k in steps:
            diffs[k] += diffs[k + 1]


def divide_exact(a: Scalar, b: Scalar) -> Scalar:
    """Exact division of scalars; raises ValueError when b does not divide a."""
    if not isinstance(b, Poly):
        return quotient(a, b)
    if not isinstance(a, Poly):
        a = Poly.const(a)
    q, r = divmod(a, b)
    if r:
        raise ValueError(f"({a}) is not exactly divisible by ({b})")
    return q


def integer_valued(p: Scalar) -> bool:
    """True iff p(k) is an integer for every integer k.

    Decided exactly through the Newton (binomial) basis: p is integer-valued
    on all of Z iff every iterated forward difference of p at 2, up to the
    degree, is an integer.  This is total, no sampling involved.
    """
    if not isinstance(p, Poly):
        return p.denominator == 1
    diffs, den = p.newton_table
    return all(d % den == 0 for d in diffs)


def at_least(p: Scalar, bound: int) -> bool:
    """True iff p(n) >= bound for every integer n >= 2, decided exactly.

    The Newton table at 2 settles it when p(2) >= bound and every higher
    difference is nonnegative.  Otherwise the real roots of p - bound above
    2 are isolated by Descartes' rule of signs with bisection on integer
    intervals up to Fujiwara's root bound, and p is evaluated at the
    interval endpoints.  An interval holding at most one root needs no
    bisection: p - bound keeps one sign on each side of the root, so the
    interval's first and last interior integers decide every integer in it.
    The roots are isolated on the primitive squarefree part
    q = (p - bound) / gcd(p - bound, p'), which has the same real roots,
    each simple, so Descartes' count falls to 0 or 1 on small enough
    intervals.  The sign of q can differ from that of p - bound, so only p
    itself is evaluated.  Fujiwara's bound 2 * max_i |q_{d-i}/q_d|^(1/i),
    the last term halved, stays within 2d times the largest root, where
    Cauchy's 1 + max_i |q_i/q_d| can grow like its d-th power.
    """
    if not isinstance(p, Poly):
        return p >= bound
    diffs, den = p.newton_table
    if diffs[0] < bound * den:
        return False
    if all(d >= 0 for d in diffs[1:]):
        return True
    if p._nums[-1] < 0:
        return False
    q = _squarefree(p - bound)._nums
    d, lead = len(q) - 1, abs(q[-1])
    radius = max(
        _root_ceiling(abs(q[d - i]), 2 * lead if i == d else lead, i) for i in range(1, d + 1)
    )
    top = 2 * radius + 1  # every real root is below this
    stack = [(2, top)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        if _sign_variations(_interval_transform(q, a, b - a)) < 2:
            if p(a + 1) < bound or p(b - 1) < bound:
                return False
            continue
        m = (a + b) // 2
        if p(m) < bound:
            return False
        stack += [(a, m), (m, b)]
    return True


def _root_ceiling(num: int, den: int, k: int) -> int:
    # an integer r >= 1 with r >= (num/den)^(1/k), the least one when num > 0
    lo, hi = 0, 1 << max(0, -(-(num.bit_length() - den.bit_length() + 1) // k))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if den * mid**k >= num:
            hi = mid
        else:
            lo = mid
    return hi


def nonzero(p: Poly) -> bool:
    """True iff p(n) != 0 for every integer n >= 2, decided exactly: the
    integer numerators P of p take integer values, so P(n) != 0 iff
    P(n)^2 >= 1."""
    whole = Poly._reduced(list(p._nums), 1)
    return at_least(whole * whole, 1)


def _squarefree(p: Poly) -> Poly:
    # the primitive part of p / gcd(p, p'), by Euclid's algorithm over the
    # rationals; making each remainder primitive keeps the numbers small
    a, b = p, _primitive(Poly._reduced([k * c for k, c in enumerate(p._nums)][1:], 1))
    while b:
        a, b = b, _primitive(divmod(a, b)[1])
    return _primitive(divmod(p, a)[0])


def _primitive(p: Poly) -> Poly:
    # p scaled to an integer polynomial whose coefficients have gcd 1
    g = math.gcd(*p._nums) or 1
    return Poly._reduced([c // g for c in p._nums], 1)


def _horner(nums: Sequence[int], x: int) -> int:
    # nums in ascending order
    acc = 0
    for c in reversed(nums):
        acc = acc * x + c
    return acc


def _taylor_shift(cs: list[int], a: int) -> list[int]:
    # ascending coefficients of c(x + a), given those of c(x)
    cs = list(cs)
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += a * cs[j + 1]
    return cs


def _interval_transform(q: list[int], a: int, w: int) -> list[int]:
    # (1 + x)^d * q(a + w/(1 + x)): its positive roots are the images of the
    # roots of q in (a, a + w), so Descartes' rule bounds their number.
    r = [c * w**i for i, c in enumerate(_taylor_shift(q, a))]
    return _taylor_shift(r[::-1], 1)


def _sign_variations(cs: list[int]) -> int:
    signs = [c > 0 for c in cs if c]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


class LaurentPoly(Frozen):
    """Laurent polynomial in t over the integers, canonical dense form.

    The value is sum(_cs[i] * t^(_low + i)) with _cs a tuple of ints whose
    first and last entries are nonzero, so equality is structural; zero is
    (0, ()).  The public constructor takes a mapping or an iterable of
    (exponent, coefficient) pairs of ints and sums repeated exponents.
    """

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if hasattr(terms, "items") else terms
        acc: dict[int, int] = {}
        for e, c in items:
            if not isinstance(e, int) or isinstance(e, bool):
                raise TypeError(f"Laurent exponent must be an int, got {e!r}")
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"Laurent coefficient must be an int, got {c!r}")
            acc[e] = acc.get(e, 0) + c
        low = min(acc, default=0)
        cs = [0] * (max(acc, default=-1) - low + 1)
        for e, c in acc.items():
            cs[e - low] = c
        self.__dict__["_low"], self.__dict__["_cs"] = _strip(low, cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _dense(cls, low: int, cs: Sequence[int]) -> "LaurentPoly":
        # sum(cs[i] * t^(low + i)) for ints cs, zeros at either end allowed;
        # the arithmetic builds its results here, past the checking constructor
        self = object.__new__(cls)
        self.__dict__["_low"], self.__dict__["_cs"] = _strip(low, cs)
        return self

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._dense(0, (1,))

    # -- structure ---------------------------------------------------------

    @property
    def coefficients(self) -> tuple[int, ...]:
        """The coefficients from the lowest power of t with a nonzero
        coefficient to the highest, zeros included; () for zero."""
        return self._cs

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """The (exponent, coefficient) pairs of the nonzero coefficients, in
        ascending order, built on each read."""
        return tuple((e, c) for e, c in enumerate(self._cs, self._low) if c)

    def is_symmetric(self) -> bool:
        """True iff a(t) = a(1/t) coefficientwise."""
        cs = self._cs
        return not cs or (2 * self._low + len(cs) == 1 and cs == cs[::-1])

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._cs, other._cs
        low = self._low + other._low
        if len(a) != 1:
            a, b = b, a
        if len(a) == 1:
            # a monomial c*t^k shifts and scales the other factor
            (c,) = a
            return LaurentPoly._dense(low, b if c == 1 else tuple([c * d for d in b]))
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return LaurentPoly._dense(low, out)

    def substitute_square(self) -> "LaurentPoly":
        """The substitution t -> t^2 (every exponent doubled)."""
        doubled = [0] * (2 * len(self._cs) - 1)
        doubled[::2] = self._cs
        return LaurentPoly._dense(2 * self._low, doubled)

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._low == other._low and self._cs == other._cs

    def __hash__(self):
        return hash((self._low, self._cs))

    def __bool__(self):
        return bool(self._cs)

    def __str__(self):
        return _format_dense(self._low, self._cs, "t")

    def __repr__(self):
        return f"LaurentPoly[{self}]"


def _strip(low: int, cs: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    # (low, cs) with the zeros at either end of cs dropped; zero is (0, ())
    hi = len(cs)
    while hi and not cs[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not cs[lo]:
        lo += 1
    if not hi:
        return 0, ()
    return low + lo, tuple(cs[lo:hi] if lo or hi < len(cs) else cs)


def format_quotient(numerator: int, denominator: int, places: int) -> str:
    """numerator / denominator, for ints with denominator > 0, as a decimal
    with `places` digits after the point, rounded half to even: one divmod
    of the scaled numerator, no Fraction."""
    return _format_scaled(_round_scaled(numerator, denominator, places), places)


def _round_scaled(numerator: int, denominator: int, places: int) -> int:
    # numerator / denominator * 10^places rounded half to even, for
    # denominator > 0: the int that format_quotient prints
    scaled, rest = divmod(numerator * 10**places, denominator)  # floor, 0 <= rest
    rest *= 2
    if rest > denominator or (rest == denominator and scaled & 1):
        scaled += 1
    return scaled


def _format_scaled(scaled: int, places: int) -> str:
    # the int scaled / 10^places as a decimal with `places` digits after the
    # point
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"
