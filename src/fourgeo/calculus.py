"""Surgery calculus on 4-manifold records.

A ManifoldRecord carries the Euler characteristic e and signature sigma as
exact Scalars (an int, a Fraction when not integral, or a polynomial in the
parameter n); every other characteristic number is derived, and its
divisions go through algebra.quotient, so a numeric record stays on ints:

    c1^2  = 3*sigma + 2*e        (Hirzebruch signature formula)
    chi_h = (sigma + e) / 4      (holomorphic Euler characteristic)
    c2    = e

The operations below (blow-up, branched cover, surface resolution, fiber
sum, ...) are pure functions from records to records.  Records are immutable;
each operation appends a one-line descriptor to the provenance log.

Point counts, sheet counts and genera must be (non)negative integers.  In
symbolic mode that is decided exactly for every integer n >= 2, not at
sample points, so a symbolic build that succeeds proves every such check
that the numeric build at any n >= 2 would run.

Fundamental-group information is never computed.  Simple-connectivity (and
the symplectic property) are *declared* tri-state attributes carrying the
textual justification supplied by whoever asserted them.
"""

from __future__ import annotations

from .algebra import (
    N,
    Poly,
    Scalar,
    as_scalar,
    at_least,
    divide_exact,
    integer_valued,
    quotient,
)
from .record import Record, cached, replace

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Sequence

    from .knots import SWLedger

class Declared(Record):
    """Tri-state attribute: asserted true/false with a reason, or unknown."""

    value: bool | None = None
    reason: str = ""

    def is_true(self) -> bool:
        return self.value is True

    def __str__(self):
        if self.value is None:
            return "unknown"
        word = "yes" if self.value else "no"
        return f"{word} ({self.reason})" if self.reason else word


UNKNOWN = Declared()


def declared_true(reason: str) -> Declared:
    return Declared(True, reason)


def declared_false(reason: str) -> Declared:
    return Declared(False, reason)


class MarkedSurface(Record):
    """An embedded-surface descriptor: genus and self-intersection (an
    integer, or integer-valued when symbolic).  A record names its surfaces
    by their keys in `ManifoldRecord.surfaces`."""

    genus: Scalar
    self_int: Scalar

    def __post_init__(self):
        values = self.__dict__
        values["genus"] = as_scalar(values["genus"])
        values["self_int"] = as_scalar(values["self_int"])
        _require_count(self.genus, "surface genus")
        _require_integer(self.self_int, "surface self-intersection")

    def __str__(self):
        return f"genus {self.genus}, self-intersection {self.self_int}"


class BranchData(Record):
    """Aggregate branch-divisor data for a cyclic branched cover.

    The divisor components are assumed smooth and pairwise disjoint; only
    the totals enter the characteristic-number formulas:

      degree    cover degree d
      index     branching index m along the divisor (m divides d)
      e_branch  Euler characteristic of the total branch divisor
      k_dot_d   canonical class of the base dotted with the divisor
      d_sq      total self-intersection of the divisor
    """

    degree: Scalar
    index: Scalar
    e_branch: Scalar
    k_dot_d: Scalar
    d_sq: Scalar

    def __post_init__(self):
        values = self.__dict__
        for f in ("degree", "index", "e_branch", "k_dot_d", "d_sq"):
            values[f] = as_scalar(values[f])
        _require_count(self.degree, "cover degree", positive=True)
        _require_count(self.index, "branching index", positive=True)


class ManifoldRecord(Record):
    """A closed oriented 4-manifold, tracked through (e, sigma) plus flags."""

    e: Scalar
    sigma: Scalar
    simply_connected: Declared = UNKNOWN
    symplectic: Declared = UNKNOWN
    almost_complex: bool = False
    surfaces: tuple[tuple[str, MarkedSurface], ...] = ()
    sw: "SWLedger | None" = None
    log: tuple[str, ...] = ()

    def __post_init__(self):
        values = self.__dict__
        values["e"] = as_scalar(values["e"])
        values["sigma"] = as_scalar(values["sigma"])
        if self.almost_complex and not integer_valued(self.chi_h):
            raise ValueError(f"almost-complex record with non-integral chi_h = {self.chi_h}")

    @property
    def c2(self) -> Scalar:
        return self.e

    @cached
    def c1sq(self) -> Scalar:
        return _c1sq(self.e, self.sigma)

    @cached
    def chi_h(self) -> Scalar:
        return _chi_h(self.e, self.sigma)

    def surface(self, name: str) -> MarkedSurface:
        for key, s in self.surfaces:
            if key == name:
                return s
        raise KeyError(f"no marked surface named {name!r} on this record")

    def invariants(self) -> dict[str, Scalar]:
        return {
            "e": self.e,
            "sigma": self.sigma,
            "c2": self.c2,
            "c1sq": self.c1sq,
            "chi_h": self.chi_h,
        }


def _surfaces_with(surfaces, name: str, s: MarkedSurface) -> tuple:
    # the surfaces with s under name, last, and no other surface so named
    return tuple([(k, v) for k, v in surfaces if k != name]) + ((name, s),)


# The derived invariants of (e, sigma), shared by ManifoldRecord and by
# geography.scan, which computes them for its rows without a record.


def _c1sq(e: Scalar, sigma: Scalar) -> Scalar:
    return as_scalar(3 * sigma + 2 * e)


def _chi_h(e: Scalar, sigma: Scalar) -> Scalar:
    return as_scalar(quotient(sigma + e, 4))


def parameter(n: int | None) -> Scalar:
    """The construction parameter: the polynomial n (symbolic mode) or a
    concrete integer n >= 2."""
    if n is None:
        return N
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"construction parameter must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(
            f"construction parameter must be >= 2 (n = {n} degenerates: "
            "the lattice and branch data collapse)"
        )
    return n


def _require_count(k: Scalar, what: str, positive: bool = False) -> None:
    """Validate a count or genus: a (non)negative integer at numeric n.

    A symbolic one must be integer-valued on Z and (non)negative at every
    integer n >= 2, both decided exactly from its Newton table at n = 2
    (algebra.at_least falls back to exact root isolation when the table
    leaves the sign open).  So a symbolic build that passes proves the same
    check at every numeric n >= 2.
    """
    bound = 1 if positive else 0
    kind = "positive" if positive else "nonnegative"
    if not isinstance(k, Poly):
        if k.denominator != 1 or k < bound:
            raise ValueError(f"{what} must be a {kind} integer, got {k}")
        return
    _require_integer(k, what)
    if not at_least(k, bound):
        raise ValueError(f"{what} must be {kind} for n >= 2, got {k}")


def _require_integer(k: Scalar, what: str) -> None:
    """Validate an integer: an integer at numeric n, integer-valued on Z
    (decided exactly) when symbolic."""
    if not integer_valued(k):
        kind = "integer-valued" if isinstance(k, Poly) else "an integer"
        raise ValueError(f"{what} must be {kind}, got {k}")


def _sheet_count(degree: Scalar, index: Scalar) -> Scalar:
    """d/m, the sheets meeting over the branch divisor; m must divide d, and
    one message says so whether m is a number or a polynomial."""
    try:
        sheets = divide_exact(degree, index)
        if integer_valued(sheets):
            return sheets
    except ValueError:
        pass
    raise ValueError(f"branching index {index} does not divide degree {degree}")


def blow_up(record: ManifoldRecord, k) -> ManifoldRecord:
    """Blow up k points: e -> e + k, sigma -> sigma - k (so c1^2 drops by k).

    Marked surfaces are carried along unchanged; a surface passing through
    blown-up points must be updated separately with surface_blowup.
    """
    k = as_scalar(k)
    _require_count(k, "blow-up count")
    return replace(
        record,
        e=record.e + k,
        sigma=record.sigma - k,
        log=record.log + (f"blow_up(k={k})",),
    )


def surface_blowup(s: MarkedSurface, points) -> MarkedSurface:
    """Proper transform of a surface through the given number of blown-up
    points: genus unchanged, self-intersection drops by the point count."""
    points = as_scalar(points)
    _require_count(points, "blown-up point count")
    return MarkedSurface(s.genus, s.self_int - points)


def branched_cover(record: ManifoldRecord, branch: BranchData) -> ManifoldRecord:
    """Cyclic degree-d cover branched with index m over a disjoint divisor.

    With lambda = 1 - 1/m and aggregate divisor data (e_branch, K.D, D^2):

        e'    = d*(e - e_branch) + (d/m)*e_branch
        c1^2' = d*(c1^2 + 2*lambda*K.D + lambda^2*D^2)

    and sigma' is recovered from (e', c1^2') via sigma = (c1^2 - 2e)/3.
    The result is flagged almost-complex; non-integral sigma' or chi_h'
    means the branch data was inconsistent.
    """
    d, m = branch.degree, branch.index
    sheets = _sheet_count(d, m)  # sheets coming together over the divisor
    e_new = d * (record.e - branch.e_branch) + sheets * branch.e_branch
    # d*lambda = (m-1)*(d/m) and d*lambda^2 = (m-1)^2 * (d/m)/m, both exact.
    c1_new = (
        d * record.c1sq
        + 2 * (m - 1) * sheets * branch.k_dot_d
        + (m - 1) ** 2 * divide_exact(sheets * branch.d_sq, m)
    )
    sigma_new = quotient(c1_new - 2 * e_new, 3)
    chi_new = quotient(sigma_new + e_new, 4)
    if not (integer_valued(sigma_new) and integer_valued(chi_new)):
        raise ValueError(
            f"inconsistent branch data: cover has sigma = {sigma_new}, chi_h = {chi_new}"
        )
    entry = (
        f"branched_cover(degree={d}, index={m}, e_branch={branch.e_branch}, "
        f"K.D={branch.k_dot_d}, D^2={branch.d_sq})"
    )
    return ManifoldRecord(
        e_new,
        sigma_new,
        simply_connected=UNKNOWN,
        symplectic=record.symplectic,
        almost_complex=True,
        log=record.log + (entry,),
    )


def riemann_hurwitz(e_base, branch_points, degree, index) -> Scalar:
    """Euler characteristic of a degree-d cover of a curve, branched with
    index m over the given number of points: d*(e - b) + (d/m)*b.  e must
    be an integer, d and m positive counts, b a nonnegative one (ValueError
    otherwise)."""
    e_base = as_scalar(e_base)
    b = as_scalar(branch_points)
    d = as_scalar(degree)
    m = as_scalar(index)
    _require_integer(e_base, "base Euler characteristic")
    _require_count(d, "cover degree", positive=True)
    _require_count(m, "branching index", positive=True)
    _require_count(b, "branch point count")
    return as_scalar(d * (e_base - b) + _sheet_count(d, m) * b)


def euler_of_union(component_eulers: Sequence, intersection_points) -> Scalar:
    """Euler characteristic of a union glued at transverse double points:
    sum of the components minus the number of intersection points."""
    total: Scalar = 0
    for e in component_eulers:
        total = total + as_scalar(e)
    return as_scalar(total - as_scalar(intersection_points))


def genus_from_euler(e) -> Scalar:
    """Genus of a closed orientable surface from its Euler characteristic."""
    e = as_scalar(e)
    g = 1 - quotient(e, 2)
    if not isinstance(e, Poly):
        if e.denominator != 1 or e % 2 != 0:
            raise ValueError(f"genus undefined: Euler characteristic {e} is not an even integer")
        if e > 2:
            raise ValueError(f"genus undefined: Euler characteristic {e} exceeds 2")
    elif not integer_valued(g):
        raise ValueError(f"genus undefined: Euler characteristic {e} is odd at some integers")
    elif not at_least(g, 0):
        raise ValueError(f"genus undefined: Euler characteristic {e} exceeds 2 at some n >= 2")
    return g


def resolve_surfaces(s1: MarkedSurface, s2: MarkedSurface, k) -> MarkedSurface:
    """Resolve k transverse positive intersections of two surfaces into one
    embedded surface: genus = g1 + g2 + k - 1, square = s1 + s2 + 2k."""
    k = as_scalar(k)
    _require_count(k, "intersection count", positive=True)
    return MarkedSurface(
        s1.genus + s2.genus + k - 1,
        s1.self_int + s2.self_int + 2 * k,
    )


_GOMPF = declared_true("Gompf sum of symplectic manifolds along symplectic surfaces")


def fiber_sum(
    left: ManifoldRecord,
    left_surface: MarkedSurface,
    right: ManifoldRecord,
    right_surface: MarkedSurface,
    pi1_surjection: str | None = None,
    complement_trivial: str | None = None,
) -> ManifoldRecord:
    """Symplectic (Gompf) sum along surfaces of equal genus and opposite
    self-intersection:

        e'     = e_left + e_right + 4g - 4
        sigma' = sigma_left + sigma_right   (Novikov additivity)

    The result is declared simply connected only when both justifications
    are supplied: that the gluing surface carries pi_1 onto the left record,
    and that its complement in the right record is simply connected.
    """
    if left_surface.genus != right_surface.genus:
        raise ValueError(f"fiber sum genus mismatch: {left_surface.genus} vs {right_surface.genus}")
    if left_surface.self_int + right_surface.self_int != 0:
        raise ValueError(
            "fiber sum squares do not cancel: "
            f"{left_surface.self_int} + {right_surface.self_int} != 0"
        )
    g = left_surface.genus
    if pi1_surjection and complement_trivial:
        sc = declared_true(f"{pi1_surjection}; {complement_trivial}; Seifert-Van Kampen")
    else:
        sc = UNKNOWN
    if left.symplectic.is_true() and right.symplectic.is_true():
        sympl = _GOMPF
    else:
        sympl = UNKNOWN
    entry = (
        f"fiber_sum(genus={g}, squares {left_surface.self_int}/{right_surface.self_int})"
    )
    return ManifoldRecord(
        left.e + right.e + 4 * g - 4,
        left.sigma + right.sigma,
        simply_connected=sc,
        symplectic=sympl,
        almost_complex=left.almost_complex and right.almost_complex,
        log=left.log + right.log + (entry,),
    )


class BmyReport(Record):
    """Position of a record relative to the line c1^2 = 9*chi_h."""

    # c1^2/chi_h, or the limit of that ratio in symbolic mode, as the exact
    # integer quotient ratio_num / ratio_den, not reduced, ratio_den > 0
    ratio_num: int
    ratio_den: int
    gap: Scalar  # 9*chi_h - c1^2
    side: str  # "below", "on" or "above"
    asymptotic: bool  # True when ratio/side describe the large-n limit

    @cached
    def ratio(self) -> Scalar:
        """The ratio as a numeric scalar, an int when it is integral."""
        return quotient(self.ratio_num, self.ratio_den)


def _ratio_pair(a, b) -> tuple[int, int]:
    # the ints (p, q), q > 0, with p / q = a / b for numbers a and b != 0
    p, q = a.numerator * b.denominator, a.denominator * b.numerator
    return (-p, -q) if q < 0 else (p, q)


def bmy_report(record: ManifoldRecord) -> BmyReport:
    """Compare c1^2 against 9*chi_h.

    Numeric records report the exact ratio; symbolic records report the
    limit ratio and the eventual side, and raise when the limit is infinite.
    """
    chi = record.chi_h
    c1 = record.c1sq
    if isinstance(chi, Poly) or isinstance(c1, Poly):
        chi_p = chi if isinstance(chi, Poly) else Poly.const(chi)
        c1_p = c1 if isinstance(c1, Poly) else Poly.const(c1)
        if not chi_p:
            raise ValueError("ratio undefined: chi_h = 0")
        if c1_p.degree > chi_p.degree:
            raise ValueError(
                "no finite limit of c1^2/chi_h: "
                f"deg c1^2 = {c1_p.degree} > deg chi_h = {chi_p.degree}"
            )
        # the leading numerators over the denominators; 0 when c1^2 has the
        # lower degree
        c1_lead = c1_p._nums[-1] if c1_p.degree == chi_p.degree else 0
        num, den = _ratio_pair(c1_lead * chi_p._den, c1_p._den * chi_p._nums[-1])
        gap = as_scalar(9 * chi - c1)
        gap_p = gap if isinstance(gap, Poly) else Poly.const(gap)
        side = "on" if not gap_p else ("below" if gap_p._nums[-1] > 0 else "above")
        return BmyReport(num, den, gap, side, True)
    return BmyReport(*_numeric_bmy(c1, chi), False)


def _numeric_bmy(c1sq, chi_h) -> tuple[int, int, Scalar, str]:
    # (ratio_num, ratio_den, gap, side) of bmy_report for the numbers c1^2
    # and chi_h; geography.scan reads its rows from here too
    if chi_h == 0:
        raise ValueError("ratio undefined: chi_h = 0")
    gap = as_scalar(9 * chi_h - c1sq)
    num, den = _ratio_pair(c1sq, chi_h)
    side = "on" if gap == 0 else ("below" if gap > 0 else "above")
    return num, den, gap, side
