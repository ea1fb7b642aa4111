"""Fibered-knot catalog, Alexander polynomials, and the knot-surgery ledger.

The Seiberg-Witten bookkeeping here is deliberately minimal: an SWLedger is
the invariant relative to one distinguished square-zero torus class, a
Laurent polynomial in t.  Knot surgery along that torus multiplies the
ledger by Delta_K(t^2), the Fintushel-Stern rule; that is all an
"infinitely many smooth structures" argument needs, since distinct
Alexander polynomials then give pairwise-distinct ledgers.

The ledger is kept factored: a base value and the tuple of knots surgered
in.  Knot surgery appends the knot and expands nothing, and a torus knot
builds and validates its Alexander polynomial the first time it is read.
Only printing and comparing a ledger expand it, and only for knots of genus
up to ALEXANDER_GENUS_CAP; a larger or symbolic genus (the gluing genus
grows like 3n^5) prints as a Delta[...](t^2) factor and cannot be compared.
A family of surgeries on one base (family_stream) checks the base and
expands its ledger once, then multiplies in each knot's factor and yields
that entry; it keeps a hash per ledger, not the ledger, so its memory is
bounded by one ledger.  distinguish_family collects the whole stream.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate
from typing import Iterable, Iterator

from .algebra import LaurentPoly, Poly, Scalar, as_scalar
from .calculus import (
    UNKNOWN,
    Declared,
    ManifoldRecord,
    MarkedSurface,
    _require_count,
    declared_false,
)
from .record import Record, cached, replace

#: Largest knot genus whose Delta_K(t^2) factor a ledger expands when it is
#: printed or compared (support size ~4g); larger genera stay factored.
ALEXANDER_GENUS_CAP = 50_000


class Knot(Record):
    """A knot in the 3-sphere, described just closely enough for surgery:
    genus, Alexander polynomial, and whether it is fibered.

    polynomial is the Alexander polynomial, validated on construction; or
    the (p, q) type of a torus knot, whose polynomial is built and validated
    when `alexander` is first read; or None when the genus is symbolic.
    `monic` (top coefficient +-1) is read off the validated polynomial
    once and cached.
    """

    descriptor: str
    genus: Scalar
    polynomial: LaurentPoly | tuple[int, int] | None
    fibered: bool

    def __post_init__(self):
        object.__setattr__(self, "genus", as_scalar(self.genus))
        _require_count(self.genus, "knot genus")
        if isinstance(self.polynomial, LaurentPoly):
            self.alexander  # a given polynomial is validated at once

    @cached
    def alexander(self) -> LaurentPoly:
        return self._built_alexander()

    def _built_alexander(self) -> LaurentPoly:
        # the validated polynomial, built anew on each call: a stream of
        # knots reads it without keeping it
        a = self.polynomial
        if a is None:
            raise ValueError(f"no Alexander polynomial at symbolic genus: {self.descriptor}")
        if isinstance(a, tuple):
            a = torus_knot_alexander(*a)
        if a.is_zero():
            raise ValueError("Alexander polynomial cannot be zero")
        if not a.is_symmetric():
            raise ValueError(f"Alexander polynomial must satisfy D(t) = D(1/t): {a}")
        if sum(a.coefficients) not in (1, -1):
            raise ValueError(f"Alexander polynomial must have D(1) = +-1: {a}")
        if self.fibered and abs(a.coefficients[-1]) != 1:
            raise ValueError(f"fibered knot needs a monic Alexander polynomial: {a}")
        return a

    @cached
    def monic(self) -> bool:
        """True iff the (symmetric) Alexander polynomial has top coefficient +-1."""
        return abs(self.alexander.coefficients[-1]) == 1


def _divide_by_t_power_minus_1(coeffs: list[int], k: int) -> list[int]:
    # Exact dense division by (t^k - 1).  With D = Q*(t^k - 1) the
    # coefficients satisfy d[j] = q[j-k] - q[j], so on each residue class
    # mod k, q is minus the running sum of d; the sum of the whole class
    # must be 0.
    if len(coeffs) <= k:
        raise ValueError("not divisible by t^k - 1")
    quotient = [0] * (len(coeffs) - k)
    for r in range(k):
        sums = list(accumulate(coeffs[r::k], operator.sub, initial=0))
        if sums[-1]:
            raise ValueError("not divisible by t^k - 1")
        quotient[r::k] = sums[1:-1]
    return quotient


def torus_knot_alexander(p: int, q: int) -> LaurentPoly:
    """Alexander polynomial of the (p, q) torus knot, symmetric form.

    Computed by exact division, (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)),
    then recentered so that D(t) = D(1/t).  With p the smaller index, the
    numerator is (t - 1) * sum(t^{iq} for i < p), and one division by
    t^p - 1 is left.
    """
    p, q = min(p, q), max(p, q)
    numerator = [0] * ((p - 1) * q + 2)
    numerator[::q] = [-1] * p
    numerator[1::q] = [1] * p
    genus = (p - 1) * (q - 1) // 2
    return LaurentPoly._dense(-genus, _divide_by_t_power_minus_1(numerator, p))


def torus_knot(p: int, q: int) -> Knot:
    """The (p, q) torus knot: fibered, genus (p-1)(q-1)/2."""
    if not (isinstance(p, int) and isinstance(q, int)) or p < 2 or q < 2:
        raise ValueError(f"torus knot parameters must be integers >= 2, got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise ValueError(f"not a knot: gcd({p}, {q}) != 1")
    return Knot(f"torus({p},{q})", (p - 1) * (q - 1) // 2, (p, q), True)


def unknot() -> Knot:
    return Knot("unknot", 0, LaurentPoly.one(), fibered=True)


def find_fibered_knot_of_genus(genus) -> Knot:
    """A fibered knot of the requested genus: the (2, 2g+1) torus knot.

    genus 0 returns the unknot.  A polynomial genus (symbolic construction
    parameter) must be integer-valued and nonnegative for n >= 2; it yields
    a knot with no Alexander polynomial, which ledgers carry as a factor.
    """
    genus = as_scalar(genus)
    if isinstance(genus, Poly):
        return Knot(f"torus(2, 2*({genus})+1)", genus, None, fibered=True)
    _require_count(genus, "knot genus")
    if genus == 0:
        return unknot()
    return torus_knot(2, 2 * genus + 1)


def twist_knot(m: int) -> Knot:
    """The m-twist knot with Alexander polynomial m*t - (2m+1) + m/t;
    not fibered and not monic for m >= 2."""
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"twist parameter must be an integer >= 2, got {m}")
    alexander = LaurentPoly._dense(-1, (m, -(2 * m + 1), m))
    return Knot(f"twist({m})", 1, alexander, False)


def nonfibered_nonmonic_family(count: int) -> list[Knot]:
    """count twist knots (m = 2 .. count+1): pairwise-distinct non-monic
    Alexander polynomials, none fibered."""
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(f"family size must be a positive integer, got {count}")
    return [twist_knot(m) for m in range(2, count + 2)]


def _expands(knot: Knot) -> bool:
    # a ledger multiplies out Delta_K(t^2) only for a numeric genus up to the cap
    return not isinstance(knot.genus, Poly) and knot.genus <= ALEXANDER_GENUS_CAP


class SWLedger(Record):
    """Seiberg-Witten invariant relative to one distinguished torus class,
    in factored form: value times Delta_K(t^2) for every knot K in knots.
    """

    value: LaurentPoly
    knots: tuple[Knot, ...] = ()

    def expand(self) -> tuple[LaurentPoly, tuple[Knot, ...]]:
        """value times every factor of genus up to ALEXANDER_GENUS_CAP, and
        the knots whose factors (larger or symbolic genus) stay unexpanded."""
        value, factored = self.value, ()
        for knot in self.knots:
            if _expands(knot):
                value = value * knot.alexander.substitute_square()
            else:
                factored += (knot,)
        return value, factored

    def __str__(self):
        value, factored = self.expand()
        return " * ".join([str(value)] + [f"Delta[{k.descriptor}](t^2)" for k in factored])


def _require_surgery_torus(record: ManifoldRecord, torus: str) -> None:
    # what knot surgery needs of the record, whatever the knot
    if record.sw is None:
        raise ValueError("knot surgery needs a Seiberg-Witten ledger on the record")
    if not record.has_surface(torus):
        raise ValueError(f"knot surgery needs a designated square-zero torus: no surface named {torus!r}")
    t = record.surface(torus)
    if t.genus != 1 or t.self_int != 0:
        raise ValueError(f"surgery torus must have genus 1 and square 0, got {t}")


_NON_MONIC = declared_false(
    "knot surgery along a non-fibered knot with non-monic Alexander polynomial"
)


def _surgered_symplectic(symplectic: Declared, knot: Knot) -> Declared:
    # the symplectic flag after surgery along knot, from the flag before it
    if knot.fibered:
        return symplectic
    return UNKNOWN if knot.monic else _NON_MONIC


def knot_surgery(
    record: ManifoldRecord,
    knot: Knot,
    torus: str = "fiber",
    sum_target: str | None = None,
) -> ManifoldRecord:
    """Fintushel-Stern knot surgery along a designated square-zero torus.

    (e, sigma) are unchanged; the ledger gains the factor Delta_K(t^2),
    recorded as the knot, unexpanded.  The symplectic flag survives iff the
    knot is fibered; surgery along a non-fibered knot with non-monic
    Alexander polynomial is declared non-symplectic.  If sum_target names a
    marked surface, that surface absorbs the knot fiber: its genus grows by
    the knot genus (the internal sum used to build gluing surfaces of
    prescribed genus).
    """
    _require_surgery_torus(record, torus)
    sw = replace(record.sw, knots=record.sw.knots + (knot,))
    symplectic = _surgered_symplectic(record.symplectic, knot)
    if sum_target is not None:
        s = record.surface(sum_target)
        record = record.with_surface(sum_target, MarkedSurface(s.genus + knot.genus, s.self_int))
    entry = f"knot_surgery({knot.descriptor}, torus={torus!r})"
    return replace(record, sw=sw, symplectic=symplectic, log=record.log + (entry,))


class FamilyEntry(Record):
    knot: str
    sw: LaurentPoly
    monic: bool
    symplectic_candidate: bool
    note: str = ""


class FamilyReport(Record):
    """Outcome of surgering one base record along a list of knots."""

    entries: tuple[FamilyEntry, ...]
    collisions: tuple[tuple[str, str], ...]

    @property
    def pairwise_distinct(self) -> bool:
        return not self.collisions

    def symplectic(self) -> list[FamilyEntry]:
        return [e for e in self.entries if e.symplectic_candidate]

    def non_symplectic(self) -> list[FamilyEntry]:
        return [e for e in self.entries if not e.symplectic_candidate]


_UNEXPANDED = "cannot compare an unexpanded Alexander polynomial: "


def family_stream(
    base: ManifoldRecord, knots: Iterable[Knot], torus: str = "fiber"
) -> Iterator[tuple[FamilyEntry, tuple[int, ...]]]:
    """Surger the base record along each knot in turn: yield its FamilyEntry
    and the indices of the earlier entries whose ledger equals its own.

    Each entry is what knot_surgery(base, knot, torus) and SWLedger.expand
    give, without building the surgered record: knot_surgery's checks on
    the base run once, at the first knot (so an empty list checks
    nothing), and the base ledger is expanded once; each knot then
    multiplies it by its own Delta_K(t^2).  A base or knot factor that
    stays unexpanded (symbolic genus, or above ALEXANDER_GENUS_CAP) cannot
    be compared and raises.  A symplectic candidate is a record that
    knot_surgery leaves symplectic: a fibered knot on a symplectic base.

    Only the hash of each ledger is kept, with the first knot of every
    class of equal ledgers; on a hash match that knot's ledger is built
    again and compared exactly.  No ledger and no torus knot's polynomial
    outlives its entry, so memory is bounded by one ledger (and the knots
    the caller holds).
    """
    value = None  # the base ledger, expanded
    classes: dict[int, list[tuple[Knot, list[int]]]] = {}  # hash -> (first knot, indices)
    for j, knot in enumerate(knots):
        if value is None:
            _require_surgery_torus(base, torus)
        # as in knot_surgery, the knot's flag comes before the ledger
        symplectic = _surgered_symplectic(base.symplectic, knot)
        if value is None:
            value, factored = base.sw.expand()
            if factored:
                raise ValueError(_UNEXPANDED + factored[0].descriptor)
        if not _expands(knot):
            raise ValueError(_UNEXPANDED + knot.descriptor)
        alexander = knot._built_alexander()
        sw = value * alexander.substitute_square()
        same = classes.setdefault(hash(sw), [])
        indices = next(
            (ix for first, ix in same if value * first._built_alexander().substitute_square() == sw),
            None,
        )
        if indices is None:
            indices = []
            same.append((knot, indices))
        earlier = tuple(indices)
        indices.append(j)
        # Knot.monic, read off the polynomial at hand; a symmetric
        # polynomial with the one coefficient 1 is 1
        cs = alexander.coefficients
        note = "trivial Alexander polynomial, no exotic pair" if cs == (1,) else ""
        yield FamilyEntry(knot.descriptor, sw, abs(cs[-1]) == 1, symplectic.is_true(), note), earlier


def distinguish_family(
    base: ManifoldRecord, knots: list[Knot], torus: str = "fiber"
) -> FamilyReport:
    """The whole of family_stream(base, knots, torus): every entry, and
    every pair of equal ledgers in index order."""
    entries, pairs = [], []
    for j, (entry, earlier) in enumerate(family_stream(base, knots, torus)):
        entries.append(entry)
        pairs += [(i, j) for i in earlier]
    collisions = tuple((entries[i].knot, entries[j].knot) for i, j in sorted(pairs))
    return FamilyReport(tuple(entries), collisions)
