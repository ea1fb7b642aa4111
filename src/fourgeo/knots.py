"""Fibered-knot catalog, Alexander polynomials, and the knot-surgery ledger.

The Seiberg-Witten bookkeeping here is deliberately minimal: an SWLedger is
the invariant relative to one distinguished square-zero torus class, a
Laurent polynomial in t.  Knot surgery along that torus multiplies the
ledger by Delta_K(t^2), the Fintushel-Stern rule; that is all an
"infinitely many smooth structures" argument needs, since distinct
Alexander polynomials then give pairwise-distinct ledgers.

The ledger is kept factored: a base value and the tuple of knots surgered
in.  Knot surgery appends the knot and expands nothing, and a torus knot
builds and validates its Alexander polynomial each time it is read; no
knot keeps one.
Only printing and comparing a ledger expand it, and only for knots of genus
up to ALEXANDER_GENUS_CAP; a larger or symbolic genus (the gluing genus
grows like 3n^5) prints as a Delta[...](t^2) factor and cannot be compared.
A family of surgeries on one base (family_stream) checks the base and
expands its ledger once, then multiplies in each knot's factor and yields
that entry; it keeps a hash per ledger, not the ledger, so its memory is
bounded by one ledger.  It is the only family API: a caller that wants
every entry collects them.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Iterator

from .algebra import LaurentPoly, Poly, Scalar, as_scalar
from .calculus import (
    UNKNOWN,
    Declared,
    ManifoldRecord,
    MarkedSurface,
    _require_count,
    _surfaces_with,
    declared_false,
    declared_true,
)
from .record import Record, replace

#: Largest knot genus whose Delta_K(t^2) factor a ledger expands when it is
#: printed or compared (support size ~4g); larger genera stay factored.
ALEXANDER_GENUS_CAP = 50_000


class Knot(Record):
    """A knot in the 3-sphere, described just closely enough for surgery:
    genus, Alexander polynomial, and whether it is fibered.

    polynomial is the Alexander polynomial, validated on construction; or
    the (p, q) type of a torus knot, whose polynomial is built and validated
    each time `alexander` is read; or None when the genus is symbolic.
    `monic` (top coefficient +-1) is read off `alexander` on each read.
    """

    descriptor: str
    genus: Scalar
    polynomial: LaurentPoly | tuple[int, int] | None
    fibered: bool

    def __post_init__(self):
        self.__dict__["genus"] = as_scalar(self.genus)
        _require_count(self.genus, "knot genus")
        if isinstance(self.polynomial, LaurentPoly):
            self._validated(self.polynomial)

    @property
    def alexander(self) -> LaurentPoly:
        a = self.polynomial
        if a is None:
            raise ValueError(f"no Alexander polynomial at symbolic genus: {self.descriptor}")
        return a if isinstance(a, LaurentPoly) else self._validated(torus_knot_alexander(*a))

    def _validated(self, a: LaurentPoly) -> LaurentPoly:
        if not a:
            raise ValueError("Alexander polynomial cannot be zero")
        if not a.is_symmetric():
            raise ValueError(f"Alexander polynomial must satisfy D(t) = D(1/t): {a}")
        if sum(a.coefficients) not in (1, -1):
            raise ValueError(f"Alexander polynomial must have D(1) = +-1: {a}")
        if self.fibered and abs(a.coefficients[-1]) != 1:
            raise ValueError(f"fibered knot needs a monic Alexander polynomial: {a}")
        return a

    @property
    def monic(self) -> bool:
        """True iff the (symmetric) Alexander polynomial has top coefficient +-1."""
        return abs(self.alexander.coefficients[-1]) == 1


def torus_knot_alexander(p: int, q: int) -> LaurentPoly:
    """Alexander polynomial of the (p, q) torus knot, symmetric form, for
    coprime indices p, q >= 1 (an index 1 gives the unknot's 1).

    Read off the semigroup S = <p, q> of the sums ap + bq (a, b >= 0): it
    holds every integer from 2g = (p - 1)(q - 1) on, and
    D(t) = sum(t^s - t^(s+1) for s in S, s < 2g) + t^2g, recentered so that
    D(t) = D(1/t).  With p the smaller index, the members of S in the
    residue class of iq mod p (i < p) are iq, iq + p, iq + 2p, ...; marking
    those up to 2g takes one slice per class (one nonempty slice when
    p = 2), and the coefficient of t^s is then [s in S] - [s - 1 in S].
    """
    if p < 1 or q < 1 or math.gcd(p, q) != 1:
        raise ValueError(f"torus knot indices must be coprime integers >= 1, got ({p}, {q})")
    p, q = min(p, q), max(p, q)
    top = (p - 1) * (q - 1)
    member = bytearray(top + 1)
    for i in range(p):
        member[i * q :: p] = b"\1" * ((top - i * q) // p + 1)
    # a list, which _dense copies once into a tuple: tuple(map(...)) would
    # grow by reallocation, which raises exotic's peak RSS
    return LaurentPoly._dense(-top // 2, list(map(operator.sub, member, bytes(1) + member)))


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
    try:
        t = record.surface(torus)
    except KeyError:
        raise ValueError(f"knot surgery needs a designated square-zero torus: no surface named {torus!r}") from None
    if t.genus != 1 or t.self_int != 0:
        raise ValueError(f"surgery torus must have genus 1 and square 0, got {t}")


_FIBERED = declared_true("knot surgery along a fibered knot (Fintushel-Stern)")
_NON_MONIC = declared_false(
    "knot surgery along a non-fibered knot with non-monic Alexander polynomial"
)


def _surgered_symplectic(symplectic: Declared, knot: Knot) -> Declared:
    # the symplectic flag after surgery along knot, from the flag before it
    if knot.fibered:
        return _FIBERED if symplectic.is_true() else symplectic
    return UNKNOWN if knot.monic else _NON_MONIC


def knot_surgery(
    record: ManifoldRecord,
    knot: Knot,
    torus: str = "fiber",
    sum_target: str | None = None,
) -> ManifoldRecord:
    """Fintushel-Stern knot surgery along a designated square-zero torus.

    (e, sigma) are unchanged; the ledger gains the factor Delta_K(t^2),
    recorded as the knot, unexpanded.  A symplectic record stays symplectic
    iff the knot is fibered (Fintushel-Stern); surgery along a non-fibered
    knot with non-monic Alexander polynomial is declared non-symplectic.
    Simple connectivity becomes unknown, as pi_1 of the torus complement is
    not given.  If sum_target names a marked surface, that surface absorbs
    the knot fiber: its genus grows by the knot genus (the internal sum
    used to build gluing surfaces of prescribed genus).
    """
    _require_surgery_torus(record, torus)
    sw = replace(record.sw, knots=record.sw.knots + (knot,))
    symplectic = _surgered_symplectic(record.symplectic, knot)
    surfaces = record.surfaces
    if sum_target is not None:
        s = record.surface(sum_target)
        surfaces = _surfaces_with(surfaces, sum_target, MarkedSurface(s.genus + knot.genus, s.self_int))
    log = record.log + (f"knot_surgery({knot.descriptor}, torus={torus!r})",)
    return replace(record, simply_connected=UNKNOWN, sw=sw, symplectic=symplectic, surfaces=surfaces,
                   log=log)


class FamilyEntry(Record):
    knot: str
    sw: LaurentPoly
    monic: bool
    symplectic_candidate: bool
    note: str = ""


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
        alexander = knot.alexander
        sw = value * alexander.substitute_square()
        same = classes.setdefault(hash(sw), [])
        indices = next(
            (ix for first, ix in same if value * first.alexander.substitute_square() == sw),
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

