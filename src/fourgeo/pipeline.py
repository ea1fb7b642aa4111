"""End-to-end builders for the positive-signature family, with self-checks.

The construction chains four stages, each runnable symbolically (invariants
as polynomials in n) or numerically (n a concrete integer >= 2):

  cover block      blow up n^4 lattice points of the 4-torus, then take the
                   n^3-fold cover branched with index n over the four
                   disjoint families of tori (the named branch preset);
                   yields c2 = n^7 and c1^2 = 3n^7 - 4n^5.
  gluing surface   resolve the n^3 intersections of two transverse regular
                   fibers of the cover block: genus 3n^5 - 3n^4 + n^3 + 1,
                   square 2n^3.
  K3 block         blow up 2n^3 - 2 points on a section of E(2), then do
                   fibered knot surgery so a surface of the gluing genus and
                   square -2n^3 appears: c2 = 2n^3 + 22, c1^2 = -2n^3 + 2.
  glued family     the fiber sum of the two blocks along those surfaces:
                   c2 = n^7 + 12n^5 - 12n^4 + 6n^3 + 22 and
                   c1^2 = 3n^7 + 20n^5 - 24n^4 + 6n^3 + 2, so the ratio
                   c1^2/chi_h climbs to 9.

Every stage compares named checks against the closed-form targets when it
is built and raises on drift; its report formats those checks only when
they are read, so a passing check costs no string.  build_family(n) builds
each stage once and its report carries the cover-block and K3-block reports
it was built from, so nothing downstream rebuilds a stage.
verify_formulas() reads the stage checks of one symbolic family report and
the manifold of one numeric report per n, without raising; its claims about
every n are decided exactly, not sampled.  The numeric n = 3, 4 table
flags the published sigma = 227 for n = 3 as a warning, never an error: the
table's own chi_h/c2/c1^2 values and the closed form both give 337.
"""

from __future__ import annotations

from typing import Iterator

from . import blocks
from .algebra import (
    N,
    LaurentPoly,
    Poly,
    Scalar,
    at_least,
    format_quotient,
    integer_valued,
    quotient,
    scalar_eval,
)
from .calculus import (
    BranchData,
    ManifoldRecord,
    MarkedSurface,
    blow_up,
    bmy_report,
    branched_cover,
    declared_true,
    euler_of_union,
    fiber_sum,
    genus_from_euler,
    parameter,
    resolve_surfaces,
    riemann_hurwitz,
    surface_blowup,
)
from .knots import (
    ALEXANDER_GENUS_CAP,
    FamilyEntry,
    Knot,
    SWLedger,
    distinguish_family,
    family_stream,
    find_fibered_knot_of_genus,
    knot_surgery,
    nonfibered_nonmonic_family,
    torus_knot,
    FamilyReport,
)
from .record import Record, cached, replace


class CheckResult(Record):
    name: str
    expected: str
    got: str
    passed: bool
    note: str = ""


def _compare(name: str, expected, got, note: str = "") -> tuple:
    # a check decided now and formatted by _result when read: (name,
    # expected, got, passed, note)
    return name, expected, got, expected == got, note


def _result(name: str, expected, got, passed: bool, note: str) -> CheckResult:
    return CheckResult(name, str(expected), str(got), passed, note)


def _check(name: str, expected, got, note: str = "") -> CheckResult:
    return _result(*_compare(name, expected, got, note))


class PipelineReport(Record):
    """A stage's manifold and compared checks.  The cover block adds its
    fiber intersection count, and the family the gluing surface and the two
    block reports it was built from."""

    manifold: ManifoldRecord
    compared: tuple[tuple, ...] = ()  # from _compare
    intersections: Scalar | None = None
    surface: MarkedSurface | None = None
    cover: PipelineReport | None = None
    k3: PipelineReport | None = None

    @cached
    def checks(self) -> tuple[CheckResult, ...]:
        """The stage's checks, formatted on first read."""
        return tuple([_result(*c) for c in self.compared])


def _assert_checks(compared: list[tuple]) -> None:
    bad = [_result(*c) for c in compared if not c[3]]
    if bad:
        lines = ", ".join(f"{c.name}: expected {c.expected}, got {c.got}" for c in bad)
        raise RuntimeError(f"construction drift: {lines}")


def branch_preset(v: Scalar) -> BranchData:
    """Branch data of the four disjoint torus families through the n^4
    blown-up lattice points: degree n^3, index n, e_branch 0, K.D = 4n^4,
    D^2 = -4n^4 (4n^2 proper transforms, each through n^2 points)."""
    return BranchData(
        degree=v**3, index=v, e_branch=0, k_dot_d=4 * v**4, d_sq=-(4 * v**4)
    )


def build_cover_block(n: int | None = None) -> PipelineReport:
    """Branched-cover block over the blown-up 4-torus; its checks hold the
    Euler characteristics and genus of the fibration pieces."""
    v = parameter(n)
    blown = blow_up(blocks.torus4(), v**4)
    cover = branched_cover(blown, branch_preset(v))

    regular_euler = riemann_hurwitz(0, 3 * v**2, v**3, v)
    regular_genus = genus_from_euler(regular_euler)
    sphere_cover_euler = riemann_hurwitz(2, 4, v**3, v)
    # Singular fiber: n^2 covered exceptional spheres plus n^2 torus
    # transforms, glued at n^4 points.
    singular_euler = euler_of_union([v**2 * sphere_cover_euler, v**2 * 0], v**4)

    checks = [
        _compare("cover block: c2", v**7, cover.c2),
        _compare("cover block: c1^2", 3 * v**7 - 4 * v**5, cover.c1sq),
        _compare("cover block: sigma", quotient(v**7 - 4 * v**5, 3), cover.sigma),
        _compare("cover block: chi_h", quotient(v**7 - v**5, 3), cover.chi_h),
        _compare("regular fiber: euler", -3 * v**5 + 3 * v**4, regular_euler),
        _compare("regular fiber: genus", 1 + quotient(3 * (v**5 - v**4), 2), regular_genus),
        _compare("singular fiber: euler", -2 * v**5 + 3 * v**4, singular_euler),
        _compare("covered exceptional sphere: euler", -2 * v**3 + 4 * v**2, sphere_cover_euler),
    ]
    _assert_checks(checks)

    return PipelineReport(
        manifold=cover.with_surface("fiber", MarkedSurface(regular_genus, 0)),
        compared=tuple(checks),
        intersections=v**3,
    )


def gluing_genus(v: Scalar) -> Scalar:
    return 3 * v**5 - 3 * v**4 + v**3 + 1


def build_k3_block(n: int | None = None) -> PipelineReport:
    """Blown-up, knot-surgered K3 block carrying the mirror gluing surface.

    Blowing up 2n^3 - 2 points on a section leaves a sphere of square
    -2n^3; knot surgery along a regular fiber with a fibered knot of the
    gluing genus turns that sphere into a surface of genus 3n^5-3n^4+n^3+1
    and square -2n^3, while (e, sigma) stay at (2n^3+22, -2n^3-14).
    """
    v = parameter(n)
    k = 2 * v**3 - 2
    record = blow_up(blocks.k3_elliptic(), k)
    section = surface_blowup(record.surface("section"), k)
    record = record.with_surface("section", section)

    knot = find_fibered_knot_of_genus(gluing_genus(v))
    record = knot_surgery(record, knot, torus="fiber", sum_target="section")
    record = replace(
        record,
        simply_connected=declared_true(
            "K3 blow-up is simply connected and knot surgery preserves pi_1"
        ),
    )

    glued = record.surface("section")
    checks = [
        _compare("K3 block: c2", 2 * v**3 + 22, record.c2),
        _compare("K3 block: c1^2", -2 * v**3 + 2, record.c1sq),
        _compare("K3 block: chi_h", 2, record.chi_h),
        _compare("K3 block: sigma", -2 * v**3 - 14, record.sigma),
        _compare("K3 block surface: genus", gluing_genus(v), glued.genus),
        _compare("K3 block surface: self-intersection", -2 * v**3, glued.self_int),
    ]
    _assert_checks(checks)
    return PipelineReport(manifold=record, compared=tuple(checks))


def family_targets(v: Scalar) -> dict[str, Scalar]:
    """Closed-form invariants of the glued family."""
    return {
        "c2": v**7 + 12 * v**5 - 12 * v**4 + 6 * v**3 + 22,
        "c1sq": 3 * v**7 + 20 * v**5 - 24 * v**4 + 6 * v**3 + 2,
        "chi_h": quotient(v**7 + 8 * v**5, 3) - 3 * v**4 + v**3 + 2,
        "sigma": quotient(v**7 - 4 * v**5, 3) - 2 * v**3 - 14,
    }


def build_family(n: int | None = None) -> PipelineReport:
    """The glued family: cover block fiber-summed with the K3 block along
    surfaces of genus 3n^5 - 3n^4 + n^3 + 1 and squares +-2n^3.

    Each stage is built once.  The gluing surface resolves the n^3
    intersections of two transverse regular fibers of the cover block.  The
    report carries that surface and the two block reports (`cover`, `k3`),
    each with its own checks; the family's checks are its five."""
    v = parameter(n)
    cover = build_cover_block(n)
    fiber = cover.manifold.surface("fiber")
    gluing = resolve_surfaces(fiber, fiber, cover.intersections)
    _assert_checks([
        _compare("gluing surface: genus", gluing_genus(v), gluing.genus),
        _compare("gluing surface: self-intersection", 2 * v**3, gluing.self_int),
    ])
    k3 = build_k3_block(n)

    glued = fiber_sum(
        cover.manifold,
        gluing,
        k3.manifold,
        k3.manifold.surface("section"),
        pi1_surjection="gluing surface carries pi_1 onto the cover block "
        "(it is a resolved union of fibers of both fibrations)",
        complement_trivial="complement of the glued surface in the K3 block "
        "is simply connected",
    )

    targets = family_targets(v)
    checks = [
        _compare("glued family: c2", targets["c2"], glued.c2),
        _compare("glued family: c1^2", targets["c1sq"], glued.c1sq),
        _compare("glued family: chi_h", targets["chi_h"], glued.chi_h),
        _compare("glued family: sigma", targets["sigma"], glued.sigma),
        _compare(
            "fiber sum consistency: c1^2 gain is 8(g-1)",
            8 * (gluing.genus - 1),
            glued.c1sq - cover.manifold.c1sq - k3.manifold.c1sq,
        ),
    ]
    _assert_checks(checks)
    return PipelineReport(
        manifold=glued,
        compared=tuple(checks),
        surface=gluing,
        cover=cover,
        k3=k3,
    )


_SIGMA_TABLE_NOTE = (
    "warning: the published table prints sigma = 227 for n = 3, which is "
    "inconsistent with its own chi_h/c2/c1^2 values; (c1^2 - 2*c2)/3 and the "
    "closed-form sigma both give 337"
)


def verify_formulas(n_max: int = 50) -> list[CheckResult]:
    """Re-derive every closed-form statement about the construction and
    report each comparison; failures are collected, never raised.

    The symbolic family is built once and every stage check is read from its
    report (the block checks appear twice: once per block, once more just
    before the family's own checks); its claims about every n are decided
    on those polynomials by at_least.  Each member n = 2..n_max (n_max >= 4)
    is built once, for the cross-check, the table, sigma(2) and ratio(50);
    only its manifold is read, so its stage checks are never formatted."""
    if n_max < 4:
        raise ValueError(
            f"n_max must be at least 4, got {n_max} (the checks read the n = 3, 4 table)"
        )
    try:
        family = build_family()
    except Exception as err:  # a drifting build is a reported failure
        return [CheckResult("glued family build", "no error", f"{type(err).__name__}: {err}", False)]
    cover, k3, man = family.cover, family.k3, family.manifold

    # Symbolic identities (the stage builders re-check their own formulas).
    checks = list(cover.checks)
    checks.append(
        _check(
            "gluing surface: genus and square",
            f"{gluing_genus(N)} / {2 * N**3}",
            f"{family.surface.genus} / {family.surface.self_int}",
        )
    )
    checks.append(_check("fiber intersections", N**3, cover.intersections))
    checks.extend(k3.checks)
    checks.extend(cover.checks + k3.checks + family.checks)
    checks.append(
        _check("chi_h integer-valued: cover block", True, integer_valued(cover.manifold.chi_h))
    )
    checks.append(_check("chi_h integer-valued: glued family", True, integer_valued(man.chi_h)))

    try:
        limit = bmy_report(man)
        ratio, side = limit.ratio, limit.side
    except ValueError as err:  # chi_h = 0, or c1^2 outgrows chi_h
        ratio = side = str(err)
    checks.append(_check("limit of c1^2/chi_h", 9, ratio))
    checks.append(
        CheckResult("asymptotic side of the 9*chi_h line", "below", side, side == "below")
    )

    members = {n: build_family(n).manifold for n in range(2, n_max + 1)}

    # Numeric tables for the two smallest positive-signature members.
    table = {
        3: {"chi_h": 1163, "c1sq": 9641, "c2": 4315, "sigma": 337},
        4: {"chi_h": 7490, "c1sq": 63874, "c2": 26006, "sigma": 3954},
    }
    for n, row in table.items():
        got = members[n].invariants()
        for key, expected in row.items():
            note = _SIGMA_TABLE_NOTE if (n, key) == (3, "sigma") else ""
            checks.append(_check(f"table n={n}: {key}", expected, got[key], note))

    agree = all(
        {key: scalar_eval(p, n) for key, p in man.invariants().items()} == built.invariants()
        for n, built in members.items()
    )
    checks.append(_check(f"numeric equals symbolic, n = 2..{n_max}", True, agree))

    # Claims about every n: at_least(p, 1) is p(n) >= 1 (on integer values,
    # > 0) for every integer n >= 2, and p.shift(1) starts it at n = 3.
    # D(n) > 0 and chi_h > 0 give c1^2/chi_h at n + 1 above its value at n.
    # A drifted family can make one of them constant, a number, so each is
    # taken as a Poly.
    sigma, chi_h, c1sq = (
        x if isinstance(x, Poly) else Poly.const(x) for x in (man.sigma, man.chi_h, man.c1sq)
    )
    climb = c1sq.shift(1) * chi_h - c1sq * chi_h.shift(1)  # D(n)
    checks += [
        _check("chi_h >= 1 for every n >= 2", True, at_least(chi_h, 1)),
        _check("sigma at n=2", -30, members[2].sigma),
        _check("sigma > 0 for every n >= 3", True, at_least(sigma.shift(1), 1)),
        _check("below the 9*chi_h line for every n >= 2", True, at_least(9 * chi_h - c1sq, 1)),
        _check("ratio strictly increasing for every n >= 3", True,
               at_least(chi_h, 1) and at_least(climb.shift(1), 1)),
    ]
    if n_max >= 50:
        try:
            r50 = bmy_report(members[50])
            num, den = r50.ratio_num, r50.ratio_den
            got, passed = format_quotient(num, den, 6), 100 * num > 899 * den
        except ValueError as err:  # chi_h(50) = 0
            got, passed = str(err), False
        checks.append(CheckResult("ratio at n=50 exceeds 8.99", "> 8.99", got, passed))
    return checks


class ExoticReport(Record):
    """Distinct smooth structures on one member of the glued family."""

    base: ManifoldRecord
    family: FamilyReport


def exotic_stream(
    n: int, count: int
) -> tuple[ManifoldRecord, list[Knot], Iterator[tuple[FamilyEntry, tuple[int, ...]]]]:
    """The base and knots of exotic_family(n, count), and family_stream
    over them: its entries one at a time, each with the indices of the
    earlier entries whose ledger equals its own.  Every argument is checked
    before this returns, and the stream raises nothing on this base."""
    base, knots = _exotic_base_and_knots(n, count)
    return base, knots, family_stream(base, knots, torus="surviving torus")


def exotic_family(n: int, count: int) -> ExoticReport:
    """Surger the n-th glued manifold along `count` torus knots and `count`
    twist knots; all 2*count ledgers must be pairwise distinct, the torus
    half monic (symplectic candidates), the twist half non-monic.

    The surgeries run along the square-zero torus in the K3-block complement
    that the construction never touches (assumed intact through it); the
    fresh ledger relative to that class is declared nonzero, as the base is
    symplectic, and normalized to 1.
    """
    base, knots = _exotic_base_and_knots(n, count)
    return ExoticReport(base, distinguish_family(base, knots, torus="surviving torus"))


def _exotic_base_and_knots(n: int, count: int) -> tuple[ManifoldRecord, list[Knot]]:
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count}")
    if count > ALEXANDER_GENUS_CAP:
        # T(2, 2*count+1) has genus count; above the cap its ledger stays
        # factored and cannot be compared
        raise ValueError(
            f"count must be at most ALEXANDER_GENUS_CAP = {ALEXANDER_GENUS_CAP}, got {count}"
        )
    base = replace(build_family(n).manifold, sw=SWLedger(LaurentPoly.one()))
    base = base.with_surface("surviving torus", MarkedSurface(1, 0))
    knots = [torus_knot(2, 2 * k + 1) for k in range(1, count + 1)]
    knots += nonfibered_nonmonic_family(count)
    return base, knots
