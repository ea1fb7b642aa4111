"""Acceptance suite: every exit criterion, exact arithmetic, zero tolerance.

Each test prints one [criterion N] PASS/FAIL line (run with -s to stream
them).  Expected values are closed-form or independently derived; nothing is
read back from the code under test.
"""

import random
from fractions import Fraction

from fourgeo.algebra import N, LaurentPoly, Poly, integer_valued, scalar_eval
from fourgeo.calculus import (
    ManifoldRecord,
    MarkedSurface,
    blow_up,
    bmy_report,
    fiber_sum,
    resolve_surfaces,
)
from fourgeo.pipeline import (
    build_cover_block,
    build_family,
    build_k3_block,
    exotic_stream,
    verify_formulas,
)


def make_manifold(e, sigma) -> ManifoldRecord:
    # a record with the given (e, sigma) and every flag unknown
    return ManifoldRecord(e, sigma)


def criterion(number: int, description: str, passed: bool):
    print(f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number}: {description}"


def test_criterion_1_symbolic_family_identity():
    m = build_family().manifold
    ok = (
        m.c2 == N**7 + 12 * N**5 - 12 * N**4 + 6 * N**3 + 22
        and m.c1sq == 3 * N**7 + 20 * N**5 - 24 * N**4 + 6 * N**3 + 2
        and m.chi_h == (N**7 + 8 * N**5) / 3 - 3 * N**4 + N**3 + 2
        and m.sigma == (N**7 - 4 * N**5) / 3 - 2 * N**3 - 14
    )
    criterion(1, "glued family: all four closed-form polynomials, exact", ok)


def test_criterion_2_cover_block():
    report = build_cover_block()
    m = report.manifold
    got = {c.name: c.got for c in report.checks}
    ok = (
        m.c2 == N**7
        and m.c1sq == 3 * N**7 - 4 * N**5
        and got["regular fiber: euler"] == str(-3 * N**5 + 3 * N**4)
        and got["singular fiber: euler"] == str(-2 * N**5 + 3 * N**4)
        and got["covered exceptional sphere: euler"] == str(-2 * N**3 + 4 * N**2)
    )
    criterion(2, "branched-cover block: Chern numbers and fiber data, exact", ok)


def test_criterion_3_gluing_surface():
    s = build_family().surface
    ok = (
        s.genus == 3 * N**5 - 3 * N**4 + N**3 + 1
        and s.self_int == 2 * N**3
        and build_cover_block().intersections == N**3
    )
    criterion(3, "gluing surface: genus, square, and intersection count, exact", ok)


def test_criterion_4_k3_block():
    m = build_k3_block().manifold
    ok = (
        m.c2 == 2 * N**3 + 22
        and m.c1sq == -2 * N**3 + 2
        and m.chi_h == 2
        and m.sigma == -2 * N**3 - 14
    )
    criterion(4, "K3 block: (c2, c1^2, chi_h, sigma), exact", ok)


def test_criterion_5_numeric_tables_with_sigma_warning():
    m4 = build_family(4).manifold
    m3 = build_family(3).manifold
    table_ok = (
        (m4.chi_h, m4.c1sq, m4.c2, m4.sigma) == (7490, 63874, 26006, 3954)
        and (m3.chi_h, m3.c1sq, m3.c2) == (1163, 9641, 4315)
        and m3.sigma == 337
    )
    warned = [
        c
        for c in verify_formulas(n_max=4)
        if c.name == "table n=3: sigma" and "227" in c.note and c.got == "337"
    ]
    criterion(
        5,
        "tables at n=3,4 exact; sigma(3) = 337 with mandatory warning about "
        "the printed 227",
        table_ok and len(warned) == 1,
    )


def test_criterion_6_ratio_convergence():
    symbolic = bmy_report(build_family().manifold)
    ratios = {}
    gaps_positive = True
    for n in range(2, 51):
        report = bmy_report(build_family(n).manifold)
        ratios[n] = report.ratio
        gaps_positive = gaps_positive and report.gap > 0
    increasing = all(ratios[n] < ratios[n + 1] for n in range(3, 50))
    ok = (
        symbolic.ratio == 9
        and increasing
        and ratios[50] > Fraction(899, 100)
        and gaps_positive
    )
    criterion(
        6,
        "limit ratio 9 exact; ratio strictly increasing on 3..50 with "
        "ratio(50) > 8.99; every member strictly below the 9*chi_h line",
        ok,
    )


def test_criterion_7_signature_sign_pattern():
    sigma2 = build_family(2).manifold.sigma
    sigma3 = build_family(3).manifold.sigma
    criterion(7, "sigma = -30 < 0 at n=2 and sigma > 0 at n=3", sigma2 == -30 and sigma3 > 0)


def _drained(n, count):
    # exotic_stream's entries, and for each the indices of its earlier equals
    _, _, stream = exotic_stream(n, count)
    streamed = list(stream)
    return [entry for entry, _ in streamed], [same for _, same in streamed]


def test_criterion_8_knot_surgery_ledgers():
    entries, earlier = _drained(3, 25)
    torus_entries = [e for e in entries if e.symplectic_candidate]
    twist_entries = [e for e in entries if not e.symplectic_candidate]
    torus_values = {e.sw for e in torus_entries}
    ok = (
        len(torus_entries) == 25
        and len(torus_values) == 25
        and all(e.monic for e in torus_entries)
        and len(twist_entries) == 25
        and all(not e.monic for e in twist_entries)
        and not any(earlier)
    )
    criterion(
        8,
        "n=3: 25 torus-knot ledgers pairwise distinct and monic, 25 twist "
        "ledgers non-monic, zero collisions",
        ok,
    )


def test_criterion_9_randomized_property_sweep():
    # Independent of the hypothesis suites: seeded driver, 1000 cases each
    # for the ring laws and for symbolic/numeric commutation at n = 2..10.
    rng = random.Random(1163)

    def rand_poly():
        return Poly(
            tuple(
                Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 6]))
                for _ in range(rng.randint(0, 6))
            )
        )

    def rand_laurent():
        return LaurentPoly(
            {rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(rng.randint(0, 6))}
        )

    ring_ok = True
    for _ in range(1000):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        ring_ok = ring_ok and (a + b) + c == a + (b + c) and a * b == b * a
        ring_ok = ring_ok and a * (b + c) == a * b + a * c
        x, y, z = rand_laurent(), rand_laurent(), rand_laurent()
        ring_ok = ring_ok and (x * y) * z == x * (y * z) and x * y == y * x
        k = rng.randint(-10, 10)
        ring_ok = ring_ok and (a * b)(k) == a(k) * b(k)

    commute_ok = True
    for _ in range(1000):
        n = rng.randint(2, 10)
        e, sigma = rand_poly(), rand_poly()
        k = Poly(tuple(Fraction(rng.randint(0, 8)) for _ in range(rng.randint(1, 4))))
        sym = blow_up(make_manifold(e, sigma), k)
        num = blow_up(make_manifold(e(n), sigma(n)), k(n))
        commute_ok = commute_ok and scalar_eval(sym.c1sq, n) == num.c1sq

        g1, g2 = rng.randint(0, 20), rng.randint(0, 20)
        points = rng.randint(1, 15)
        sym_s = resolve_surfaces(MarkedSurface(g1, k), MarkedSurface(g2, -k), points)
        num_s = resolve_surfaces(
            MarkedSurface(g1, k(n)), MarkedSurface(g2, -k(n)), points
        )
        commute_ok = (
            commute_ok
            and scalar_eval(sym_s.genus, n) == num_s.genus
            and scalar_eval(sym_s.self_int, n) == num_s.self_int
        )

        glued = fiber_sum(
            make_manifold(e, sigma), MarkedSurface(g1, k),
            make_manifold(sigma, e), MarkedSurface(g1, -k),
        )
        glued_n = fiber_sum(
            make_manifold(e(n), sigma(n)), MarkedSurface(g1, k(n)),
            make_manifold(sigma(n), e(n)), MarkedSurface(g1, -k(n)),
        )
        commute_ok = commute_ok and scalar_eval(glued.e, n) == glued_n.e

    criterion(
        9,
        "randomized sweeps: ring laws and symbolic/numeric commutation, "
        "1000 cases each",
        ring_ok and commute_ok,
    )


def test_criterion_10_chi_integrality():
    ok = (
        integer_valued(build_cover_block().manifold.chi_h)
        and integer_valued(build_k3_block().manifold.chi_h)
        and integer_valued(build_family().manifold.chi_h)
    )
    criterion(10, "chi_h integer-valued for all three symbolic blocks", ok)
