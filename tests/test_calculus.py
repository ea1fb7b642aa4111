import re
import time
from fractions import Fraction

import pytest

from fourgeo.algebra import N, at_least
from fourgeo.blocks import cp2_reversed, k3_elliptic, torus4
from fourgeo.calculus import (
    BranchData,
    ManifoldRecord,
    MarkedSurface,
    blow_up,
    bmy_report,
    branched_cover,
    euler_of_union,
    fiber_sum,
    genus_from_euler,
    resolve_surfaces,
    riemann_hurwitz,
    surface_blowup,
)
from fourgeo.pipeline import branch_preset


def make_manifold(e, sigma) -> ManifoldRecord:
    # a record with the given (e, sigma) and every flag unknown
    return ManifoldRecord(e, sigma)


half = Fraction(1, 2)


def test_make_manifold_zero_case():
    m = make_manifold(0, 0)
    assert m.c1sq == 0 and m.chi_h == 0 and m.c2 == 0
    assert m.simply_connected.value is None


def test_make_manifold_k3_numbers():
    m = make_manifold(24, -16)
    assert m.c1sq == 0
    assert m.chi_h == 2


def test_make_manifold_symbolic():
    m = make_manifold(N**7, (N**7 - 4 * N**5) / 3)
    assert m.c1sq == 3 * N**7 - 4 * N**5


def test_blow_up_torus():
    y = blow_up(torus4(), N**4)
    assert y.e == N**4
    assert y.sigma == -(N**4)
    assert y.c1sq == -(N**4)


def test_blow_up_identity_and_negative():
    m = make_manifold(10, 2)
    same = blow_up(m, 0)
    assert same.e == m.e and same.sigma == m.sigma
    with pytest.raises(ValueError):
        blow_up(m, -1)
    with pytest.raises(ValueError):
        blow_up(m, Fraction(1, 2))


def test_blow_up_k3():
    n = blow_up(k3_elliptic(), 2 * N**3 - 2)
    assert n.e == 2 * N**3 + 22
    assert n.sigma == -2 * N**3 - 14
    assert n.c1sq == -2 * N**3 + 2
    assert n.chi_h == 2


def test_surface_blowup():
    section = MarkedSurface(0, -2)
    moved = surface_blowup(section, 2 * N**3 - 2)
    assert moved.genus == 0
    assert moved.self_int == -2 * N**3

    torus = MarkedSurface(1, 0)
    assert surface_blowup(torus, 0) == torus
    assert surface_blowup(torus, N**2).self_int == -(N**2)


def test_branched_cover_numeric_preset():
    base = make_manifold(16, -16)  # blown-up 4-torus at n = 2
    assert base.c1sq == -16
    cover = branched_cover(base, BranchData(8, 2, 0, 64, -64))
    assert cover.e == 128
    assert cover.c1sq == 256  # 8*(-16 + 2*(1/2)*64 + (1/4)*(-64))
    assert cover.sigma == 0
    assert cover.almost_complex


def test_branched_cover_trivial_is_identity():
    m = make_manifold(10, 2)
    cover = branched_cover(m, BranchData(1, 1, 7, 3, -5))
    assert cover.e == m.e
    assert cover.c1sq == m.c1sq


def test_branched_cover_symbolic_preset():
    y = blow_up(torus4(), N**4)
    cover = branched_cover(y, branch_preset(N))
    assert cover.e == N**7
    assert cover.c1sq == 3 * N**7 - 4 * N**5
    assert cover.sigma == (N**7 - 4 * N**5) / 3


def test_branched_cover_inconsistent_data():
    base = make_manifold(16, -16)
    with pytest.raises(ValueError, match="inconsistent branch data"):
        branched_cover(base, BranchData(8, 2, 0, 64, -63))


def test_riemann_hurwitz():
    assert riemann_hurwitz(0, 3 * N**2, N**3, N) == -3 * N**5 + 3 * N**4
    assert riemann_hurwitz(2, 4, N**3, N) == -2 * N**3 + 4 * N**2
    assert riemann_hurwitz(N**2 - 7, 0, 1, 1) == N**2 - 7


@pytest.mark.parametrize("args, message", [
    ((0, 1, 3, 0), "branching index must be a positive integer, got 0"),
    ((0, 1, 0, 1), "cover degree must be a positive integer, got 0"),
    ((0, 1, 2, -1), "branching index must be a positive integer, got -1"),
    ((0, -1, 2, 1), "branch point count must be a nonnegative integer, got -1"),
    ((0, 3 * N**2, N**3, 3 - N), "branching index must be positive for n >= 2, got -n + 3"),
    ((0, N / 2, N**3, N), "branch point count must be integer-valued, got 1/2*n"),
    ((half, 0, 1, 1), "base Euler characteristic must be an integer, got 1/2"),
    ((N / 2, 0, 1, 1), "base Euler characteristic must be integer-valued, got 1/2*n"),
])
def test_riemann_hurwitz_rejects_bad_counts(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        riemann_hurwitz(*args)


def test_euler_of_union():
    sphere_cover = -2 * N**3 + 4 * N**2
    assert euler_of_union([N**2 * sphere_cover, N**2 * 0], N**4) == -2 * N**5 + 3 * N**4
    assert euler_of_union([2, 2], 1) == 3
    assert euler_of_union([-4], 0) == -4


def test_genus_from_euler():
    assert genus_from_euler(-3 * N**5 + 3 * N**4) == 1 + 3 * half * N**5 - 3 * half * N**4
    assert genus_from_euler(2) == 0
    assert genus_from_euler(0) == 1
    assert genus_from_euler(-2) == 2
    with pytest.raises(ValueError):
        genus_from_euler(1)
    with pytest.raises(ValueError):
        genus_from_euler(4)  # genus would be negative
    with pytest.raises(ValueError):
        genus_from_euler(N)  # odd at odd n


def test_resolve_surfaces():
    fiber = MarkedSurface(1 + 3 * half * N**5 - 3 * half * N**4, 0)
    glued = resolve_surfaces(fiber, fiber, N**3)
    assert glued.genus == 3 * N**5 - 3 * N**4 + N**3 + 1
    assert glued.self_int == 2 * N**3

    tori = resolve_surfaces(MarkedSurface(1, 0), MarkedSurface(1, 0), 1)
    assert (tori.genus, tori.self_int) == (2, 2)
    spheres = resolve_surfaces(MarkedSurface(0, 0), MarkedSurface(0, 0), 1)
    assert (spheres.genus, spheres.self_int) == (0, 2)

    with pytest.raises(ValueError, match="at least one intersection"):
        resolve_surfaces(fiber, fiber, 0)


def test_fiber_sum_symbolic():
    x = make_manifold(N**7, (N**7 - 4 * N**5) / 3)
    fx = MarkedSurface(3 * N**5 - 3 * N**4 + N**3 + 1, 2 * N**3)
    y = make_manifold(2 * N**3 + 22, -2 * N**3 - 14)
    fy = MarkedSurface(3 * N**5 - 3 * N**4 + N**3 + 1, -2 * N**3)
    glued = fiber_sum(x, fx, y, fy)
    assert glued.e == N**7 + 12 * N**5 - 12 * N**4 + 6 * N**3 + 22
    assert glued.sigma == (N**7 - 4 * N**5) / 3 - 2 * N**3 - 14
    assert glued.simply_connected.value is None  # no justifications supplied


def test_fiber_sum_numeric_table():
    x = make_manifold(4**7, Fraction(4**7 - 4 * 4**5, 3))
    fx = MarkedSurface(2369, 128)
    y = make_manifold(2 * 64 + 22, -2 * 64 - 14)
    fy = MarkedSurface(2369, -128)
    glued = fiber_sum(x, fx, y, fy)
    assert (glued.c2, glued.c1sq, glued.chi_h) == (26006, 63874, 7490)


def test_fiber_sum_along_spheres():
    a = make_manifold(4, 0)
    b = make_manifold(6, 0)
    glued = fiber_sum(a, MarkedSurface(0, 3), b, MarkedSurface(0, -3))
    assert glued.e == a.e + b.e - 4


def test_fiber_sum_mismatches():
    a = make_manifold(4, 0)
    b = make_manifold(6, 0)
    with pytest.raises(ValueError, match="genus mismatch"):
        fiber_sum(a, MarkedSurface(1, 0), b, MarkedSurface(2, 0))
    with pytest.raises(ValueError, match="do not cancel"):
        fiber_sum(a, MarkedSurface(1, 1), b, MarkedSurface(1, 1))


def test_fiber_sum_declares_simply_connected_with_reasons():
    a = make_manifold(4, 0)
    b = make_manifold(6, 0)
    glued = fiber_sum(
        a, MarkedSurface(1, 0), b, MarkedSurface(1, 0),
        pi1_surjection="surface surjects", complement_trivial="complement trivial",
    )
    assert glued.simply_connected.is_true()
    assert "Seifert-Van Kampen" in glued.simply_connected.reason


def test_bmy_report_symbolic_limit():
    m = make_manifold(
        N**7 + 12 * N**5 - 12 * N**4 + 6 * N**3 + 22,
        (N**7 - 4 * N**5) / 3 - 2 * N**3 - 14,
    )
    report = bmy_report(m)
    assert report.ratio == 9
    assert report.side == "below"
    assert report.asymptotic


def test_bmy_report_numeric():
    m = make_manifold(26006, 3954)
    report = bmy_report(m)
    assert report.ratio == Fraction(63874, 7490)
    assert report.gap == 9 * 7490 - 63874 == 3536
    assert report.side == "below"
    assert not report.asymptotic


def test_bmy_equality_point():
    m = make_manifold(3, 1)  # complex projective plane numbers
    report = bmy_report(m)
    assert report.ratio == 9
    assert report.gap == 0
    assert report.side == "on"


def test_bmy_symbolic_limit_is_zero_when_c1sq_has_lower_degree():
    # chi_h = n^3, c1^2 = n^2: the ratio tends to 0, not to 1/1
    m = make_manifold(12 * N**3 - N**2, N**2 - 8 * N**3)
    assert (m.chi_h, m.c1sq) == (N**3, N**2)
    report = bmy_report(m)
    assert report.ratio == 0
    assert report.side == "below"


def test_bmy_symbolic_rejects_c1sq_of_higher_degree():
    # chi_h = n^2, c1^2 = 3n^3 + 8n^2: no finite limit (was reported as 3, "above")
    m = make_manifold(4 * N**2 - 3 * N**3, 3 * N**3)
    assert (m.chi_h, m.c1sq) == (N**2, 3 * N**3 + 8 * N**2)
    with pytest.raises(ValueError, match="deg c1\\^2 = 3 > deg chi_h = 2"):
        bmy_report(m)


def test_bmy_undefined_for_zero_chi():
    with pytest.raises(ValueError):
        bmy_report(make_manifold(4, -4))


def test_almost_complex_rejects_fractional_chi():
    # reversed-orientation projective plane has chi_h = 1/2
    assert cp2_reversed().chi_h == Fraction(1, 2)
    with pytest.raises(ValueError, match="non-integral chi_h"):
        ManifoldRecord(3, -1, almost_complex=True)


def test_record_log_accumulates():
    m = blow_up(blow_up(torus4(), 1), 2)
    assert m.log[0] == "T4"
    assert len(m.log) == 3


# -- exact sign decisions on symbolic counts and genera ----------------------


def test_count_negative_between_sample_points_is_rejected():
    # n^2 - 24n + 143 is -1 at n = 12 only
    with pytest.raises(ValueError, match="blow-up count must be nonnegative for n >= 2"):
        blow_up(make_manifold(0, 0), (N - 11) * (N - 13))


def test_count_negative_far_out_is_rejected_quickly():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="nonnegative for n >= 2"):
        blow_up(make_manifold(0, 0), (N - 10**9) ** 2 - 1)  # -1 at n = 10^9
    assert time.perf_counter() - start < 1.0


def test_count_with_double_root_far_out_is_accepted_quickly():
    start = time.perf_counter()
    assert blow_up(make_manifold(0, 0), (N - 10**9) ** 2).e == (N - 10**9) ** 2
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("p", [
    ((N - 10**15) ** 2 + 1) ** 8,  # a complex pair next to the axis, eightfold
    (N - 10**40) ** 2 * (N**30 + 1),  # a double root far out, high degree
])
def test_sign_with_repeated_roots_far_out_is_decided_quickly(p):
    start = time.perf_counter()
    assert at_least(p, 0)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("p", [
    ((N - 10**15) ** 2 + 1) ** 8,  # p - 2 squarefree, complex roots clustered at 10^15
    (N - 10**40) ** 2 * (N**30 + 1),  # a squarefree part with a large content
])
def test_sign_below_bound_far_out_is_decided_quickly(p):
    start = time.perf_counter()
    assert not at_least(p, 2)
    assert time.perf_counter() - start < 1.0


def test_count_with_root_inside_the_range_is_accepted():
    # the Newton table at 2 reads 1, 0, 2: the sign needs root isolation
    assert blow_up(make_manifold(0, 0), (N - 3) ** 2).e == (N - 3) ** 2


def test_symbolic_surface_genus_is_checked():
    with pytest.raises(ValueError, match="surface genus must be nonnegative for n >= 2"):
        MarkedSurface(N - 5, 0)
    with pytest.raises(ValueError, match="surface genus must be integer-valued"):
        MarkedSurface(N / 2, 0)
    assert MarkedSurface(N - 2, 0).genus == N - 2


def test_surface_self_intersection_must_be_integral():
    with pytest.raises(ValueError, match="^surface self-intersection must be an integer, got 1/2$"):
        MarkedSurface(1, half)
    with pytest.raises(ValueError, match="^surface self-intersection must be integer-valued"):
        MarkedSurface(1, N / 2)
    # integer-valued on Z although its coefficients are not integers
    assert MarkedSurface(1, N * (N + 1) / 2).self_int == (N**2 + N) / 2


def test_symbolic_genus_from_euler_is_checked():
    with pytest.raises(ValueError, match="exceeds 2 at some n >= 2"):
        genus_from_euler(2 * N - 8)  # genus 5 - n
    assert genus_from_euler(6 - 2 * N) == N - 2
