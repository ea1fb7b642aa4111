"""Structural invariants of the surgery operations, and the commutation of
symbolic and numeric evaluation (operate-then-evaluate equals
evaluate-then-operate on n = 2..10)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fourgeo.algebra import Poly, integer_valued, scalar_eval
from fourgeo.calculus import (
    BranchData,
    ManifoldRecord,
    MarkedSurface,
    blow_up,
    branched_cover,
    euler_of_union,
    fiber_sum,
    genus_from_euler,
    resolve_surfaces,
    riemann_hurwitz,
)


def make_manifold(e, sigma) -> ManifoldRecord:
    # a record with the given (e, sigma) and every flag unknown
    return ManifoldRecord(e, sigma)


SAMPLE = range(2, 11)

small_ints = st.integers(min_value=-40, max_value=40)

# integer-coefficient polynomials keep every surgery precondition decidable
int_polys = st.lists(small_ints, max_size=5).map(
    lambda cs: Poly(tuple(Fraction(c) for c in cs))
)

# counts: integer polynomials that are nonnegative on the sample range
count_polys = st.lists(
    st.integers(min_value=0, max_value=9), min_size=1, max_size=4
).map(lambda cs: Poly(tuple(Fraction(c) for c in cs)))


def records():
    return st.tuples(int_polys, int_polys).map(lambda t: make_manifold(*t))


@settings(deadline=None)
@given(records())
def test_chern_relation_holds_identically(m):
    assert m.c1sq == 3 * m.sigma + 2 * m.e
    assert m.c2 == m.e
    assert 4 * m.chi_h == m.sigma + m.e


@settings(deadline=None)
@given(records(), count_polys, count_polys)
def test_blow_up_composes(m, a, b):
    combined = blow_up(m, a + b)
    stepped = blow_up(blow_up(m, a), b)
    assert combined.e == stepped.e
    assert combined.sigma == stepped.sigma


@settings(deadline=None)
@given(records(), records())
def test_signature_additivity_of_fiber_sum(x, y):
    fx = MarkedSurface(2, 5)
    fy = MarkedSurface(2, -5)
    glued = fiber_sum(x, fx, y, fy)
    assert glued.sigma == x.sigma + y.sigma
    assert glued.c1sq == 3 * glued.sigma + 2 * glued.e


@settings(deadline=None)
@given(int_polys, int_polys, int_polys, int_polys, int_polys)
def test_trivial_cover_is_identity(a, b, e_branch, kdotd, dsq):
    # records with chi_h and sigma integral, so the cover contract is met
    m = make_manifold(2 * a, 2 * a + 4 * b)
    cover = branched_cover(m, BranchData(1, 1, e_branch, kdotd, dsq))
    assert cover.e == m.e
    assert cover.c1sq == m.c1sq


@settings(deadline=None)
@given(int_polys, count_polys)
def test_unbranched_cover_multiplies_euler(e_base, degree):
    deg = degree + 1  # keep it positive
    assert riemann_hurwitz(e_base, 0, deg, 1) == deg * e_base
    b = Poly((Fraction(3),))
    assert riemann_hurwitz(e_base, b, deg, 1) == deg * e_base


@settings(deadline=None)
@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=30),
)
def test_resolution_euler_bookkeeping(g1, g2, k):
    s = resolve_surfaces(MarkedSurface(g1, 0), MarkedSurface(g2, 0), k)
    # 2 - 2g' = (2 - 2g1) + (2 - 2g2) - 2k
    assert 2 - 2 * s.genus == (2 - 2 * g1) + (2 - 2 * g2) - 2 * k


# -- symbolic/numeric commutation -------------------------------------------

COMMUTE_CASES = settings(max_examples=1000, deadline=None)


@COMMUTE_CASES
@given(int_polys, int_polys, count_polys, st.sampled_from(list(SAMPLE)))
def test_blow_up_commutes_with_evaluation(e, sigma, k, n):
    symbolic = blow_up(make_manifold(e, sigma), k)
    numeric = blow_up(make_manifold(e(n), sigma(n)), k(n))
    assert scalar_eval(symbolic.e, n) == numeric.e
    assert scalar_eval(symbolic.sigma, n) == numeric.sigma
    assert scalar_eval(symbolic.c1sq, n) == numeric.c1sq


@COMMUTE_CASES
@given(
    st.tuples(int_polys, int_polys, count_polys, count_polys),
    st.sampled_from(list(SAMPLE)),
)
def test_surface_ops_commute_with_evaluation(data, n):
    g1, g2, k, points = data
    s1 = MarkedSurface(g1 * g1, k)  # squares keep the genus nonnegative
    s2 = MarkedSurface(g2 * g2, -k)
    resolved = resolve_surfaces(s1, s2, points + 1)
    s1_n = MarkedSurface((g1 * g1)(n), k(n))
    s2_n = MarkedSurface((g2 * g2)(n), -k(n))
    resolved_n = resolve_surfaces(s1_n, s2_n, points(n) + 1)
    assert scalar_eval(resolved.genus, n) == resolved_n.genus
    assert scalar_eval(resolved.self_int, n) == resolved_n.self_int

    mirror = MarkedSurface(s1.genus, -k)
    mirror_n = MarkedSurface(s1_n.genus, -k(n))
    glued = fiber_sum(make_manifold(g1, g2), s1, make_manifold(g2, g1), mirror)
    glued_n = fiber_sum(
        make_manifold(g1(n), g2(n)), s1_n, make_manifold(g2(n), g1(n)), mirror_n
    )
    assert scalar_eval(glued.e, n) == glued_n.e
    assert scalar_eval(glued.sigma, n) == glued_n.sigma


@COMMUTE_CASES
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    int_polys,
    int_polys,
    int_polys,
    int_polys,
    int_polys,
    st.sampled_from(list(SAMPLE)),
)
def test_branched_cover_commutes_with_evaluation(
    mexp, uexp, e, sigma, e_branch, kdotd, dsq, n
):
    # degree = index^2 * u with u a power of the parameter keeps every
    # divisibility requirement satisfiable by construction
    from fourgeo.algebra import N

    index = N**mexp
    degree = index * index * N**uexp
    base = make_manifold(e, sigma)
    try:
        symbolic = branched_cover(base, BranchData(degree, index, e_branch, kdotd, dsq))
    except ValueError:
        return  # non-integral symbolic sigma/chi: nothing to commute
    numeric = branched_cover(
        make_manifold(e(n), sigma(n)),
        BranchData(degree(n), index(n), e_branch(n), kdotd(n), dsq(n)),
    )
    assert scalar_eval(symbolic.e, n) == numeric.e
    assert scalar_eval(symbolic.c1sq, n) == numeric.c1sq
    assert scalar_eval(symbolic.sigma, n) == numeric.sigma


@COMMUTE_CASES
@given(int_polys, count_polys, st.integers(1, 3), st.integers(1, 2), st.sampled_from(list(SAMPLE)))
def test_riemann_hurwitz_commutes_with_evaluation(e_base, b, dexp, mexp, n):
    from fourgeo.algebra import N

    degree = N ** (dexp + mexp)
    index = N**mexp
    symbolic = riemann_hurwitz(e_base, b, degree, index)
    numeric = riemann_hurwitz(e_base(n), b(n), degree(n), index(n))
    assert scalar_eval(symbolic, n) == numeric


@settings(deadline=None)
@given(st.lists(int_polys, max_size=4), count_polys, st.sampled_from(list(SAMPLE)))
def test_euler_of_union_commutes_with_evaluation(components, points, n):
    symbolic = euler_of_union(components, points)
    numeric = euler_of_union([c(n) for c in components], points(n))
    assert scalar_eval(symbolic, n) == numeric


@settings(deadline=None)
@given(int_polys, st.sampled_from(list(SAMPLE)))
def test_genus_from_euler_commutes_with_evaluation(g, n):
    e = 2 - 2 * (g * g)  # even by construction, genus g^2 >= 0
    symbolic = genus_from_euler(e)
    numeric = genus_from_euler(e(n))
    assert scalar_eval(symbolic, n) == numeric


def test_pipeline_chi_integrality():
    from fourgeo.pipeline import build_cover_block, build_family, build_k3_block

    for report in (build_cover_block(), build_k3_block(), build_family()):
        assert integer_valued(report.manifold.chi_h)
