import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourgeo import knots
from fourgeo.algebra import N, LaurentPoly
from fourgeo.blocks import k3_elliptic
from fourgeo.calculus import MarkedSurface, blow_up, declared_false, surface_blowup
from fourgeo.knots import (
    ALEXANDER_GENUS_CAP,
    Knot,
    SWLedger,
    distinguish_family,
    family_stream,
    find_fibered_knot_of_genus,
    knot_surgery,
    nonfibered_nonmonic_family,
    torus_knot,
    torus_knot_alexander,
    twist_knot,
    unknot,
)
from fourgeo.record import replace

from test_algebra import is_monic_symmetric


def test_trefoil():
    k = torus_knot(2, 3)
    assert k.genus == 1
    assert k.alexander == LaurentPoly({1: 1, 0: -1, -1: 1})
    assert k.fibered


def test_torus_knot_genus():
    assert torus_knot(2, 7).genus == 3
    assert torus_knot(3, 4).genus == 3
    assert torus_knot(2, 115).genus == 57  # gluing genus at n = 2


def test_torus_knot_rejects_non_knots():
    with pytest.raises(ValueError, match="not a knot"):
        torus_knot(2, 4)
    with pytest.raises(ValueError):
        torus_knot(1, 5)


def test_torus_knot_alexander_against_cyclotomic_oracle():
    # oracle: D(t) * (t^p - 1)(t^q - 1) == (t^{pq} - 1)(t - 1), recentered
    for p, q in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]:
        genus = (p - 1) * (q - 1) // 2
        delta = torus_knot_alexander(p, q)
        lhs = delta * LaurentPoly({p + q + genus: 1, q + genus: -1, p + genus: -1, genus: 1})
        assert lhs == LaurentPoly({p * q + 1: 1, p * q: -1, 1: -1, 0: 1})


def test_division_by_t_power_minus_1_is_exact_or_raises():
    # (t^2 - 1)(t^3 + 2t - 5) = t^5 + t^3 - 5t^2 - 2t + 5
    assert knots._divide_by_t_power_minus_1([5, -2, -5, 1, 0, 1], 2) == [-5, 2, 0, 1]
    assert knots._divide_by_t_power_minus_1([0, 0, 0], 2) == [0]
    with pytest.raises(ValueError, match="not divisible"):
        knots._divide_by_t_power_minus_1([1, 0, 1], 2)  # t^2 + 1
    with pytest.raises(ValueError, match="not divisible"):
        knots._divide_by_t_power_minus_1([-1, 1, 1], 2)  # t^2 + t - 1: remainder t
    for short in ([], [-1], [-1, 1]):
        with pytest.raises(ValueError, match="not divisible"):
            knots._divide_by_t_power_minus_1(short, 2)


def test_torus_knot_alexander_is_symmetric_in_its_indices():
    for p in range(2, 31):
        for q in range(p + 1, 31):
            if math.gcd(p, q) == 1:
                assert torus_knot_alexander(p, q) == torus_knot_alexander(q, p), (p, q)


def test_alexander_invariants_catalog():
    catalog = [torus_knot(2, q) for q in (3, 5, 7, 115)]
    catalog += [torus_knot(3, q) for q in (4, 5)]
    catalog += nonfibered_nonmonic_family(5)
    catalog.append(unknot())
    for k in catalog:
        assert sum(k.alexander.coefficients) in (1, -1)  # Delta(1)
        assert k.alexander.is_symmetric()
        assert k.monic == is_monic_symmetric(k.alexander)
        if k.fibered:
            assert k.monic


def test_torus_knot_span_is_twice_genus():
    for p, q in [(2, 3), (2, 9), (3, 5), (4, 7)]:
        k = torus_knot(p, q)
        assert len(k.alexander.coefficients) - 1 == 2 * k.genus
        assert len(k.alexander.substitute_square().coefficients) - 1 == 4 * k.genus


def test_find_fibered_knot_of_genus():
    assert find_fibered_knot_of_genus(1).descriptor == "torus(2,3)"
    assert find_fibered_knot_of_genus(57).descriptor == "torus(2,115)"
    k0 = find_fibered_knot_of_genus(0)
    assert k0.descriptor == "unknot"
    assert k0.alexander == LaurentPoly.one()
    with pytest.raises(ValueError):
        find_fibered_knot_of_genus(-1)


def test_find_fibered_knot_defers_large_and_symbolic():
    big = find_fibered_knot_of_genus(ALEXANDER_GENUS_CAP + 1)
    assert big.descriptor == f"torus(2,{2 * ALEXANDER_GENUS_CAP + 3})"
    assert big.genus == ALEXANDER_GENUS_CAP + 1 and big.fibered
    assert "alexander" not in vars(big)  # built on first read only
    symbolic = find_fibered_knot_of_genus(3 * N**5 - 3 * N**4 + N**3 + 1)
    assert symbolic.genus == 3 * N**5 - 3 * N**4 + N**3 + 1
    assert symbolic.fibered
    with pytest.raises(ValueError, match="symbolic genus"):
        symbolic.alexander


def test_find_fibered_knot_checks_symbolic_genus():
    with pytest.raises(ValueError, match="integer-valued"):
        find_fibered_knot_of_genus(N / 2)
    with pytest.raises(ValueError, match="nonnegative"):
        find_fibered_knot_of_genus(N - 5)
    with pytest.raises(ValueError, match="nonnegative"):
        find_fibered_knot_of_genus(Fraction(1, 2))


def test_torus_knot_polynomial_validated_when_materialized(monkeypatch):
    # torus_knot defers its polynomial; whatever is built on first read
    # goes through every check a given polynomial does.
    bad = {
        "cannot be zero": LaurentPoly(()),
        "D\\(t\\) = D\\(1/t\\)": LaurentPoly({1: 1, 0: -1}),
        "D\\(1\\) = \\+-1": LaurentPoly({1: 1, 0: 1, -1: 1}),
        "monic": LaurentPoly({1: 2, 0: -3, -1: 2}),
    }
    for message, poly in bad.items():
        monkeypatch.setattr(knots, "torus_knot_alexander", lambda p, q, poly=poly: poly)
        knot = torus_knot(2, 7)
        with pytest.raises(ValueError, match=message):
            knot.alexander


def test_twist_family():
    family = nonfibered_nonmonic_family(3)
    assert [k.descriptor for k in family] == ["twist(2)", "twist(3)", "twist(4)"]
    assert family[0].alexander == LaurentPoly({1: 2, 0: -5, -1: 2})
    assert family[1].alexander == LaurentPoly({1: 3, 0: -7, -1: 3})
    assert len({k.alexander for k in family}) == 3
    for k in family:
        assert not k.fibered
        assert not is_monic_symmetric(k.alexander)
        assert not k.monic
    assert len(nonfibered_nonmonic_family(1)) == 1


def test_knot_validation():
    with pytest.raises(ValueError, match="Alexander"):
        Knot("bad", 1, LaurentPoly({1: 1, 0: -1}), fibered=False)
    with pytest.raises(ValueError, match="monic"):
        Knot("bad", 1, LaurentPoly({1: 2, 0: -3, -1: 2}), fibered=True)


def test_knot_surgery_unknot_is_identity():
    base = k3_elliptic()
    after = knot_surgery(base, unknot())
    assert after.e == base.e and after.sigma == base.sigma
    assert after.sw.expand() == base.sw.expand() == (LaurentPoly.one(), ())


def test_knot_surgery_trefoil_ledger():
    after = knot_surgery(k3_elliptic(), torus_knot(2, 3))
    assert after.sw.expand() == (LaurentPoly({2: 1, 0: -1, -2: 1}), ())
    assert after.symplectic.is_true()


def test_knot_surgery_preserves_numbers():
    base = k3_elliptic()
    for knot in (torus_knot(2, 5), twist_knot(3), unknot()):
        after = knot_surgery(base, knot)
        assert after.e == base.e
        assert after.sigma == base.sigma
        assert after.c1sq == base.c1sq
        assert after.chi_h == base.chi_h


def test_knot_surgery_nonfibered_kills_symplectic():
    after = knot_surgery(k3_elliptic(), twist_knot(2))
    assert after.symplectic.value is False


def test_knot_surgery_requirements():
    bare = k3_elliptic()
    no_ledger = bare.__class__(bare.e, bare.sigma, surfaces=bare.surfaces)
    with pytest.raises(ValueError, match="ledger"):
        knot_surgery(no_ledger, unknot())
    no_torus = bare.__class__(bare.e, bare.sigma, sw=bare.sw)
    with pytest.raises(ValueError, match="torus"):
        knot_surgery(no_torus, unknot())
    bad_torus = bare.with_surface("fiber", MarkedSurface(2, 0))
    with pytest.raises(ValueError, match="genus 1"):
        knot_surgery(bad_torus, unknot())


def test_knot_surgery_sum_target_gains_genus():
    # blown-up K3 with its section pushed to square -2n^3, then surgery
    # with the gluing-genus knot at n = 2 (genus 57)
    record = blow_up(k3_elliptic(), 2 * 8 - 2)
    record = record.with_surface("section", surface_blowup(record.surface("section"), 14))
    after = knot_surgery(record, torus_knot(2, 115), sum_target="section")
    glued = after.surface("section")
    assert glued.genus == 57
    assert glued.self_int == -16


def test_knot_surgery_with_deferred_polynomial():
    symbolic_knot = find_fibered_knot_of_genus(3 * N**5 - 3 * N**4 + N**3 + 1)
    after = knot_surgery(k3_elliptic(), symbolic_knot)
    assert after.sw.value == LaurentPoly.one()
    assert after.sw.knots == (symbolic_knot,)
    assert str(after.sw) == "1 * Delta[torus(2, 2*(3*n^5 - 3*n^4 + n^3 + 1)+1)](t^2)"
    assert after.sw.expand() == (LaurentPoly.one(), (symbolic_knot,))
    with pytest.raises(ValueError, match="unexpanded"):
        distinguish_family(k3_elliptic(), [symbolic_knot])
    assert after.symplectic.is_true()


def test_distinguish_family_torus_knots():
    base = k3_elliptic()
    report = distinguish_family(base, [torus_knot(2, 2 * k + 1) for k in range(1, 11)])
    assert report.pairwise_distinct
    assert len(report.entries) == 10
    assert all(e.monic and e.symplectic_candidate for e in report.entries)


def test_distinguish_family_flags_trivial_and_partitions():
    base = k3_elliptic()
    report = distinguish_family(base, [unknot(), torus_knot(2, 3), twist_knot(2)])
    assert report.entries[0].note == "trivial Alexander polynomial, no exotic pair"
    assert [e.symplectic_candidate for e in report.entries] == [True, True, False]
    assert len(report.non_symplectic()) == 1
    assert report.pairwise_distinct


def test_distinguish_family_on_non_symplectic_base_has_no_symplectic_candidate():
    base = replace(k3_elliptic(), symplectic=declared_false("not symplectic, for the test"))
    report = distinguish_family(base, [torus_knot(2, 3)])
    assert not report.entries[0].symplectic_candidate
    assert report.symplectic() == []


def test_distinguish_family_detects_collisions():
    base = k3_elliptic()
    report = distinguish_family(base, [torus_knot(2, 3), torus_knot(2, 3)])
    assert not report.pairwise_distinct
    assert report.collisions == (("torus(2,3)", "torus(2,3)"),)


def test_distinguish_family_lists_collisions_in_index_order():
    t23, t25 = torus_knot(2, 3), torus_knot(2, 5)
    family = [
        t23,
        t25,
        Knot("copy-a", 1, t23.alexander, fibered=True),
        Knot("copy-b", 2, t25.alexander, fibered=True),
        Knot("copy-c", 1, t23.alexander, fibered=True),
    ]
    report = distinguish_family(k3_elliptic(), family)
    assert not report.pairwise_distinct
    # pairs (0, 2), (0, 4), (1, 3), (2, 4): lexicographic in the indices
    assert report.collisions == (
        ("torus(2,3)", "copy-a"),
        ("torus(2,3)", "copy-c"),
        ("torus(2,5)", "copy-b"),
        ("copy-a", "copy-c"),
    )


def test_torus_knot_family_distinct_up_to_100():
    seen = set()
    for k in range(1, 101):
        delta = torus_knot(2, 2 * k + 1).alexander.substitute_square()
        assert delta not in seen
        seen.add(delta)


def test_ledger_string_shows_deferred():
    big = find_fibered_knot_of_genus(ALEXANDER_GENUS_CAP + 1)
    ledger = SWLedger(LaurentPoly.one(), knots=(big,))
    assert str(ledger) == f"1 * Delta[torus(2,{2 * ALEXANDER_GENUS_CAP + 3})](t^2)"
    mixed = SWLedger(LaurentPoly.one(), knots=(torus_knot(2, 3), big, torus_knot(2, 5)))
    assert str(mixed) == (
        "t^6 - 2*t^4 + 3*t^2 - 3 + 3*t^-2 - 2*t^-4 + t^-6"
        f" * Delta[torus(2,{2 * ALEXANDER_GENUS_CAP + 3})](t^2)"
    )
    at_cap = SWLedger(LaurentPoly.one(), knots=(find_fibered_knot_of_genus(ALEXANDER_GENUS_CAP),))
    value, factored = at_cap.expand()
    assert factored == () and len(value.coefficients) - 1 == 4 * ALEXANDER_GENUS_CAP
    assert str(at_cap) == str(value)


def _surgered_entry(base, knot, torus="fiber"):
    # one FamilyEntry as knot_surgery followed by SWLedger.expand gives it
    surgered = knot_surgery(base, knot, torus=torus)
    sw, factored = surgered.sw.expand()
    assert factored == ()
    note = "trivial Alexander polynomial, no exotic pair" if knot.alexander == LaurentPoly.one() else ""
    return (knot.descriptor, sw, knot.monic, surgered.symplectic.is_true(), note)


_small_knots = st.one_of(
    st.tuples(st.integers(2, 6), st.integers(2, 15))
    .filter(lambda pq: math.gcd(*pq) == 1)
    .map(lambda pq: torus_knot(*pq)),
    st.integers(2, 9).map(twist_knot),
    st.just(unknot()),
)


@st.composite
def _families(draw):
    family = []
    for i in range(draw(st.integers(0, 12))):
        knot = draw(_small_knots)
        if family and draw(st.booleans()):
            # a copy of an earlier knot under a new name; a monic copy is
            # declared fibered or not, a non-monic one cannot be fibered
            other = draw(st.sampled_from(family))
            fibered = other.monic and draw(st.booleans())
            knot = Knot(f"copy-{i}", other.genus, other.alexander, fibered)
        family.append(knot)
    return family


_bases = [
    k3_elliptic(),
    replace(k3_elliptic(), symplectic=declared_false("not symplectic, for the test")),
    replace(k3_elliptic(), sw=SWLedger(LaurentPoly.one(), (torus_knot(2, 3), twist_knot(2)))),
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_bases), _families())
def test_distinguish_family_matches_knot_surgery_one_knot_at_a_time(base, family):
    report = distinguish_family(base, family)
    assert isinstance(report, knots.FamilyReport)
    assert all(isinstance(e, knots.FamilyEntry) for e in report.entries)
    got = [(e.knot, e.sw, e.monic, e.symplectic_candidate, e.note) for e in report.entries]
    assert got == [_surgered_entry(base, knot) for knot in family]
    ledgers = [e.sw for e in report.entries]
    assert report.collisions == tuple(
        (report.entries[i].knot, report.entries[j].knot)
        for i in range(len(ledgers))
        for j in range(i + 1, len(ledgers))
        if ledgers[i] == ledgers[j]
    )


# a base whose ledger is 0: every surgered ledger is then 0, and equal
_ZERO_BASE = replace(k3_elliptic(), sw=SWLedger(LaurentPoly({})))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_bases + [_ZERO_BASE]), _families())
def test_family_stream_drains_to_distinguish_family(base, family):
    streamed = list(family_stream(base, family))
    report = distinguish_family(base, family)
    assert tuple(entry for entry, _ in streamed) == report.entries
    ledgers = [e.sw for e in report.entries]
    for j, (_, earlier) in enumerate(streamed):
        # every earlier entry with an equal ledger, in index order
        assert earlier == tuple(i for i in range(j) if ledgers[i] == ledgers[j])
    pairs = sorted((i, j) for j, (_, earlier) in enumerate(streamed) for i in earlier)
    assert report.collisions == tuple(
        (report.entries[i].knot, report.entries[j].knot) for i, j in pairs
    )


def test_family_stream_decides_equal_hashes_exactly(monkeypatch):
    # with every ledger hashing alike, each hash match is a comparison
    monkeypatch.setattr(LaurentPoly, "__hash__", lambda self: 0)
    t23, t25 = torus_knot(2, 3), torus_knot(2, 5)
    family = [t23, twist_knot(2), t25, Knot("copy", 1, t23.alexander, True), twist_knot(2), t23]
    earlier = [same for _, same in family_stream(k3_elliptic(), family)]
    assert earlier == [(), (), (), (0,), (1,), (0, 3)]


def test_family_stream_keeps_no_ledger_it_has_yielded():
    family = [torus_knot(2, 2 * k + 1) for k in range(1, 30)] + nonfibered_nonmonic_family(5)
    alive = []
    for entry, _ in family_stream(k3_elliptic(), family):
        alive = [ref for ref in alive if ref() is not None]
        assert alive == []
        alive.append(weakref.ref(entry.sw))
        del entry
    # a torus knot's polynomial was built for its entry, not kept in the knot
    assert not any("alexander" in vars(knot) for knot in family[:29])


def _error_cases():
    base = k3_elliptic()
    factored_base = replace(base, sw=SWLedger(LaurentPoly.one(), (find_fibered_knot_of_genus(N + 1),)))
    symbolic = find_fibered_knot_of_genus(N**2 + 1)
    symbolic_nonfibered = Knot("ns", N, None, False)
    return [
        ("no ledger", replace(base, sw=None), [unknot()],
         "knot surgery needs a Seiberg-Witten ledger on the record"),
        ("no ledger before a symbolic knot", replace(base, sw=None), [symbolic_nonfibered],
         "knot surgery needs a Seiberg-Witten ledger on the record"),
        ("missing torus", replace(base, surfaces=()), [unknot()],
         "knot surgery needs a designated square-zero torus: no surface named 'fiber'"),
        ("torus genus", base.with_surface("fiber", MarkedSurface(2, 0)), [unknot()],
         "surgery torus must have genus 1 and square 0, got genus 2, self-intersection 0"),
        ("torus square", base.with_surface("fiber", MarkedSurface(1, 1)), [unknot()],
         "surgery torus must have genus 1 and square 0, got genus 1, self-intersection 1"),
        ("factored base knot", factored_base, [unknot()],
         "cannot compare an unexpanded Alexander polynomial: torus(2, 2*(n + 1)+1)"),
        # the first knot's symplectic flag reads its polynomial before the
        # base ledger is expanded
        ("non-fibered symbolic knot on a factored base", factored_base, [symbolic_nonfibered],
         "no Alexander polynomial at symbolic genus: ns"),
        ("symbolic knot", base, [unknot(), symbolic],
         "cannot compare an unexpanded Alexander polynomial: torus(2, 2*(n^2 + 1)+1)"),
        ("symbolic knot before a non-fibered one", base, [symbolic, symbolic_nonfibered],
         "cannot compare an unexpanded Alexander polynomial: torus(2, 2*(n^2 + 1)+1)"),
    ]


@pytest.mark.parametrize("case", _error_cases(), ids=lambda case: case[0])
def test_distinguish_family_raises_the_first_error_of_knot_surgery(case):
    _, base, family, message = case
    with pytest.raises(ValueError) as err:
        distinguish_family(base, family)
    assert str(err.value) == message


def test_distinguish_family_rejects_a_knot_above_the_genus_cap(monkeypatch):
    monkeypatch.setattr(knots, "ALEXANDER_GENUS_CAP", 2)
    with pytest.raises(ValueError) as err:
        distinguish_family(k3_elliptic(), [torus_knot(2, 5), torus_knot(2, 7)])
    assert str(err.value) == "cannot compare an unexpanded Alexander polynomial: torus(2,7)"


def test_distinguish_family_of_no_knots_checks_nothing():
    bare = k3_elliptic()
    for base in (replace(bare, sw=None), replace(bare, surfaces=())):
        assert distinguish_family(base, []) == knots.FamilyReport((), ())
