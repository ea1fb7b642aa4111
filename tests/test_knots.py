import math
import operator
import weakref
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourgeo import knots
from fourgeo.algebra import N, LaurentPoly
from fourgeo.blocks import E2
from fourgeo.calculus import (
    UNKNOWN,
    MarkedSurface,
    blow_up,
    declared_false,
    declared_true,
    surface_blowup,
)
from fourgeo.knots import (
    ALEXANDER_GENUS_CAP,
    Knot,
    SWLedger,
    family_stream,
    find_fibered_knot_of_genus,
    knot_surgery,
    nonfibered_nonmonic_family,
    torus_knot,
    torus_knot_alexander,
    twist_knot,
    unknot,
)
from fourgeo.pipeline import exotic_stream
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


def _cyclotomic_identity_holds(delta, p, q):
    # D(t) * (t^p - 1)(t^q - 1) == (t^{pq} - 1)(t - 1), recentered
    genus = (p - 1) * (q - 1) // 2
    lhs = delta * LaurentPoly({p + q + genus: 1, q + genus: -1, p + genus: -1, genus: 1})
    return lhs == LaurentPoly({p * q + 1: 1, p * q: -1, 1: -1, 0: 1})


def test_torus_knot_alexander_against_cyclotomic_oracle():
    for p, q in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]:
        assert _cyclotomic_identity_holds(torus_knot_alexander(p, q), p, q)


def _divide_by_t_power_minus_1(coeffs, k):
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


def _reference_torus_knot_alexander(p, q):
    # torus_knot_alexander as it was before the semigroup construction:
    # exact division, (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)), where
    # (t^{pq} - 1) / (t^q - 1) = sum(t^{iq} for i < p), p the smaller index
    p, q = min(p, q), max(p, q)
    numerator = [0] * ((p - 1) * q + 2)
    numerator[::q] = [-1] * p
    numerator[1::q] = [1] * p
    genus = (p - 1) * (q - 1) // 2
    return LaurentPoly._dense(-genus, _divide_by_t_power_minus_1(numerator, p))


def test_division_by_t_power_minus_1_is_exact_or_raises():
    # (t^2 - 1)(t^3 + 2t - 5) = t^5 + t^3 - 5t^2 - 2t + 5
    assert _divide_by_t_power_minus_1([5, -2, -5, 1, 0, 1], 2) == [-5, 2, 0, 1]
    assert _divide_by_t_power_minus_1([0, 0, 0], 2) == [0]
    with pytest.raises(ValueError, match="not divisible"):
        _divide_by_t_power_minus_1([1, 0, 1], 2)  # t^2 + 1
    with pytest.raises(ValueError, match="not divisible"):
        _divide_by_t_power_minus_1([-1, 1, 1], 2)  # t^2 + t - 1: remainder t
    for short in ([], [-1], [-1, 1]):
        with pytest.raises(ValueError, match="not divisible"):
            _divide_by_t_power_minus_1(short, 2)


def test_torus_knot_alexander_matches_division_for_every_small_pair():
    for q in range(2, 41):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                expected = _reference_torus_knot_alexander(p, q)
                for a, b in ((p, q), (q, p)):
                    delta = torus_knot_alexander(a, b)
                    assert delta == expected, (a, b)
                    assert _cyclotomic_identity_holds(delta, a, b), (a, b)


@pytest.mark.parametrize("p, q", [(-2, 3), (3, -2), (0, 5), (5, 0), (0, 1), (-1, -1)])
def test_torus_knot_alexander_rejects_an_index_below_1(p, q):
    with pytest.raises(ValueError, match=rf"coprime integers >= 1, got \({p}, {q}\)"):
        torus_knot_alexander(p, q)


@pytest.mark.parametrize("p, q", [(2, 4), (4, 2), (6, 9), (3, 3), (5, 100)])
def test_torus_knot_alexander_rejects_indices_with_a_common_factor(p, q):
    with pytest.raises(ValueError, match=rf"coprime integers >= 1, got \({p}, {q}\)"):
        torus_knot_alexander(p, q)


@pytest.mark.parametrize("p, q", [(2.0, 3), (2, 3.5), ("2", 3), (2, "3"), (True, 3), (2, True), (3, False)])
def test_torus_knot_alexander_rejects_an_index_that_is_not_an_int(p, q):
    with pytest.raises(ValueError, match=rf"coprime integers >= 1, got \({p}, {q}\)"):
        torus_knot_alexander(p, q)


def test_torus_knot_alexander_at_p_2_matches_division():
    # the p = 2 polynomials, built as one alternating list, are the ones
    # exact division gives, in both index orders
    for q in range(3, 4002, 2):
        expected = _reference_torus_knot_alexander(2, q)
        assert torus_knot_alexander(2, q) == expected, q
        assert torus_knot_alexander(q, 2) == expected, q


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
    # torus_knot defers its polynomial; whatever is built on each read
    # goes through every check a given polynomial does.
    bad = {
        "cannot be zero": LaurentPoly(()),
        "D\\(t\\) = D\\(1/t\\)": LaurentPoly({1: 1, 0: -1}),
        "D\\(1\\) = \\+-1": LaurentPoly({1: 1, 0: 1, -1: 1}),
        "monic": LaurentPoly({1: 2, 0: -3, -1: 2}),
    }
    for message, poly in bad.items():
        monkeypatch.setattr(knots, "torus_knot_alexander", lambda p, q, poly=poly: poly)
        for knot in (torus_knot(2, 3), torus_knot(2, 7), torus_knot(2, 4001), torus_knot(3, 4)):
            for _ in range(2):
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
    base = E2
    after = knot_surgery(base, unknot())
    assert after.e == base.e and after.sigma == base.sigma
    assert after.sw.expand() == base.sw.expand() == (LaurentPoly.one(), ())


def test_knot_surgery_trefoil_ledger():
    after = knot_surgery(E2, torus_knot(2, 3))
    assert after.sw.expand() == (LaurentPoly({2: 1, 0: -1, -2: 1}), ())
    assert after.symplectic.is_true()


def test_knot_surgery_preserves_numbers():
    base = E2
    for knot in (torus_knot(2, 5), twist_knot(3), unknot()):
        after = knot_surgery(base, knot)
        assert after.e == base.e
        assert after.sigma == base.sigma
        assert after.c1sq == base.c1sq
        assert after.chi_h == base.chi_h


def test_knot_surgery_nonfibered_kills_symplectic():
    after = knot_surgery(E2, twist_knot(2))
    assert after.symplectic.value is False


def test_knot_surgery_states_its_own_flags():
    # the base's reasons (a Kaehler K3) do not describe the surgered record
    fintushel_stern = declared_true("knot surgery along a fibered knot (Fintushel-Stern)")
    after = knot_surgery(E2, torus_knot(2, 5))
    assert after.simply_connected == UNKNOWN
    assert after.symplectic == fintushel_stern
    # a fibered knot keeps an unknown or declared-false flag as it is
    for flag in (UNKNOWN, declared_false("not symplectic, for the test")):
        after = knot_surgery(replace(E2, symplectic=flag), torus_knot(2, 5))
        assert after.symplectic == flag and after.simply_connected == UNKNOWN


def test_knot_surgery_requirements():
    bare = E2
    no_ledger = bare.__class__(bare.e, bare.sigma, surfaces=bare.surfaces)
    with pytest.raises(ValueError, match="ledger"):
        knot_surgery(no_ledger, unknot())
    no_torus = bare.__class__(bare.e, bare.sigma, sw=bare.sw)
    with pytest.raises(ValueError, match="torus"):
        knot_surgery(no_torus, unknot())
    bad_torus = replace(bare, surfaces=(("fiber", MarkedSurface(2, 0)),))
    with pytest.raises(ValueError, match="genus 1"):
        knot_surgery(bad_torus, unknot())


def test_knot_surgery_sum_target_gains_genus():
    # blown-up K3 with its section pushed to square -2n^3, then surgery
    # with the gluing-genus knot at n = 2 (genus 57)
    section = surface_blowup(E2.surface("section"), 14)
    surfaces = (("fiber", E2.surface("fiber")), ("section", section))
    record = replace(blow_up(E2, 2 * 8 - 2), surfaces=surfaces)
    after = knot_surgery(record, torus_knot(2, 115), sum_target="section")
    glued = after.surface("section")
    assert glued.genus == 57
    assert glued.self_int == -16


def test_knot_surgery_with_deferred_polynomial():
    symbolic_knot = find_fibered_knot_of_genus(3 * N**5 - 3 * N**4 + N**3 + 1)
    after = knot_surgery(E2, symbolic_knot)
    assert after.sw.value == LaurentPoly.one()
    assert after.sw.knots == (symbolic_knot,)
    assert str(after.sw) == "1 * Delta[torus(2, 2*(3*n^5 - 3*n^4 + n^3 + 1)+1)](t^2)"
    assert after.sw.expand() == (LaurentPoly.one(), (symbolic_knot,))
    with pytest.raises(ValueError, match="unexpanded"):
        list(family_stream(E2, [symbolic_knot]))
    assert after.symplectic.is_true()


def test_distinguish_family_torus_knots():
    streamed = list(family_stream(E2, [torus_knot(2, 2 * k + 1) for k in range(1, 11)]))
    assert [earlier for _, earlier in streamed] == [()] * 10
    assert all(e.monic and e.symplectic_candidate for e, _ in streamed)


def test_distinguish_family_flags_trivial_and_partitions():
    streamed = list(family_stream(E2, [unknot(), torus_knot(2, 3), twist_knot(2)]))
    entries = [entry for entry, _ in streamed]
    assert entries[0].note == "trivial Alexander polynomial, no exotic pair"
    assert [e.note for e in entries[1:]] == ["", ""]
    assert [e.symplectic_candidate for e in entries] == [True, True, False]
    assert [earlier for _, earlier in streamed] == [(), (), ()]


def test_distinguish_family_on_non_symplectic_base_has_no_symplectic_candidate():
    base = replace(E2, symplectic=declared_false("not symplectic, for the test"))
    ((entry, _),) = family_stream(base, [torus_knot(2, 3)])
    assert entry.monic and not entry.symplectic_candidate


def test_distinguish_family_detects_collisions():
    streamed = list(family_stream(E2, [torus_knot(2, 3), torus_knot(2, 3)]))
    assert [earlier for _, earlier in streamed] == [(), (0,)]


def test_distinguish_family_lists_collisions_in_index_order():
    t23, t25 = torus_knot(2, 3), torus_knot(2, 5)
    family = [
        t23,
        t25,
        Knot("copy-a", 1, t23.alexander, fibered=True),
        Knot("copy-b", 2, t25.alexander, fibered=True),
        Knot("copy-c", 1, t23.alexander, fibered=True),
    ]
    # equal pairs (0, 2), (0, 4), (1, 3), (2, 4): each entry lists its
    # earlier equals in index order
    streamed = list(family_stream(E2, family))
    assert [earlier for _, earlier in streamed] == [(), (), (0,), (1,), (0, 2)]


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
    E2,
    replace(E2, symplectic=declared_false("not symplectic, for the test")),
    replace(E2, sw=SWLedger(LaurentPoly.one(), (torus_knot(2, 3), twist_knot(2)))),
]


# a base whose ledger is 0: every surgered ledger is then 0, and equal
_ZERO_BASE = replace(E2, sw=SWLedger(LaurentPoly({})))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_bases + [_ZERO_BASE]), _families())
def test_distinguish_family_matches_knot_surgery_one_knot_at_a_time(base, family):
    streamed = list(family_stream(base, family))
    assert all(isinstance(entry, knots.FamilyEntry) for entry, _ in streamed)
    got = [(e.knot, e.sw, e.monic, e.symplectic_candidate, e.note) for e, _ in streamed]
    expected = [_surgered_entry(base, knot) for knot in family]
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_bases + [_ZERO_BASE]), _families())
def test_family_stream_drains_to_distinguish_family(base, family):
    # draining the stream gives what the collected distinguish_family gave:
    # each entry's earlier equals, and so every pair of equal ledgers
    streamed = list(family_stream(base, family))
    ledgers = [entry.sw for entry, _ in streamed]
    for j, (_, earlier) in enumerate(streamed):
        # every earlier entry with an equal ledger, in index order
        assert earlier == tuple(i for i in range(j) if ledgers[i] == ledgers[j])
    pairs = sorted((i, j) for j, (_, earlier) in enumerate(streamed) for i in earlier)
    assert pairs == [
        (i, j)
        for i in range(len(ledgers))
        for j in range(i + 1, len(ledgers))
        if ledgers[i] == ledgers[j]
    ]


def test_family_stream_decides_equal_hashes_exactly(monkeypatch):
    # with every ledger hashing alike, each hash match is a comparison
    monkeypatch.setattr(LaurentPoly, "__hash__", lambda self: 0)
    t23, t25 = torus_knot(2, 3), torus_knot(2, 5)
    family = [t23, twist_knot(2), t25, Knot("copy", 1, t23.alexander, True), twist_knot(2), t23]
    earlier = [same for _, same in family_stream(E2, family)]
    assert earlier == [(), (), (), (0,), (1,), (0, 3)]


def test_family_stream_keeps_no_ledger_it_has_yielded():
    family = [torus_knot(2, 2 * k + 1) for k in range(1, 30)] + nonfibered_nonmonic_family(5)
    alive = []
    for entry, _ in family_stream(E2, family):
        alive = [ref for ref in alive if ref() is not None]
        assert alive == []
        alive.append(weakref.ref(entry.sw))
        del entry
    # a torus knot's polynomial was built for its entry, not kept in the knot
    assert not any("alexander" in vars(knot) for knot in family[:29])


def test_a_drained_family_keeps_no_polynomial():
    _, family, stream = exotic_stream(3, 25)
    assert len(list(stream)) == len(family) == 50
    for knot in family:
        assert set(vars(knot)) == {"descriptor", "genus", "polynomial", "fibered"}


def _error_cases():
    base = E2
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
        ("torus genus", replace(base, surfaces=(("fiber", MarkedSurface(2, 0)),)), [unknot()],
         "surgery torus must have genus 1 and square 0, got genus 2, self-intersection 0"),
        ("torus square", replace(base, surfaces=(("fiber", MarkedSurface(1, 1)),)), [unknot()],
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
        list(family_stream(base, family))
    assert str(err.value) == message


def test_distinguish_family_rejects_a_knot_above_the_genus_cap(monkeypatch):
    monkeypatch.setattr(knots, "ALEXANDER_GENUS_CAP", 2)
    with pytest.raises(ValueError) as err:
        list(family_stream(E2, [torus_knot(2, 5), torus_knot(2, 7)]))
    assert str(err.value) == "cannot compare an unexpanded Alexander polynomial: torus(2,7)"


def test_distinguish_family_of_no_knots_checks_nothing():
    bare = E2
    for base in (replace(bare, sw=None), replace(bare, surfaces=())):
        assert list(family_stream(base, [])) == []
