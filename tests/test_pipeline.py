import json
from collections import Counter
from fractions import Fraction

import pytest

from fourgeo import pipeline
from fourgeo.algebra import N, LaurentPoly, integer_valued, scalar_eval
from fourgeo.calculus import bmy_report
from fourgeo.cli import main
from fourgeo.knots import family_stream, unknot
from fourgeo.pipeline import (
    build_cover_block,
    build_family,
    build_k3_block,
    exotic_stream,
    family_targets,
    gluing_genus,
    verify_formulas,
)


def test_cover_block_symbolic():
    report = build_cover_block()
    m = report.manifold
    assert m.c2 == N**7
    assert m.c1sq == 3 * N**7 - 4 * N**5
    assert m.sigma == (N**7 - 4 * N**5) / 3
    assert m.chi_h == (N**7 - N**5) / 3
    assert m.almost_complex
    assert all(c.passed for c in report.checks)


def test_cover_block_fiber_data():
    got = {c.name: c.got for c in build_cover_block().checks}
    assert got["regular fiber: euler"] == str(-3 * N**5 + 3 * N**4)
    assert got["regular fiber: genus"] == str(
        1 + Fraction(3, 2) * N**5 - Fraction(3, 2) * N**4
    )
    assert got["singular fiber: euler"] == str(-2 * N**5 + 3 * N**4)
    assert got["covered exceptional sphere: euler"] == str(-2 * N**3 + 4 * N**2)
    assert build_cover_block().intersections == N**3


def test_cover_block_numeric():
    m3 = build_cover_block(3).manifold
    assert (m3.e, m3.sigma, m3.c1sq) == (2187, 405, 5589)
    m2 = build_cover_block(2).manifold
    assert (m2.e, m2.sigma, m2.c1sq) == (128, 0, 256)


def test_parameter_domain():
    with pytest.raises(ValueError, match="n = 1 degenerates"):
        build_cover_block(1)
    with pytest.raises(ValueError):
        build_family(0)
    with pytest.raises(ValueError):
        build_family(-3)


def test_gluing_surface():
    s = build_family().surface
    assert s.genus == 3 * N**5 - 3 * N**4 + N**3 + 1
    assert s.self_int == 2 * N**3
    s2 = build_family(2).surface
    assert (s2.genus, s2.self_int) == (57, 16)
    s3 = build_family(3).surface
    assert (s3.genus, s3.self_int) == (514, 54)


def test_k3_block_symbolic():
    report = build_k3_block()
    m = report.manifold
    assert m.sigma == -2 * N**3 - 14
    assert m.chi_h == 2
    assert m.c2 == 2 * N**3 + 22
    assert m.c1sq == -2 * N**3 + 2
    assert m.simply_connected.is_true()
    glued = m.surface("section")
    assert glued.genus == 3 * N**5 - 3 * N**4 + N**3 + 1
    assert glued.self_int == -2 * N**3


def test_k3_block_numeric():
    m2 = build_k3_block(2)
    assert (m2.manifold.e, m2.manifold.sigma) == (38, -30)
    glued = m2.manifold.surface("section")
    assert (glued.genus, glued.self_int) == (57, -16)
    m3 = build_k3_block(3)
    assert (m3.manifold.e, m3.manifold.sigma) == (76, -68)


def test_k3_block_ledger_materializes_only_at_small_n():
    # Knot surgery records the knot without expanding its polynomial; the
    # ledger expands on print and compare, up to ALEXANDER_GENUS_CAP.
    sw2 = build_k3_block(2).manifold.sw
    (knot2,) = sw2.knots
    assert knot2.descriptor == "torus(2,115)"
    assert "alexander" not in vars(knot2)
    value, factored = sw2.expand()
    assert factored == () and len(value.coefficients) - 1 == 4 * 57
    assert str(sw2) == str(value)

    k3_20 = build_k3_block(20).manifold
    sw20 = k3_20.sw
    (knot20,) = sw20.knots
    assert knot20.genus == gluing_genus(20) == 9128001
    assert str(sw20) == "1 * Delta[torus(2,18256003)](t^2)"
    assert sw20.expand() == (LaurentPoly.one(), (knot20,))
    with pytest.raises(ValueError, match="unexpanded Alexander polynomial: torus"):
        list(family_stream(k3_20, [unknot()]))
    assert "alexander" not in vars(knot20)


def test_family_symbolic_formulas():
    m = build_family().manifold
    targets = family_targets(N)
    assert m.c2 == targets["c2"]
    assert m.c1sq == targets["c1sq"]
    assert m.chi_h == targets["chi_h"]
    assert m.sigma == targets["sigma"]
    assert m.simply_connected.is_true()
    assert m.symplectic.is_true()


def test_family_numeric_tables():
    m3 = build_family(3).manifold
    assert (m3.chi_h, m3.c1sq, m3.c2, m3.sigma) == (1163, 9641, 4315, 337)
    m4 = build_family(4).manifold
    assert (m4.chi_h, m4.c1sq, m4.c2, m4.sigma) == (7490, 63874, 26006, 3954)
    m2 = build_family(2).manifold
    assert m2.sigma == -30


def test_family_numeric_equals_symbolic_evaluated():
    sym = build_family().manifold
    for n in range(2, 13):
        num = build_family(n).manifold
        assert scalar_eval(sym.e, n) == num.e
        assert scalar_eval(sym.sigma, n) == num.sigma
        assert scalar_eval(sym.c1sq, n) == num.c1sq


def test_family_chi_integrality():
    for report in (build_cover_block(), build_k3_block(), build_family()):
        assert integer_valued(report.manifold.chi_h)


def test_fiber_sum_gain_identity():
    # c1^2(sum) - c1^2(left) - c1^2(right) = 8(g - 1), identically in n
    family = build_family()
    glued, g = family.manifold, family.surface.genus
    cover = build_cover_block().manifold
    k3 = build_k3_block().manifold
    assert glued.c1sq - cover.c1sq - k3.c1sq == 8 * (g - 1)


def test_signature_sign_pattern():
    sigma = family_targets(N)["sigma"]
    assert sigma(2) == -30
    assert sigma(3) == 337
    for n in range(2, 51):
        assert (sigma(n) > 0) == (n >= 3)


def test_ratio_climbs_to_nine():
    sym = bmy_report(build_family().manifold)
    assert sym.ratio == 9 and sym.side == "below"
    previous = None
    for n in range(3, 51):
        report = bmy_report(build_family(n).manifold)
        assert report.gap > 0
        if previous is not None:
            assert report.ratio > previous
        previous = report.ratio
    assert previous > Fraction(899, 100)


def test_verify_formulas_all_pass_with_sigma_warning():
    checks = verify_formulas(n_max=12)
    assert checks and all(c.passed for c in checks)
    warned = [c for c in checks if c.note]
    assert len(warned) == 1
    assert warned[0].name == "table n=3: sigma"
    assert "227" in warned[0].note and warned[0].got == "337"


def test_verify_formulas_builds_each_stage_once(monkeypatch):
    stages = ("build_cover_block", "build_k3_block", "build_family")
    built = Counter()
    for stage in stages:
        def counting(n=None, stage=stage, build=getattr(pipeline, stage)):
            built[stage, n] += 1
            return build(n)
        monkeypatch.setattr(pipeline, stage, counting)
    assert all(c.passed for c in verify_formulas(n_max=12))
    assert set(built) == {(stage, n) for stage in stages for n in (None, *range(2, 13))}
    assert set(built.values()) == {1}


def test_numeric_build_formats_no_check_until_read(monkeypatch):
    made = []
    real = pipeline.CheckResult
    monkeypatch.setattr(
        pipeline, "CheckResult", lambda *fields: made.append(fields) or real(*fields)
    )
    report = build_family(7)
    assert made == []
    for stage in (report, report.cover, report.k3):
        assert "checks" not in stage.__dict__
    checks = report.checks
    assert [c.name for c in checks] == [
        "glued family: c2", "glued family: c1^2", "glued family: chi_h",
        "glued family: sigma", "fiber sum consistency: c1^2 gain is 8(g-1)",
    ]
    assert len(made) == 5 and all(c.passed for c in checks)
    assert report.checks is checks
    assert checks[0] == real("glued family: c2", "998495", "998495", True)


def test_verify_formulas_formats_no_numeric_stage_check(monkeypatch):
    reports = {}

    def keeping(n=None, build=pipeline.build_family):
        reports[n] = build(n)
        return reports[n]

    monkeypatch.setattr(pipeline, "build_family", keeping)
    assert all(c.passed for c in verify_formulas(n_max=6))
    assert set(reports) == {None, 2, 3, 4, 5, 6}
    for n, report in reports.items():
        formatted = ["checks" in r.__dict__ for r in (report, report.cover, report.k3)]
        assert formatted == [n is None] * 3


def test_stage_drift_raises_at_build_time_with_the_formatted_check(monkeypatch, capsys):
    targets = pipeline.family_targets
    monkeypatch.setattr(
        pipeline, "family_targets", lambda v: {**targets(v), "c2": targets(v)["c2"] + 1}
    )
    with pytest.raises(RuntimeError) as err:
        build_family(3)
    assert str(err.value) == "construction drift: glued family: c2: expected 4316, got 4315"
    got = (
        "RuntimeError: construction drift: glued family: c2: expected "
        "n^7 + 12*n^5 - 12*n^4 + 6*n^3 + 23, got n^7 + 12*n^5 - 12*n^4 + 6*n^3 + 22"
    )
    (failed,) = verify_formulas(n_max=4)
    assert failed == pipeline.CheckResult("glued family build", "no error", got, False)
    assert main(["verify-paper", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == [
        {"name": "glued family build", "expected": "no error", "got": got, "pass": False,
         "note": ""}
    ]


def test_claims_about_every_n_do_not_depend_on_n_max():
    def claims(n_max):
        return [c for c in verify_formulas(n_max) if "for every n" in c.name]

    assert len(claims(4)) == 4 and all(c.passed for c in claims(4))
    assert claims(4) == claims(50)


def test_verify_formulas_rejects_short_range():
    with pytest.raises(ValueError, match="n_max must be at least 4"):
        verify_formulas(n_max=3)


def _drained(n, count):
    # exotic_stream's entries, and for each the indices of its earlier equals
    _, _, stream = exotic_stream(n, count)
    streamed = list(stream)
    return [entry for entry, _ in streamed], [earlier for _, earlier in streamed]


def test_exotic_family_partition_and_distinctness():
    entries, earlier = _drained(3, 5)
    assert [e.symplectic_candidate for e in entries] == [True] * 5 + [False] * 5
    assert [e.monic for e in entries] == [True] * 5 + [False] * 5
    assert earlier == [()] * 10
    assert len({e.sw for e in entries}) == 10


def test_exotic_family_large_count():
    entries, earlier = _drained(2, 100)
    assert len([e for e in entries if e.monic]) == 100
    assert earlier == [()] * 200


def test_exotic_family_ledgers_match_closed_forms():
    # Delta(t^2) on a base ledger of 1: T(2, 2k+1) has Delta = sum of
    # (-1)^(k-i) t^i over |i| <= k, twist(m) has m*t - (2m+1) + m/t.
    count = 300
    entries, _ = _drained(3, count)
    assert len(entries) == 2 * count
    for k, entry in enumerate(entries[:count], 1):
        assert entry.knot == f"torus(2,{2 * k + 1})"
        assert entry.sw.terms == tuple((2 * i, (-1) ** (k - i)) for i in range(-k, k + 1))
    for m, entry in enumerate(entries[count:], 2):
        assert entry.knot == f"twist({m})"
        assert entry.sw.terms == ((-2, m), (0, -(2 * m + 1)), (2, m))


def test_exotic_family_validation():
    with pytest.raises(ValueError):
        exotic_stream(3, 0)
    with pytest.raises(ValueError):
        exotic_stream(1, 5)


def test_exotic_family_count_must_be_an_int():
    for count in (True, 2.0):
        with pytest.raises(ValueError, match="count must be a positive integer"):
            exotic_stream(3, count)


def test_exotic_family_rejects_count_above_genus_cap(monkeypatch):
    def fail(*args):
        raise AssertionError("nothing may be built above the cap")

    monkeypatch.setattr(pipeline, "build_family", fail)
    with pytest.raises(ValueError, match="ALEXANDER_GENUS_CAP = 50000"):
        exotic_stream(3, 50_001)
