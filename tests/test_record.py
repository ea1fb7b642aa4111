"""Record semantics: every record class is immutable and hashable, compares
by exact type and field values, and is rebuilt (so validated) by replace."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fourgeo
from fourgeo.algebra import N, LaurentPoly
from fourgeo.blocks import E2, T4
from fourgeo.calculus import (
    UNKNOWN,
    Declared,
    ManifoldRecord,
    MarkedSurface,
    blow_up,
    bmy_report,
    branched_cover,
    declared_true,
    fiber_sum,
)
from fourgeo.knots import SWLedger, knot_surgery, torus_knot
from fourgeo.pipeline import (
    branch_preset,
    build_cover_block,
    build_family,
    build_k3_block,
    exotic_stream,
)
from fourgeo.record import Record, cached, replace
from fourgeo.script import Let, Node, Report, parse


def _samples() -> list[Record]:
    cover = build_cover_block(3)
    _, _, stream = exotic_stream(3, 2)
    (entry, _), *_ = stream
    script = parse("let X = blowup(T4, k=-n^2 + 1)\nreport X\n")
    let, report = script.statements
    return [
        declared_true("a reason"),
        MarkedSurface(1, 0),
        branch_preset(N),
        cover.manifold,
        bmy_report(E2),
        torus_knot(2, 5),
        SWLedger(LaurentPoly.one(), (torus_knot(2, 3),)),
        entry,
        cover.checks[0],
        cover,
        Node(),
        script, let, report,
    ]


SAMPLES = _samples()
IDS = [type(r).__name__ for r in SAMPLES]


def _record_classes(cls=Record) -> set[type]:
    found = set()
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("fourgeo."):
            found.add(sub)
        found |= _record_classes(sub)
    return found


def test_every_record_class_is_sampled():
    assert {type(r) for r in SAMPLES} == _record_classes()


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_records_refuse_assignment_and_deletion(record):
    for name in record._fields[:1]:  # Node, the base of the statements, has none
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(record):
    copy = replace(record)
    assert copy is not record
    assert copy == record and not copy != record
    assert hash(copy) == hash(record)
    assert len({record, copy}) == 1


def _cached_attributes(record: Record) -> list[tuple[str, cached]]:
    return [
        (name, attr)
        for cls in type(record).__mro__
        for name, attr in vars(cls).items()
        if isinstance(attr, cached)
    ]


def test_every_cached_attribute_is_sampled():
    names = {name for r in SAMPLES for name, _ in _cached_attributes(r)}
    assert names == {"c1sq", "chi_h", "ratio", "checks"}


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_cached_attributes_are_computed_once_per_instance(record, monkeypatch):
    for name, attr in _cached_attributes(record):
        expected = getattr(record, name)
        calls = []

        def counting(r, calls=calls, compute=attr.fn):
            calls.append(r)
            return compute(r)

        monkeypatch.setattr(attr, "fn", counting)
        fresh = replace(record)
        assert name not in fresh.__dict__ or calls == [fresh]  # read by __post_init__
        first = getattr(fresh, name)
        assert getattr(fresh, name) is first
        assert len(calls) == 1 and calls[0] is fresh
        assert first == expected
        with pytest.raises(AttributeError):
            setattr(fresh, name, first)
        with pytest.raises(AttributeError):
            delattr(fresh, name)
        assert getattr(fresh, name) is first


def test_replace_never_carries_a_cached_attribute():
    m = build_cover_block(3).manifold
    chi_h, c1sq = m.chi_h, m.c1sq
    bigger = replace(m, e=m.e + 4)
    assert bigger.chi_h == chi_h + 1
    assert bigger.c1sq == c1sq + 8
    p = N**2 + 1
    assert p.newton_table == ((5, 5, 2), 1)
    q = N**3
    assert q.newton_table == ((8, 19, 18, 6), 1)
    assert p.newton_table == ((5, 5, 2), 1)
    cover = build_cover_block(2)
    assert cover.checks[0].got == "128"
    smaller = replace(cover, compared=cover.compared[1:])
    assert len(smaller.checks) == len(cover.checks) - 1
    assert smaller.checks == cover.checks[1:]


def test_records_of_different_classes_are_unequal():
    program = (("num", 1, 1, 8),)
    assert Report(program) != Let("X", program)
    assert Report(()) != Node()

    class Strict(Declared):
        pass

    assert Strict(True, "r") != declared_true("r")
    assert Strict(True, "r") == Strict(True, "r")


def test_replace_validates_again():
    with pytest.raises(ValueError, match="surface genus must be nonnegative"):
        replace(MarkedSurface(1, 0), genus=N - 5)
    with pytest.raises(TypeError, match="unknown or repeated field 'monic'"):
        replace(torus_knot(2, 5), monic=True)


def test_construction_checks_its_arguments():
    with pytest.raises(TypeError, match="missing the field 'self_int'"):
        MarkedSurface(1)
    with pytest.raises(TypeError, match="at most 2 positional fields"):
        MarkedSurface(1, 0, 0)
    with pytest.raises(TypeError, match="repeated field 'genus'"):
        MarkedSurface(1, genus=0)
    assert MarkedSurface(self_int=0, genus=1) == MarkedSurface(1, 0)
    # a class with defaults; each message is matched word for word
    for args, kwargs, message in [
        ((0, 0), {"chi": 1, "genus": 2}, "got an unknown or repeated field 'chi'"),
        ((0, 0), {"bogus": 1, "e": 0}, "got an unknown or repeated field 'bogus'"),
        ((0, 0), {"e": 0, "bogus": 1}, "got an unknown or repeated field 'e'"),
        ((0, 0), {"sigma": 1}, "got an unknown or repeated field 'sigma'"),
        ((), {"bogus": 1}, "got an unknown or repeated field 'bogus'"),
        ((), {"log": ()}, "is missing the field 'e'"),
        ((), {"sigma": 0}, "is missing the field 'e'"),
        ((0,), {"log": ()}, "is missing the field 'sigma'"),
        (tuple(range(9)), {}, "takes at most 8 positional fields"),
        (tuple(range(9)), {"bogus": 1}, "takes at most 8 positional fields"),
    ]:
        with pytest.raises(TypeError, match=f"^ManifoldRecord {message}$"):
            ManifoldRecord(*args, **kwargs)
    built = ManifoldRecord(3, sigma=-1, log=("x",))
    fields = {
        "e": 3, "sigma": -1, "simply_connected": UNKNOWN, "symplectic": UNKNOWN,
        "almost_complex": False, "surfaces": (), "sw": None, "log": ("x",),
    }
    assert vars(built) == fields
    assert built.c1sq == 3 and "c1sq" in vars(built)
    assert vars(replace(built, sigma=1)) == dict(fields, sigma=1)


def _built_records(monkeypatch) -> list:
    # every ManifoldRecord whose __post_init__ runs from now on, in order
    built = []
    post_init = ManifoldRecord.__post_init__

    def counting(record):
        built.append(record)
        post_init(record)

    monkeypatch.setattr(ManifoldRecord, "__post_init__", counting)
    return built


def test_each_operation_builds_one_manifold_record(monkeypatch):
    k3, blown, knot = E2, blow_up(T4, 81), torus_knot(2, 5)
    operations = {
        "blow_up": lambda: blow_up(k3, 2),
        "branched_cover": lambda: branched_cover(blown, branch_preset(3)),
        "fiber_sum": lambda: fiber_sum(k3, MarkedSurface(1, 0), k3, MarkedSurface(1, 0)),
        "knot_surgery": lambda: knot_surgery(k3, knot),
        "knot_surgery into a surface": lambda: knot_surgery(k3, knot, sum_target="section"),
    }
    built = _built_records(monkeypatch)
    for name, operation in operations.items():
        built.clear()
        result = operation()
        assert len(built) == 1 and built[0] is result, name


def test_family_builds_make_no_copy_to_mark_a_surface(monkeypatch):
    # cover: blow_up, branched_cover; K3: blow_up, knot_surgery, replace;
    # fiber_sum.  The cover's regular fiber rides on its report, and the
    # exotic base is one replace of the glued record.
    built = _built_records(monkeypatch)
    build_family(7)
    assert len(built) == 6
    built.clear()
    exotic_stream(3, 25)
    assert len(built) == 6 + 1


def test_k3_block_builds_one_record_per_calculus_step(monkeypatch):
    # blow_up, knot_surgery, and one replace that marks the section's proper
    # transform and declares simple connectivity
    built = _built_records(monkeypatch)
    k3 = build_k3_block(7)
    assert len(built) == 3 and built[-1] is k3.manifold


def test_repr_lists_every_field():
    assert repr(declared_true("r")) == "Declared(value=True, reason='r')"
    assert repr(Report((("n", None, 1, 8),))) == "Report(program=(('n', None, 1, 8),))"
    assert repr(Let("X", ())) == "Let(name='X', program=())"
    assert repr(Node()) == "Node()"


def test_cli_import_loads_no_code_generation_machinery():
    src = str(Path(fourgeo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, fourgeo.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
