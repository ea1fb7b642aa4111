import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourgeo import cli, pipeline
from fourgeo.algebra import N
from fourgeo.cli import main
from fourgeo.knots import torus_knot
from fourgeo.pipeline import CheckResult
from fourgeo.record import replace

REPO = Path(__file__).resolve().parent.parent
KN_SCRIPT = str(REPO / "scripts" / "kn.geo")
# a fresh interpreter that imports this checkout's fourgeo
FRESH_ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}
FRESH_CLI = [sys.executable, "-m", "fourgeo.cli"]


# build, exotic and geography reject n = 1 with this one line
_DEGENERATE = ("error: construction parameter must be >= 2 (n = 1 degenerates: "
               "the lattice and branch data collapse)\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_symbolic_prints_closed_forms(capsys):
    code, out, _ = run(capsys, "build", KN_SCRIPT, "--symbolic")
    assert code == 0
    assert "c2    = n^7 + 12*n^5 - 12*n^4 + 6*n^3 + 22" in out
    assert "c1^2  = 3*n^7 + 20*n^5 - 24*n^4 + 6*n^3 + 2" in out
    assert "chi_h = 1/3*n^7 + 8/3*n^5 - 3*n^4 + n^3 + 2" in out
    assert "sigma = 1/3*n^7 - 4/3*n^5 - 2*n^3 - 14" in out


def test_build_defaults_to_symbolic(capsys):
    _, out_default, _ = run(capsys, "build", KN_SCRIPT)
    _, out_symbolic, _ = run(capsys, "build", KN_SCRIPT, "--symbolic")
    assert out_default == out_symbolic


def test_build_numeric(capsys):
    code, out, _ = run(capsys, "build", KN_SCRIPT, "--n", "3")
    assert code == 0
    assert "chi_h = 1163" in out
    assert "sigma = 337" in out


def test_build_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.geo"
    bad.write_text("let Z = blowup(\n")
    code, _, err = run(capsys, "build", str(bad))
    assert code == 2
    assert "line 1" in err


def test_build_superscript_digit_is_located_exit_2(capsys, tmp_path):
    script = tmp_path / "square.geo"
    script.write_text("report 2²\n", encoding="utf-8")
    code, out, err = run(capsys, "build", str(script))
    assert code == 2
    assert out == ""
    assert err == f"{script}: line 1, col 9: unexpected character '²'\n"


def test_build_prints_a_value_past_the_int_to_str_digit_limit(capsys, tmp_path):
    script = tmp_path / "big.geo"
    script.write_text("report 10^5000\n")
    code, out, err = run(capsys, "build", str(script), "--n", "3")
    assert (code, err) == (0, "")
    assert out == "mode: numeric, n = 3\nvalue = 1" + "0" * 5000 + "\n"


@pytest.mark.parametrize("args, message", [
    ("0, 1, 3, 0", "branching index must be a positive integer, got 0"),
    ("0, 1, 0, 1", "cover degree must be a positive integer, got 0"),
    ("0, 1, 2, -1", "branching index must be a positive integer, got -1"),
])
def test_build_bad_riemann_hurwitz_counts_exit_1(capsys, tmp_path, args, message):
    script = tmp_path / "rh.geo"
    script.write_text(f"report riemann_hurwitz({args})\n")
    code, out, err = run(capsys, "build", str(script))
    assert code == 1
    assert out == ""
    assert err == f"{script}: line 1, col 8: {message}\n"


def test_build_reads_a_constant_knot_genus_as_its_number(capsys, tmp_path):
    # n - n + 2 is the number 2 in both modes, so the knot is torus(2,5) and
    # the ledger is expanded, symbolic or not
    script = tmp_path / "knot.geo"
    script.write_text("report knot_surgery(E2, knot_genus=n-n+2)\n")
    outputs = []
    for mode in (["--symbolic"], ["--n", "3"]):
        code, out, err = run(capsys, "build", str(script), *mode)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        outputs.append([line for line in lines if "sw ledger" in line or "knot_surgery" in line])
    assert outputs[0] == outputs[1] == [
        "sw ledger: t^4 - t^2 + 1 - t^-2 + t^-4",
        "  knot_surgery(torus(2,5), torus='fiber')",
    ]


def test_build_constraint_violation_exit_1(capsys, tmp_path):
    script = tmp_path / "clash.geo"
    script.write_text(
        "let A = surface(genus=1, self_int=0)\n"
        "let B = surface(genus=2, self_int=0)\n"
        "report fiber_sum(T4, A, T4, B)\n"
    )
    code, _, err = run(capsys, "build", str(script))
    assert code == 1
    assert "genus mismatch" in err


def test_build_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "build", "no/such/file.geo")
    assert code == 2
    assert err


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_build_parameter_below_2_exit_2(capsys, n):
    code, out, err = run(capsys, "build", KN_SCRIPT, "--n", n)
    assert code == 2
    assert out == ""
    assert err == _DEGENERATE.replace("n = 1", f"n = {n}")


def test_build_undecodable_script_exit_2(capsys, tmp_path):
    script = tmp_path / "binary.geo"
    script.write_bytes(b"\xff")
    code, out, err = run(capsys, "build", str(script))
    assert code == 2
    assert out == ""
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["geography", "--n-min", "2"])  # --n-max missing
    assert exit_info.value.code == 2


def test_geography_csv(capsys, tmp_path):
    out_csv = tmp_path / "out.csv"
    code, _, _ = run(capsys, "geography", "--n-min", "2", "--n-max", "6",
                     "--csv", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().split("\n")
    assert lines[0] == "n,e,sigma,c1sq,chi_h,ratio,bmy_gap,side"
    assert lines[-1] == ""  # single trailing LF
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 5
    by_n = {int(r[0]): r for r in rows}
    assert by_n[4][4] == "7490"
    for r in rows:
        n, e, sigma, c1sq, chi_h, ratio, gap, side = r
        assert int(c1sq) == 3 * int(sigma) + 2 * int(e)
        assert 4 * int(chi_h) == int(sigma) + int(e)
        assert int(gap) == 9 * int(chi_h) - int(c1sq)
        assert side == "below"
        assert len(ratio.split(".")[1]) == 6


def test_geography_stdout_and_range_validation(capsys):
    code, out, _ = run(capsys, "geography", "--n-min", "2", "--n-max", "3")
    assert code == 0
    assert out.startswith("n,e,sigma,")
    code, _, err = run(capsys, "geography", "--n-min", "1", "--n-max", "3")
    assert code == 2
    assert err == _DEGENERATE
    code, _, err = run(capsys, "geography", "--n-min", "5", "--n-max", "3")
    assert code == 2
    assert err == "error: empty range: 5 > 3\n"


@pytest.mark.parametrize("flag", ["--csv", "--svg"])
def test_geography_unwritable_output_exit_2(capsys, tmp_path, flag):
    target = tmp_path / "missing" / "out"
    code, _, err = run(capsys, "geography", "--n-min", "2", "--n-max", "3",
                       flag, str(target))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.exists()


def test_geography_deterministic_bytes(capsys, tmp_path):
    paths = []
    for run_index in (1, 2):
        csv_path = tmp_path / f"run{run_index}.csv"
        svg_path = tmp_path / f"run{run_index}.svg"
        run(capsys, "geography", "--n-min", "2", "--n-max", "5",
            "--csv", str(csv_path), "--svg", str(svg_path))
        paths.append((csv_path.read_bytes(), svg_path.read_bytes()))
    assert paths[0] == paths[1]


def test_geography_svg_structure(capsys, tmp_path):
    svg_path = tmp_path / "plot.svg"
    run(capsys, "geography", "--n-min", "2", "--n-max", "6", "--svg", str(svg_path))
    svg = svg_path.read_text()
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<circle ") == 5
    assert "c1^2 = 8*chi_h" in svg and "c1^2 = 9*chi_h" in svg
    assert ">n=4<" in svg


def test_verify_paper_passes_with_warning(capsys):
    code, out, _ = run(capsys, "verify-paper", "--n-max", "10")
    assert code == 0
    assert "[FAIL]" not in out
    assert "warnings:" in out
    assert "227" in out
    assert "337" in out


@pytest.mark.parametrize("n_max", ["3", "1", "-5"])
def test_verify_paper_rejects_short_range(capsys, n_max):
    # below 4 the table and monotonicity checks would pass vacuously
    code, out, err = run(capsys, "verify-paper", "--n-max", n_max)
    assert code == 2
    assert out == ""
    assert err.startswith("error: n_max must be at least 4")


def test_verify_paper_smallest_range(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json", "--n-max", "4")
    assert code == 0
    assert all(entry["pass"] for entry in json.loads(out))


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json", "--n-max", "6")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list)
    for entry in payload:
        assert set(entry) == {"name", "expected", "got", "pass", "note"}
        assert entry["pass"] is True
    sigma_rows = [e for e in payload if e["name"] == "table n=3: sigma"]
    assert len(sigma_rows) == 1
    assert sigma_rows[0]["got"] == "337"
    assert "227" in sigma_rows[0]["note"]


_TARGETS, _BRANCH = pipeline.family_targets, pipeline.branch_preset


@pytest.mark.parametrize("name, drift, check", [
    ("family_targets", lambda v: {**_TARGETS(v), "c2": _TARGETS(v)["c2"] + 1},
     "glued family: c2"),
    ("branch_preset", lambda v: replace(_BRANCH(v), k_dot_d=4 * v**4 + 12),
     "cover block: c1^2"),
])
def test_verify_paper_reports_drifting_stage(capsys, monkeypatch, name, drift, check):
    # a closed form or a cover-block input that drifts fails the run and is named
    monkeypatch.setattr(pipeline, name, drift)
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 1
    failed = [e for e in json.loads(out) if not e["pass"]]
    assert any(check in e["got"] for e in failed)


_BUILD = pipeline.build_family


@pytest.mark.parametrize("sigma, check", [
    (lambda m: m.sigma - 1000, "sigma > 0 for every n >= 3"),
    (lambda m: m.sigma + 4 * N**7, "below the 9*chi_h line for every n >= 2"),
    (lambda m: 4 - m.e, "ratio strictly increasing for every n >= 3"),
    (lambda m: -m.e, "chi_h >= 1 for every n >= 2"),
])
def test_verify_paper_fails_a_perturbed_family_by_name(capsys, monkeypatch, sigma, check):
    # each claim about every n fails once the family's signature drifts,
    # at the smallest numeric range and at the default one
    _perturb(monkeypatch, sigma)
    for n_max in (["--n-max", "4"], []):
        assert check in _failed_checks(capsys, *n_max)


def test_verify_paper_reports_chi_h_zero_at_n_50(capsys, monkeypatch):
    # sigma = -e makes chi_h = 0 everywhere: the ratio at n = 50 is undefined,
    # which fails its check instead of aborting the run
    _perturb(monkeypatch, lambda m: -m.e)
    failed = _failed_checks(capsys)
    assert "chi_h >= 1 for every n >= 2" in failed
    assert failed["ratio at n=50 exceeds 8.99"] == "ratio undefined: chi_h = 0"


def _perturb(monkeypatch, sigma):
    def perturbed(n=None):
        family = _BUILD(n)
        return replace(family, manifold=replace(family.manifold, sigma=sigma(family.manifold)))

    monkeypatch.setattr(pipeline, "build_family", perturbed)


def _failed_checks(capsys, *argv):
    # name -> got of every failed check of verify-paper --json, which must exit 1
    code, out, _ = run(capsys, "verify-paper", "--json", *argv)
    assert code == 1
    return {e["name"]: e["got"] for e in json.loads(out) if not e["pass"]}


def test_verify_paper_deterministic(capsys):
    _, first, _ = run(capsys, "verify-paper", "--n-max", "8")
    _, second, _ = run(capsys, "verify-paper", "--n-max", "8")
    assert first == second


def test_exotic_report(capsys):
    code, out, _ = run(capsys, "exotic", "--n", "3", "--count", "4")
    assert code == 0
    assert "symplectic candidates: 4; non-symplectic candidates: 4" in out
    assert "pairwise distinct" in out
    assert "torus(2,3)" in out and "twist(2)" in out


def test_exotic_validation(capsys):
    code, _, err = run(capsys, "exotic", "--n", "1", "--count", "4")
    assert code == 2
    assert err == _DEGENERATE
    code, _, err = run(capsys, "exotic", "--n", "3", "--count", "0")
    assert code == 2
    assert err == "error: count must be a positive integer, got 0\n"


def test_exotic_rejects_count_above_genus_cap(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("nothing may be built above the cap")

    monkeypatch.setattr(pipeline, "build_family", fail)
    code, out, err = run(capsys, "exotic", "--n", "3", "--count", "50001")
    assert code == 2
    assert out == ""
    assert err == "error: count must be at most ALEXANDER_GENUS_CAP = 50000, got 50001\n"


@pytest.mark.parametrize("argv, err", [
    (["--n", "3", "--count", "0"], "error: count must be a positive integer, got 0\n"),
    (["--n", "3", "--count", "50001"],
     "error: count must be at most ALEXANDER_GENUS_CAP = 50000, got 50001\n"),
    (["--n", "1", "--count", "4"], _DEGENERATE),
])
def test_exotic_rejects_its_arguments_before_printing(capsys, fresh, argv, err):
    argv = ["exotic", *argv]
    assert run(capsys, *argv) == (2, "", err)
    assert fresh(*argv) == (2, b"", err)


def test_exotic_reports_collisions_in_index_order(capsys, monkeypatch):
    # twist knots replaced by the torus knots in reverse: entry k collides
    # with entry 2 * count - 1 - k
    monkeypatch.setattr(pipeline, "nonfibered_nonmonic_family",
                        lambda count: [torus_knot(2, 2 * k + 1) for k in range(count, 0, -1)])
    code, out, err = run(capsys, "exotic", "--n", "3", "--count", "3")
    assert code == 1
    assert out.splitlines()[1:2] + out.splitlines()[-1:] == [
        "surgeries along the surviving square-zero torus: 6 knots",
        "symplectic candidates: 6; non-symplectic candidates: 0",
    ]
    assert err == ("COLLISION among Seiberg-Witten values:\n"
                   "  torus(2,3) vs torus(2,3)\n"
                   "  torus(2,5) vs torus(2,5)\n"
                   "  torus(2,7) vs torus(2,7)\n")


def _signed_sum(terms):
    # (exponent, coefficient) pairs, highest exponent first, printed the
    # way the CLI prints a ledger (exponents here are even, never 1)
    text = ""
    for e, c in terms:
        if e == 0:
            term = str(abs(c))
        else:
            term = f"t^{e}" if abs(c) == 1 else f"{abs(c)}*t^{e}"
        if not text:
            text = f"-{term}" if c < 0 else term
        else:
            text += f" - {term}" if c < 0 else f" + {term}"
    return text


def test_exotic_at_benchmark_scale(capsys):
    count = 200
    code, out, err = run(capsys, "exotic", "--n", "3", "--count", str(count))
    assert code == 0
    assert err == ""
    expected = [
        "base manifold (n = 3): e = 4315, sigma = 337, c1^2 = 9641, chi_h = 1163",
        f"surgeries along the surviving square-zero torus: {2 * count} knots",
    ]
    for k in range(1, count + 1):
        # Delta_T(2,2k+1)(t^2) = sum_{i=-k..k} (-1)^(k-i) t^(2i)
        sw = _signed_sum([(2 * i, (-1) ** (k - i)) for i in range(k, -k - 1, -1)])
        expected.append(f"  torus(2,{2 * k + 1}): symplectic, monic, sw = {sw}")
    for m in range(2, count + 2):
        sw = _signed_sum([(2, m), (0, -(2 * m + 1)), (-2, m)])
        expected.append(f"  twist({m}): non-symplectic candidate, non-monic, sw = {sw}")
    expected += [
        f"symplectic candidates: {count}; non-symplectic candidates: {count}",
        "all Seiberg-Witten values pairwise distinct: "
        "the results are pairwise non-diffeomorphic",
    ]
    assert out.splitlines() == expected


# Every layer the trace harness (bench/trace_child.py) reads from sys.modules
# right after importing fourgeo.cli.
_TRACED_LAYERS = ("script", "pipeline", "geography", "calculus", "knots", "algebra", "blocks")

_IMPORT_PROBE = """
import io
import sys
import fourgeo.cli

last, scan, golden, kn, half, *layers = sys.argv[1:]


def main(*argv):
    # (exit code, stdout) of fourgeo.cli.main, with stdout held in memory
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = fourgeo.cli.main(list(argv))
    except SystemExit as exit_info:  # argparse ends help and usage errors itself
        code = exit_info.code
    sys.stdout, out = stdout, sys.stdout.getvalue()
    return code, out


def loaded():
    return " ".join(str(name in sys.modules)
                    for name in ("json", "argparse", "fractions", "decimal"))


print(loaded())
print(" ".join(layer for layer in layers if "fourgeo." + layer in sys.modules))
code, _ = main("geography", "--n-min", "2", "--n-max", "9",
               "--csv", scan + ".csv", "--svg", scan + ".svg")
print(code, loaded())
code, out = main("verify-paper", "--json")
with open(golden, encoding="utf-8") as fh:
    print(code, out == fh.read(), loaded())
for argv in (["exotic", "--n", "3", "--count", "25"],
             ["geography", "--n-min", "999999999800", "--n-max", "1000000000000",
              "--csv", scan + ".csv", "--svg", scan + ".svg"],
             ["build", kn, "--symbolic"],
             ["build", kn, "--n", "3"]):
    print(main(*argv)[0], loaded())
code, out = main("build", half)
print(code, "value = 1/2" in out.splitlines(), loaded())
print(main(last)[0], "argparse" in sys.modules)
"""


def test_cli_imports_every_layer_but_not_json(tmp_path):
    # well-formed commands import neither argparse nor json, and
    # verify-paper --json still writes the golden report; help and usage
    # errors import argparse.  A command whose numbers are all integral
    # never imports fractions (nor decimal, which it loads); one that prints
    # 1/2 does.  pytest imports all of them itself, so this runs in a fresh
    # interpreter without site packages
    golden = REPO / "tests" / "golden" / "verify_paper.json"
    half = tmp_path / "half.geo"
    half.write_text("report 1/2\n", encoding="utf-8")
    none = "False False False False"
    for last, code in (("--help", 0), ("exotic", 2)):
        argv = [sys.executable, "-S", "-c", _IMPORT_PROBE, last, str(tmp_path / "scan"),
                str(golden), KN_SCRIPT, str(half), *_TRACED_LAYERS]
        result = subprocess.run(argv, env=FRESH_ENV, capture_output=True, text=True, timeout=60)
        assert result.stdout.splitlines() == [
            none, " ".join(_TRACED_LAYERS), f"0 {none}", f"0 True {none}",
            *[f"0 {none}"] * 4, "0 True False False True True", f"{code} True"]
        assert (result.stderr == "") == (code == 0)


# -- the command-line grammar: _parse_plain against argparse --------------------

_FLAGS = sorted({flag for *_, options in cli._GRAMMAR.values() for flag, *_ in options})
# values that int() or a path takes, and values that only argparse may read
_PLAIN = ["3", "25", " 8", "7_0", "\u0663", "x.geo", ""]
_ODD = ["-3", "0x10", "--", "-h", "--n"]
_WORDS = [*_FLAGS, *(flag[:k] for flag in _FLAGS for k in range(3, len(flag))),
          "--n=3", "--count=25", "--help", *cli._GRAMMAR, *_PLAIN, *_ODD]


@st.composite
def _command_lines(draw):
    # a command (or not), its positional and each of its options three times
    # in four, in any order, and at times one more word of any kind
    command = draw(st.sampled_from([*cli._GRAMMAR, "nosuch", "-h"]))
    _, _, positional, _, options = cli._GRAMMAR.get(command, (None, None, None, (), ()))
    value = st.sampled_from(["3", "25"]) | st.sampled_from(_PLAIN) | st.sampled_from(_ODD)
    chunks = [[draw(value)]] if positional and draw(st.integers(0, 3)) else []
    for flag, _, kind, *_ in options:
        if draw(st.integers(0, 3)):
            chunks.append([flag] if kind is bool else [flag, draw(value)])
    chunks += [[word] for word in draw(st.lists(st.sampled_from(_WORDS), max_size=1))]
    return [command, *(word for chunk in draw(st.permutations(chunks)) for word in chunk)]


@settings(max_examples=1000, deadline=None)
@given(_command_lines())
def test_a_plain_parse_equals_argparse(argv):
    args = cli._parse_plain(argv)
    if args is not None:
        assert vars(args) == vars(cli.make_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["verify-paper", "--json"],
    ["verify-paper", "--json", "--n-max", "4"],
    ["geography", "--n-min", "8", "--n-max", "127", "--csv", "scan.csv", "--svg", "scan.svg"],
    ["build", KN_SCRIPT, "--symbolic"],
    ["build", KN_SCRIPT, "--n", "7"],
    ["exotic", "--n", "3", "--count", "112"],
])
def test_the_benchmark_commands_take_the_plain_parse(argv):
    args = cli._parse_plain(argv)
    assert args is not None
    assert vars(args) == vars(cli.make_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    [], ["nosuch"], ["exotic", "-h"], ["verify-paper", "--help"], ["exotic", "--n", "3"],
    ["exotic", "--n", "3", "--cou", "25"], ["exotic", "--n=3", "--count", "25"],
    ["exotic", "--n", "3", "--count", "25", "--count", "4"], ["build", KN_SCRIPT, "--n", "-3"],
    ["exotic", "--n", "3", "--count", "0x10"], ["build", KN_SCRIPT, "--n", "3", "--symbolic"],
    ["build"], ["build", "a.geo", "b.geo"], ["build", "--", KN_SCRIPT], ["verify-paper", "extra"],
    ["geography", "--n-min", "2", "--n-max", "3", "--csv"],
])
def test_argparse_reads_every_other_command_line(argv):
    assert cli._parse_plain(argv) is None


# -- verify-paper --json without json --------------------------------------------

# Strings of any code points but the surrogates U+D800..U+DFFF (category
# Cs), half of them with a run of characters that json.dumps escapes.  Text
# over the union of both alphabets gives the same strings, but draws each
# character through one_of; text over st.characters alone draws a whole
# string at once, and this strategy takes a third of the time.
_ANY_TEXT = st.text(st.characters(blacklist_categories=("Cs",)))
_ESCAPED_RUN = st.text(st.sampled_from('"\\\x00\x1f\x7f\u00e9\u20ac\U0001f600'), min_size=1)
_TEXT = st.one_of(_ANY_TEXT, st.tuples(_ANY_TEXT, _ESCAPED_RUN, _ANY_TEXT).map("".join))
_CHECKS = st.lists(st.builds(CheckResult, _TEXT, _TEXT, _TEXT, st.booleans(), _TEXT), max_size=4)
_ESCAPED = '"\\\n\r\t\b\f\x00\x1f\x7f ~\u00e9\u20ac\U0001f600'


@settings(max_examples=300, deadline=None)
@given(_CHECKS)
@example([])
@example([CheckResult(_ESCAPED, "", _ESCAPED[::-1], False, "\u00e9"),
          CheckResult("n^7", "n^7", "n^7", True)])
def test_the_json_report_equals_json_dumps(checks):
    payload = [{"name": c.name, "expected": c.expected, "got": c.got, "pass": c.passed,
                "note": c.note} for c in checks]
    assert cli._json_report(checks) == json.dumps(payload, indent=2)


# -- the process entry point: fourgeo.cli.run ---------------------------------


def test_exotic_at_scale_in_a_fresh_process_gives_the_in_process_bytes(capsys, fresh):
    argv = ["exotic", "--n", "3", "--count", "1000"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    code, out, err = fresh(*argv)
    assert (code, err) == (0, "")
    assert out == captured.out.encode("utf-8")  # many buffer flushes
    assert out.count(b"\n") == 2004


def _peak_rss_kib(*argv):
    # tests/peak_rss.py forks the command from a small interpreter: a child
    # forked from this process would start at its size, over 100 MB late in
    # the suite, and hide the command's own peak
    result = subprocess.run([sys.executable, str(REPO / "tests" / "peak_rss.py"), *argv],
                            env=FRESH_ENV, capture_output=True, text=True, timeout=120)
    code, kib = map(int, result.stdout.split())
    assert (code, result.stderr) == (0, "")
    return kib


def test_exotic_peak_memory_barely_grows_with_the_count():
    # one ledger alive at a time: C = 1000 keeps about 4000 terms, not 10^6
    small, large = (_peak_rss_kib("-m", "fourgeo.cli", "exotic", "--n", "3", "--count", c)
                    for c in ("25", "1000"))
    assert large - small <= 8 * 1024


@pytest.mark.parametrize("argv, want", [
    (["exotic", "--n", "3", "--count", "4"], 0),
    (["build", "{script}"], 1),  # a located evaluation error
    (["exotic", "--n", "1", "--count", "4"], 2),  # a library ValueError
    (["geography", "--n-min", "2"], 2),  # argparse: --n-max missing
])
def test_a_fresh_process_exits_as_main_returns(capsys, fresh, tmp_path, argv, want):
    script = tmp_path / "rh.geo"
    script.write_text("report riemann_hurwitz(0, 1, 3, 0)\n")
    argv = [arg.format(script=script) for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exit_info:  # argparse ends usage errors itself
        code = exit_info.code
    captured = capsys.readouterr()
    assert code == want
    assert fresh(*argv) == (want, captured.out.encode("utf-8"), captured.err)


def test_closed_stdout_exits_0_silently():
    # with fd 1 closed, sys.stdout is None and print writes nothing
    for argv in ("exotic --n 3 --count 25", "geography --n-min 2 --n-max 5"):
        command = f'exec "$0" -m fourgeo.cli {argv} >&-'
        result = subprocess.run(["bash", "-c", command, sys.executable], env=FRESH_ENV,
                                capture_output=True, timeout=120)
        assert (argv, result.returncode, result.stderr) == (argv, 0, b"")


@pytest.mark.parametrize("count, read_first_line", [(1000, True), (5, False)])
def test_a_reader_that_closes_the_pipe_ends_the_command_quietly(count, read_first_line):
    proc = subprocess.Popen([*FRESH_CLI, "exotic", "--n", "3", "--count", str(count)],
                            env=FRESH_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if read_first_line:
        assert proc.stdout.readline().startswith(b"base manifold (n = 3)")
    proc.stdout.close()  # every later write of the command meets a closed pipe
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["exotic", "--n", "3", "--count", "25"],  # fails inside the command
    ["build", KN_SCRIPT, "--symbolic"],  # fits the buffer: fails at the final flush
])
def test_a_full_stdout_is_an_error_exit_2(argv):
    with open("/dev/full", "wb") as full:
        result = subprocess.run([*FRESH_CLI, *argv], env=FRESH_ENV, stdout=full,
                                stderr=subprocess.PIPE, timeout=120)
    assert result.returncode == 2
    assert result.stderr == b"error: [Errno 28] No space left on device\n"


class _Exited(Exception):
    pass


@pytest.mark.parametrize("failure, code, err", [
    (None, 2, _DEGENERATE),
    (BrokenPipeError(32, "Broken pipe"), 1, ""),
    (OSError(28, "No space left on device"), 2, "error: [Errno 28] No space left on device\n"),
])
def test_run_ends_the_process_with_the_code(capsys, monkeypatch, failure, code, err):
    def hard_exit(status):
        raise _Exited(status)

    def failing_main():
        raise failure

    monkeypatch.setattr(sys, "argv", ["fourgeo", "exotic", "--n", "1", "--count", "4"])
    monkeypatch.setattr(os, "_exit", hard_exit)
    if failure is not None:
        monkeypatch.setattr(cli, "main", failing_main)
    with pytest.raises(_Exited) as exit_info:
        cli.run()
    assert exit_info.value.args == (code,)
    assert capsys.readouterr().err == err


def test_console_script_names_run():
    pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    assert '\nfourgeo = "fourgeo.cli:run"\n' in pyproject
