from fractions import Fraction
from pathlib import Path

import pytest

from fourgeo.algebra import N
from fourgeo.calculus import ManifoldRecord, MarkedSurface
from fourgeo.pipeline import build_family, family_targets
from fourgeo.script import (
    BinOp,
    Call,
    Num,
    ScriptError,
    Var,
    _tokenize,
    evaluate,
    parse,
)

KN_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "kn.geo"


def test_parse_single_let():
    ast = parse("let Y = blowup(T4, k=n^4)\nreport Y\n")
    assert len(ast.bindings) == 1
    let = ast.bindings[0]
    assert let.name == "Y"
    assert isinstance(let.expr, Call) and let.expr.fn == "blowup"
    assert let.expr.named == (("k", BinOp("^", Var(), Num(4))),)


def test_parse_error_unbalanced_paren():
    with pytest.raises(ScriptError) as err:
        parse("let Z = blowup(")
    assert err.value.line == 1
    assert err.value.col == 15  # the offending '('


def test_parse_error_locations():
    with pytest.raises(ScriptError) as err:
        parse("let A = 1\nlet B = ?\nreport A\n")
    assert (err.value.line, err.value.col) == (2, 9)


def test_tokenize_every_kind_with_positions():
    text = "let _x2 = f(3, k=-n^2 * 4/5) + 1  # note\n\nreport _x2"
    assert _tokenize(text) == [
        ("IDENT", "let", 1, 1), ("IDENT", "_x2", 1, 5), ("=", "=", 1, 9),
        ("IDENT", "f", 1, 11), ("(", "(", 1, 12), ("INT", "3", 1, 13), (",", ",", 1, 14),
        ("IDENT", "k", 1, 16), ("=", "=", 1, 17), ("-", "-", 1, 18), ("IDENT", "n", 1, 19),
        ("^", "^", 1, 20), ("INT", "2", 1, 21), ("*", "*", 1, 23), ("INT", "4", 1, 25),
        ("/", "/", 1, 26), ("INT", "5", 1, 27), (")", ")", 1, 28), ("+", "+", 1, 30),
        ("INT", "1", 1, 32), ("NEWLINE", "", 1, 41),
        ("IDENT", "report", 3, 1), ("IDENT", "_x2", 3, 8), ("NEWLINE", "", 3, 11),
        ("EOF", "", 3, 1),
    ]


def test_integer_literal_is_decimal_digits_only():
    # "²" passes str.isdigit but not int(): it is a bad character, located
    with pytest.raises(ScriptError) as err:
        parse("report 2²\n")
    assert (err.value.line, err.value.col) == (1, 9)
    assert err.value.message == "unexpected character '²'"


def test_parse_requires_exactly_one_report():
    with pytest.raises(ScriptError, match="exactly one 'report'"):
        parse("let A = 1\n")
    with pytest.raises(ScriptError, match="only one 'report'"):
        parse("report 1\nreport 2\n")


def test_parse_rejects_rebinding():
    with pytest.raises(ScriptError, match="already bound"):
        parse("let A = 1\nlet A = 2\nreport A\n")
    with pytest.raises(ScriptError, match="already bound"):
        parse("let T4 = 1\nreport T4\n")


def test_kn_script_shape():
    ast = parse(KN_SCRIPT.read_text())
    assert len(ast.bindings) == 6
    assert isinstance(ast.report.expr, Call)
    assert ast.report.expr.fn == "fiber_sum"


def test_kn_script_numeric_matches_pipeline():
    ast = parse(KN_SCRIPT.read_text())
    value = evaluate(ast, 3)
    assert isinstance(value, ManifoldRecord)
    assert value.chi_h == 1163
    assert value.sigma == 337
    direct = build_family(3).manifold
    assert value.invariants() == direct.invariants()


def test_kn_script_and_pipeline_agree_on_e_and_sigma():
    ast = parse(KN_SCRIPT.read_text())
    for n in (None, *range(2, 21)):
        value = evaluate(ast, n)
        direct = build_family(n).manifold
        assert (value.e, value.sigma) == (direct.e, direct.sigma), n


@pytest.mark.xfail(
    strict=True,
    reason="kn.geo's fiber_sum takes no pi_1 justification, so the script "
    "leaves simple connectivity unknown where the pipeline declares it",
)
def test_kn_script_and_pipeline_agree_on_simple_connectivity():
    value = evaluate(parse(KN_SCRIPT.read_text()), 8)
    direct = build_family(8).manifold
    assert value.simply_connected.value == direct.simply_connected.value


def test_kn_script_symbolic_matches_closed_forms():
    value = evaluate(parse(KN_SCRIPT.read_text()))
    targets = family_targets(N)
    assert value.c2 == targets["c2"]
    assert value.c1sq == targets["c1sq"]
    assert value.chi_h == targets["chi_h"]
    assert value.sigma == targets["sigma"]


def test_report_block():
    value = evaluate(parse("report T4\n"))
    assert value.e == 0 and value.sigma == 0
    reversed_plane = evaluate(parse("report CP2BAR\n"))
    assert (reversed_plane.e, reversed_plane.sigma) == (3, -1)
    k3 = evaluate(parse("report E2\n"))
    assert (k3.e, k3.sigma) == (24, -16)


def test_report_scalar_expression():
    value = evaluate(parse("report riemann_hurwitz(e_base=0, branch_points=3*n^2, degree=n^3, index=n)\n"))
    assert value == -3 * N**5 + 3 * N**4
    numeric = evaluate(parse("report 3/2 + 1\n"))
    assert numeric == Fraction(5, 2)


def test_report_surface():
    value = evaluate(parse("report surface(genus=2, self_int=-7)\n"))
    assert isinstance(value, MarkedSurface)
    assert (value.genus, value.self_int) == (2, -7)


def test_surface_blowup_in_script():
    text = "let C = surface(genus=0, self_int=-2)\nreport surface_blowup(C, points=2*n^3 - 2)\n"
    value = evaluate(parse(text))
    assert value.self_int == -2 * N**3


def test_unknown_identifier_location():
    with pytest.raises(ScriptError) as err:
        evaluate(parse("report blowup(Missing, k=1)\n"))
    assert "unknown identifier 'Missing'" in str(err.value)
    assert err.value.line == 1


def test_argument_name_mismatch():
    with pytest.raises(ScriptError, match="no argument named 'points'"):
        evaluate(parse("report blowup(T4, points=1)\n"))
    with pytest.raises(ScriptError, match="missing argument"):
        evaluate(parse("report blowup(T4)\n"))
    with pytest.raises(ScriptError, match="takes 2 arguments"):
        evaluate(parse("report blowup(T4, 1, 2)\n"))
    with pytest.raises(ScriptError, match="duplicate argument"):
        parse("report blowup(T4, k=1, k=2)\n")
    with pytest.raises(ScriptError, match="given twice"):
        evaluate(parse("report blowup(T4, 1, m=T4)\n"))


def test_unknown_operation():
    with pytest.raises(ScriptError, match="unknown operation"):
        evaluate(parse("report logarithmic_transform(T4)\n"))


def test_type_mismatch_message():
    with pytest.raises(ScriptError, match="must be a manifold"):
        evaluate(parse("report blowup(7, k=1)\n"))
    with pytest.raises(ScriptError, match="scalars only"):
        evaluate(parse("report T4 + 1\n"))


def test_operation_error_carries_location():
    with pytest.raises(ScriptError) as err:
        evaluate(parse("let Y = blowup(T4, k=n^4)\nreport blowup(Y, k=-1)\n"))
    assert err.value.line == 2


def test_surface_data_must_be_integral_in_scripts():
    for text in ("report surface(genus=1, self_int=1/2)\n", "report riemann_hurwitz(1/2, 0, 1, 1)\n"):
        for n in (None, 3):
            with pytest.raises(ScriptError, match="must be an integer, got 1/2") as err:
                evaluate(parse(text), n)
            assert (err.value.line, err.value.col) == (1, 8)


def test_deep_nesting_is_a_located_error():
    assert evaluate(parse("report " + "(" * 150 + "1" + ")" * 150)) == 1
    for text in ("report " + "(" * 200 + "1" + ")" * 200, "report " + "-" * 1000 + "1"):
        with pytest.raises(ScriptError, match="expression nested too deeply") as err:
            parse(text)
        assert err.value.line == 1 and 8 < err.value.col < len(text)
    # a long sum parses without recursion, but its tree is too deep to evaluate
    ast = parse("let X = 1\nreport " + " + ".join(["n"] * 2000))
    with pytest.raises(ScriptError, match="expression nested too deeply") as err:
        evaluate(ast)
    assert err.value.line == 2


def test_exponent_must_be_integer():
    with pytest.raises(ScriptError, match="exponent"):
        evaluate(parse("report 2^n\n"))


def test_division_is_exact():
    assert evaluate(parse("report (n^2 - 1)/(n - 1)\n")) == N + 1
    with pytest.raises(ScriptError, match="not exactly divisible"):
        evaluate(parse("report (n^2 + 1)/n\n"))


def test_precedence_and_associativity_evaluate_exactly():
    for text, expected in (
        ("report 1 + 2*3 - 4/5\n", Fraction(31, 5)),
        ("report -(n + 1)^2\n", -((N + 1) ** 2)),
        ("report -n^2 - (1 - n)*(1 + n)\n", -1),
        ("let A = riemann_hurwitz(0, 4, n^3, n)\nreport A\n", -4 * N**3 + 4 * N**2),
    ):
        assert evaluate(parse(text)) == expected
    record = evaluate(parse(KN_SCRIPT.read_text()))
    targets = family_targets(N)
    assert (record.c2, record.c1sq, record.chi_h, record.sigma) == (
        targets["c2"], targets["c1sq"], targets["chi_h"], targets["sigma"]
    )


def test_numeric_and_symbolic_agree_through_script():
    ast = parse(KN_SCRIPT.read_text())
    symbolic = evaluate(ast)
    for n in (2, 3, 5):
        numeric = evaluate(ast, n)
        assert symbolic.c1sq(n) == numeric.c1sq
        assert symbolic.chi_h(n) == numeric.chi_h


def test_comment_only_lines_and_blank_lines():
    text = "# header\n\n# another\nreport T4\n"
    value = evaluate(parse(text))
    assert value.e == 0
