"""Construction-script language (.geo files): parser and evaluator.

A script is a sequence of let-bindings, one per line, with exactly one
`report` statement naming the value the run is about:

    # comments run to end of line
    let Y = blowup(T4, k=n^4)
    report fiber_sum(X, F, N, FP)

Grammar (one statement per line):

    stmt    := "let" IDENT "=" expr | "report" expr
    expr    := sum
    sum     := product (("+" | "-") product)*
    product := unary (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := atom ("^" unary)?          -- right-associative
    atom    := INT | "n" | IDENT | IDENT "(" args ")" | "(" expr ")"
    args    := (IDENT "=" expr | expr) ("," ...)*

`n` is the only variable (the construction parameter); `^` is
exponentiation by a nonnegative integer; rational constants are written as
divisions (3/2).  Identifiers refer to earlier bindings or to the built-in
blocks T4, E2 and CP2BAR.  The callable operations are blowup,
branched_cover, resolve, fiber_sum, knot_surgery, riemann_hurwitz, plus the
surface constructor surface(genus=..., self_int=...) and surface_blowup.

Values are exact scalars, manifold records or marked surfaces; evaluation is
deterministic and delegates to the calculus operations, so a script computes
exactly what the equivalent direct calls compute.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from . import blocks
from .algebra import Poly, Scalar, as_scalar, divide_exact
from .calculus import (
    BranchData,
    ManifoldRecord,
    MarkedSurface,
    blow_up,
    branched_cover,
    fiber_sum,
    parameter,
    resolve_surfaces,
    riemann_hurwitz,
    surface_blowup,
)
from .knots import find_fibered_knot_of_genus, knot_surgery
from .record import Record


class ScriptError(Exception):
    """Parse or evaluation error with a 1-based source location."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


# --------------------------------------------------------------------------
# AST

class Node(Record):
    _metadata = ("line", "col")  # keyword-only, outside equality and hashing

    line: int = 0
    col: int = 0


class Num(Node):
    value: int


class Var(Node):
    """The construction parameter n."""


class Name(Node):
    ident: str


class BinOp(Node):
    op: str  # one of + - * / ^
    left: Node
    right: Node


class Neg(Node):
    operand: Node


class Call(Node):
    fn: str
    args: tuple[Node, ...]
    named: tuple[tuple[str, Node], ...]


class Let(Node):
    name: str
    expr: Node


class Report(Node):
    expr: Node


class Script(Record):
    statements: tuple[Node, ...]

    @property
    def bindings(self) -> tuple[Let, ...]:
        return tuple(s for s in self.statements if isinstance(s, Let))

    @property
    def report(self) -> Report:
        return next(s for s in self.statements if isinstance(s, Report))


# --------------------------------------------------------------------------
# Tokenizer

_PUNCT = "()=,+-*/^"


class _Token(Record):
    kind: str  # IDENT, INT, punct itself, NEWLINE, EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        i = 0
        while i < len(line):
            c = line[i]
            col = i + 1
            if c.isspace():
                i += 1
                continue
            if c.isdigit():
                j = i
                while j < len(line) and line[j].isdigit():
                    j += 1
                tokens.append(_Token("INT", line[i:j], lineno, col))
                i = j
            elif c.isalpha() or c == "_":
                j = i
                while j < len(line) and (line[j].isalnum() or line[j] == "_"):
                    j += 1
                tokens.append(_Token("IDENT", line[i:j], lineno, col))
                i = j
            elif c in _PUNCT:
                tokens.append(_Token(c, c, lineno, col))
                i += 1
            else:
                raise ScriptError(lineno, col, f"unexpected character {c!r}")
        if tokens and tokens[-1].kind != "NEWLINE":
            tokens.append(_Token("NEWLINE", "", lineno, len(raw) + 1))
    tokens.append(_Token("EOF", "", text.count("\n") + 1, 1))
    return tokens


# --------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.current
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.current
        if tok.kind != kind:
            shown = tok.text or tok.kind
            raise ScriptError(tok.line, tok.col, f"expected {what}, found {shown!r}")
        return self.advance()

    def skip_newlines(self):
        while self.current.kind == "NEWLINE":
            self.advance()

    def parse(self) -> Script:
        statements: list[Node] = []
        bound: set[str] = set()
        report_seen = False
        self.skip_newlines()
        while self.current.kind != "EOF":
            tok = self.current
            if tok.kind == "IDENT" and tok.text == "let":
                self.advance()
                name_tok = self.expect("IDENT", "a name to bind")
                if name_tok.text in bound or name_tok.text in _BLOCKS or name_tok.text == "n":
                    raise ScriptError(
                        name_tok.line, name_tok.col, f"name {name_tok.text!r} is already bound"
                    )
                self.expect("=", "'='")
                expr = self.expression()
                statements.append(Let(name_tok.text, expr, line=tok.line, col=tok.col))
                bound.add(name_tok.text)
            elif tok.kind == "IDENT" and tok.text == "report":
                if report_seen:
                    raise ScriptError(tok.line, tok.col, "only one 'report' statement is allowed")
                report_seen = True
                self.advance()
                expr = self.expression()
                statements.append(Report(expr, line=tok.line, col=tok.col))
            else:
                shown = tok.text or tok.kind
                raise ScriptError(tok.line, tok.col, f"expected 'let' or 'report', found {shown!r}")
            if self.current.kind == "EOF":
                break
            self.expect("NEWLINE", "end of statement")
            self.skip_newlines()
        if not report_seen:
            tok = self.current
            raise ScriptError(tok.line, tok.col, "script needs exactly one 'report' statement")
        return Script(tuple(statements))

    # expression parsing, lowest precedence first

    def expression(self) -> Node:
        return self.sum()

    def sum(self) -> Node:
        left = self.product()
        while self.current.kind in ("+", "-"):
            op = self.advance()
            right = self.product()
            left = BinOp(op.kind, left, right, line=op.line, col=op.col)
        return left

    def product(self) -> Node:
        left = self.unary()
        while self.current.kind in ("*", "/"):
            op = self.advance()
            right = self.unary()
            left = BinOp(op.kind, left, right, line=op.line, col=op.col)
        return left

    def unary(self) -> Node:
        if self.current.kind == "-":
            op = self.advance()
            return Neg(self.unary(), line=op.line, col=op.col)
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.current.kind == "^":
            op = self.advance()
            exponent = self.unary()
            return BinOp("^", base, exponent, line=op.line, col=op.col)
        return base

    def atom(self) -> Node:
        tok = self.current
        if tok.kind == "INT":
            self.advance()
            return Num(int(tok.text), line=tok.line, col=tok.col)
        if tok.kind == "IDENT":
            self.advance()
            if tok.text == "n":
                return Var(line=tok.line, col=tok.col)
            if self.current.kind == "(":
                open_paren = self.advance()
                args: list[Node] = []
                named: list[tuple[str, Node]] = []
                if self.current.kind != ")":
                    while True:
                        if self.current.kind == "EOF" or self.current.kind == "NEWLINE":
                            raise ScriptError(
                                open_paren.line, open_paren.col, "unclosed '(' in call"
                            )
                        if (
                            self.current.kind == "IDENT"
                            and self.tokens[self.pos + 1].kind == "="
                        ):
                            key = self.advance()
                            self.advance()  # '='
                            value = self.expression()
                            if any(k == key.text for k, _ in named):
                                raise ScriptError(
                                    key.line, key.col, f"duplicate argument {key.text!r}"
                                )
                            named.append((key.text, value))
                        else:
                            if named:
                                bad = self.current
                                raise ScriptError(
                                    bad.line,
                                    bad.col,
                                    "positional argument after named arguments",
                                )
                            args.append(self.expression())
                        if self.current.kind == ",":
                            self.advance()
                            continue
                        break
                if self.current.kind != ")":
                    raise ScriptError(open_paren.line, open_paren.col, "unclosed '(' in call")
                self.advance()
                return Call(tok.text, tuple(args), tuple(named), line=tok.line, col=tok.col)
            return Name(tok.text, line=tok.line, col=tok.col)
        if tok.kind == "(":
            self.advance()
            inner = self.expression()
            if self.current.kind != ")":
                raise ScriptError(tok.line, tok.col, "unclosed '('")
            self.advance()
            return inner
        shown = tok.text or tok.kind
        raise ScriptError(tok.line, tok.col, f"expected a value, found {shown!r}")


def parse(text: str) -> Script:
    """Parse script text into an AST; raises ScriptError with location."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# Evaluator

_BLOCKS = {
    "T4": blocks.torus4,
    "E2": blocks.k3_elliptic,
    "CP2BAR": blocks.cp2_reversed,
}

#: operation name -> (ordered parameters with their expected kinds, the
#: operation applied to the evaluated arguments by parameter name).  Kinds
#: are "manifold", "surface" and "scalar".  The lambdas look the calculus
#: functions up in this module's globals when they run, so rebinding one
#: (as the benchmark's tracer does) reaches every script call.
_OPERATIONS: dict[str, tuple[tuple[tuple[str, str], ...], Callable]] = {
    "blowup": (
        (("m", "manifold"), ("k", "scalar")),
        lambda m, k: blow_up(m, k),
    ),
    "surface": (
        (("genus", "scalar"), ("self_int", "scalar")),
        lambda genus, self_int: MarkedSurface(genus, self_int),
    ),
    "surface_blowup": (
        (("s", "surface"), ("points", "scalar")),
        lambda s, points: surface_blowup(s, points),
    ),
    "branched_cover": (
        (
            ("m", "manifold"),
            ("degree", "scalar"),
            ("index", "scalar"),
            ("e_branch", "scalar"),
            ("kdotd", "scalar"),
            ("dsq", "scalar"),
        ),
        lambda m, degree, index, e_branch, kdotd, dsq: branched_cover(
            m, BranchData(degree, index, e_branch, kdotd, dsq)
        ),
    ),
    "resolve": (
        (("s1", "surface"), ("s2", "surface"), ("k", "scalar")),
        lambda s1, s2, k: resolve_surfaces(s1, s2, k),
    ),
    "fiber_sum": (
        (("x", "manifold"), ("fx", "surface"), ("y", "manifold"), ("fy", "surface")),
        lambda x, fx, y, fy: fiber_sum(x, fx, y, fy),
    ),
    "knot_surgery": (
        (("m", "manifold"), ("knot_genus", "scalar")),
        lambda m, knot_genus: knot_surgery(
            m, find_fibered_knot_of_genus(knot_genus), torus="fiber"
        ),
    ),
    "riemann_hurwitz": (
        (
            ("e_base", "scalar"),
            ("branch_points", "scalar"),
            ("degree", "scalar"),
            ("index", "scalar"),
        ),
        lambda e_base, branch_points, degree, index: riemann_hurwitz(
            e_base, branch_points, degree, index
        ),
    ),
}

_KIND_NAMES = {
    "manifold": "a manifold",
    "surface": "a marked surface",
    "scalar": "a scalar",
}


def _kind_of(value) -> str:
    if isinstance(value, ManifoldRecord):
        return "manifold"
    if isinstance(value, MarkedSurface):
        return "surface"
    return "scalar"


class _Evaluator:
    def __init__(self, n: int | None):
        self.param: Scalar = parameter(n)
        self.env: dict[str, object] = {}

    def run(self, script: Script):
        result = None
        for stmt in script.statements:
            if isinstance(stmt, Let):
                self.env[stmt.name] = self._eval(stmt.expr)
            else:
                result = self._eval(stmt.expr)
        return result

    def _eval(self, node: Node):
        if isinstance(node, Num):
            return Fraction(node.value)
        if isinstance(node, Var):
            return self.param
        if isinstance(node, Name):
            if node.ident in self.env:
                return self.env[node.ident]
            if node.ident in _BLOCKS:
                return _BLOCKS[node.ident]()
            raise ScriptError(node.line, node.col, f"unknown identifier {node.ident!r}")
        if isinstance(node, Neg):
            value = self._eval(node.operand)
            if _kind_of(value) != "scalar":
                raise ScriptError(node.line, node.col, "negation applies to scalars only")
            return -value
        if isinstance(node, BinOp):
            return self._eval_binop(node)
        if isinstance(node, Call):
            return self._eval_call(node)
        raise ScriptError(node.line, node.col, f"cannot evaluate {node!r}")

    def _eval_binop(self, node: BinOp):
        left = self._eval(node.left)
        right = self._eval(node.right)
        if _kind_of(left) != "scalar" or _kind_of(right) != "scalar":
            raise ScriptError(node.line, node.col, f"'{node.op}' applies to scalars only")
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                return divide_exact(left, right)
            exponent = as_scalar(right)
            if isinstance(exponent, Poly) or exponent.denominator != 1 or exponent < 0:
                raise ValueError("exponent must be a nonnegative integer")
            return as_scalar(left) ** int(exponent)
        except (ValueError, ZeroDivisionError) as err:
            raise ScriptError(node.line, node.col, str(err)) from err

    def _eval_call(self, node: Call):
        if node.fn not in _OPERATIONS:
            raise ScriptError(node.line, node.col, f"unknown operation {node.fn!r}")
        params, operation = _OPERATIONS[node.fn]
        if len(node.args) > len(params):
            raise ScriptError(
                node.line, node.col,
                f"{node.fn} takes {len(params)} arguments, got {len(node.args) + len(node.named)}",
            )
        slots: dict[str, Node] = {}
        for (pname, _), arg in zip(params, node.args):
            slots[pname] = arg
        valid = {pname for pname, _ in params}
        for key, value in node.named:
            if key not in valid:
                raise ScriptError(
                    node.line, node.col,
                    f"{node.fn} has no argument named {key!r} "
                    f"(expected: {', '.join(sorted(valid))})",
                )
            if key in slots:
                raise ScriptError(node.line, node.col, f"argument {key!r} given twice")
            slots[key] = value
        missing = [pname for pname, _ in params if pname not in slots]
        if missing:
            raise ScriptError(
                node.line, node.col, f"{node.fn} is missing argument(s): {', '.join(missing)}"
            )
        values = {}
        for pname, kind in params:
            value = self._eval(slots[pname])
            got = _kind_of(value)
            if got != kind:
                raise ScriptError(
                    slots[pname].line or node.line,
                    slots[pname].col or node.col,
                    f"{node.fn} argument {pname!r} must be {_KIND_NAMES[kind]}, "
                    f"got {_KIND_NAMES[got]}",
                )
            values[pname] = value
        try:
            return operation(**values)
        except (ValueError, KeyError) as err:
            message = err.args[0] if err.args else str(err)
            raise ScriptError(node.line, node.col, str(message)) from err


def evaluate(script: Script, n: int | None = None):
    """Run a parsed script; returns the reported value (a scalar, marked
    surface or manifold record).  n = None means symbolic mode; any other n
    must be an integer >= 2 (ValueError otherwise, before any statement
    runs)."""
    return _Evaluator(n).run(script)
