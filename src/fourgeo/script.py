"""Construction-script language (.geo files): compiler and evaluator.

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

parse compiles each statement's expression to a flat postfix program of
(op, arg, line, col) instructions with one operator-precedence loop, which
keeps pending operators and open parentheses and calls on explicit stacks;
evaluate runs each program in one loop over a value stack.  Neither
recurses, so nesting depth is unlimited.  A call's arguments are compiled
in parameter order, each followed by a check of its kind; a call whose
arguments do not fit its operation compiles to one instruction that fails
when reached, so that is an evaluation error, like every error that
depends on values.

Values are exact scalars, manifold records or marked surfaces; evaluation is
deterministic and delegates to the calculus operations, so a script computes
exactly what the equivalent direct calls compute.
"""

from __future__ import annotations

from .algebra import Poly, Scalar, as_scalar, divide_exact, nonzero
from .blocks import BLOCKS
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
# Statements

# A postfix instruction (op, arg, line, col).  op is "num" (arg: the int),
# "n", "name" (arg: the identifier), "neg", a binary operator + - * / ^,
# "check" (arg: (operation, parameter, kind) the value on top must fit),
# "call" (arg: the operation) or "fail" (arg: the message it raises).
_Instr = tuple[str, object, int, int]


class Node(Record):
    """A statement: Let or Report."""


class Let(Node):
    name: str
    program: tuple[_Instr, ...]


class Report(Node):
    program: tuple[_Instr, ...]


class Script(Record):
    statements: tuple[Node, ...]


# --------------------------------------------------------------------------
# Tokenizer

# Whitespace (str.isspace) matches no alternative and is skipped.  \d is
# exactly the digits int() accepts, so "2²" is INT "2" and then a bad "²";
# \w is str.isalnum or "_", and an identifier must also start with a letter
# or "_", which _tokenize checks because re has no class for it.  Only
# `build` reads a script, so re is imported in _tokenize, not with the
# package, and the pattern is compiled there once and then found in re's
# cache.
_TOKEN = r"(?P<INT>\d+)|(?P<IDENT>\w+)|(?P<PUNCT>[()=,+\-*/^])|(?P<BAD>\S)"

_Tok = tuple[str, str, int, int]  # (kind, text, line, col)


def _tokenize(text: str) -> list[_Tok]:
    """Split text into (kind, text, line, col) tuples; kind is INT, IDENT,
    the punctuation character itself, NEWLINE (after each line that has a
    token) or EOF."""
    import re

    token = re.compile(_TOKEN)
    tokens = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        for m in token.finditer(raw.split("#", 1)[0]):
            kind, word, col = m.lastgroup, m.group(), m.start() + 1
            if kind == "PUNCT":
                kind = word
            elif kind == "BAD" or (kind == "IDENT" and not (word[0].isalpha() or word[0] == "_")):
                raise ScriptError(lineno, col, f"unexpected character {word[0]!r}")
            tokens.append((kind, word, lineno, col))
        if tokens and tokens[-1][0] != "NEWLINE":
            tokens.append(("NEWLINE", "", lineno, len(raw) + 1))
    tokens.append(("EOF", "", text.count("\n") + 1, 1))
    return tokens


def _expected(what: str, tok: _Tok) -> ScriptError:
    kind, word, line, col = tok
    return ScriptError(line, col, f"expected {what}, found {word or kind!r}")


# --------------------------------------------------------------------------
# Compiler

# Binding strength; "neg" is the prefix minus.  "^" binds tightest and is
# right-associative, so it pops no pending operator; the others pop every
# pending operator that binds at least as tightly.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def parse(text: str) -> Script:
    """Compile script text to statements holding postfix programs; raises
    ScriptError with location."""
    tokens = _tokenize(text)
    statements: list[Node] = []
    bound: set[str] = set()
    report_seen = False
    pos = 0
    while tokens[pos][0] != "EOF":
        kind, word, line, col = tokens[pos]
        if kind == "IDENT" and word == "let":
            name_kind, name, name_line, name_col = tokens[pos + 1]
            if name_kind != "IDENT":
                raise _expected("a name to bind", tokens[pos + 1])
            if name in bound or name in BLOCKS or name == "n":
                raise ScriptError(name_line, name_col, f"name {name!r} is already bound")
            if tokens[pos + 2][0] != "=":
                raise _expected("'='", tokens[pos + 2])
            program, pos = _compile(tokens, pos + 3)
            statements.append(Let(name, program))
            bound.add(name)
        elif kind == "IDENT" and word == "report":
            if report_seen:
                raise ScriptError(line, col, "only one 'report' statement is allowed")
            report_seen = True
            program, pos = _compile(tokens, pos + 1)
            statements.append(Report(program))
        else:
            raise _expected("'let' or 'report'", tokens[pos])
        if tokens[pos][0] == "NEWLINE":
            pos += 1
        elif tokens[pos][0] != "EOF":
            raise _expected("end of statement", tokens[pos])
    if not report_seen:
        _, _, line, col = tokens[pos]
        raise ScriptError(line, col, "script needs exactly one 'report' statement")
    return Script(tuple(statements))


def _compile(tokens: list[_Tok], pos: int) -> tuple[tuple[_Instr, ...], int]:
    """Compile the expression that starts at tokens[pos]; returns its
    postfix program and the position of the first token after it.

    `out` is the code of the innermost open group and `ops` its pending
    operators.  An open "(" or call pushes a frame (the enclosing out and
    ops, the "(" token, and for a call its name token and arguments) and
    starts fresh pending operators.  Each call argument is compiled into
    its own code list, so the call can put them in parameter order."""
    out: list[_Instr] = []
    ops: list[_Instr] = []
    frames: list[tuple] = []
    want_operand = True
    while True:
        tok = tokens[pos]
        kind, word, line, col = tok
        if want_operand:
            pos += 1
            if kind == "-":
                ops.append(("neg", None, line, col))
                continue
            if kind == "(":
                frames.append((out, ops, tok, None, None))
                ops = []
                continue
            want_operand = False
            if kind == "INT":
                out.append(("num", int(word), line, col))
            elif kind == "IDENT" and word == "n":
                out.append(("n", None, line, col))
            elif kind == "IDENT" and tokens[pos][0] == "(":
                if tokens[pos + 1][0] == ")":
                    out += _call_program(tok, [])
                    pos += 2
                    continue
                args: list[tuple[_Tok | None, list[_Instr]]] = []  # (name token, code)
                frames.append((out, ops, tokens[pos], tok, args))
                pos = _start_argument(tokens, pos + 1, tokens[pos], args)
                out, ops = args[-1][1], []
                want_operand = True
            elif kind == "IDENT":
                out.append(("name", word, line, col))
            else:
                raise _expected("a value", tok)
            continue
        # an operand is complete: a binary operator continues the expression
        if kind in _PRECEDENCE:
            if kind != "^":
                rank = _PRECEDENCE[kind]
                while ops and _PRECEDENCE[ops[-1][0]] >= rank:
                    out.append(ops.pop())
            ops.append((kind, None, line, col))
            pos += 1
            want_operand = True
            continue
        # anything else ends the innermost group's expression
        out.extend(reversed(ops))
        if not frames:
            return tuple(out), pos
        outer_out, outer_ops, open_tok, fn_tok, args = frames[-1]
        if fn_tok is None:
            if kind != ")":
                raise ScriptError(open_tok[2], open_tok[3], "unclosed '('")
            frames.pop()
            ops = outer_ops
            pos += 1
            continue
        key = args[-1][0]
        if key and any(other and other[1] == key[1] for other, _ in args[:-1]):
            raise ScriptError(key[2], key[3], f"duplicate argument {key[1]!r}")
        if kind == ",":
            pos = _start_argument(tokens, pos + 1, open_tok, args)
            out, ops = args[-1][1], []
            want_operand = True
            continue
        if kind != ")":
            raise ScriptError(open_tok[2], open_tok[3], "unclosed '(' in call")
        frames.pop()
        out, ops = outer_out, outer_ops
        out += _call_program(fn_tok, args)
        pos += 1


def _start_argument(tokens: list[_Tok], pos: int, open_tok: _Tok, args: list) -> int:
    """Start the call argument at tokens[pos]: append its `name =` token
    (None if it is positional) and an empty code list to args; returns the
    position of its expression."""
    kind, _, line, col = tokens[pos]
    if kind == "EOF" or kind == "NEWLINE":
        raise ScriptError(open_tok[2], open_tok[3], "unclosed '(' in call")
    if kind == "IDENT" and tokens[pos + 1][0] == "=":
        args.append((tokens[pos], []))
        return pos + 2
    if any(key for key, _ in args):
        raise ScriptError(line, col, "positional argument after named arguments")
    args.append((None, []))
    return pos


def _call_program(fn_tok: _Tok, args: list) -> list[_Instr]:
    """The code of a call: each argument's code in parameter order, followed
    by a check of its kind at the argument's last instruction, then the
    call.  Arguments that do not fit the operation give one "fail"."""
    _, fn, line, col = fn_tok

    def fail(message: str) -> list[_Instr]:
        return [("fail", message, line, col)]

    if fn not in _OPERATIONS:
        return fail(f"unknown operation {fn!r}")
    params, _ = _OPERATIONS[fn]
    positional = [code for key, code in args if key is None]
    if len(positional) > len(params):
        return fail(f"{fn} takes {len(params)} arguments, got {len(args)}")
    slots = {pname: code for (pname, _), code in zip(params, positional)}
    valid = {pname for pname, _ in params}
    for (_, name, _, _), code in args[len(positional):]:
        if name not in valid:
            return fail(f"{fn} has no argument named {name!r} (expected: {', '.join(sorted(valid))})")
        if name in slots:
            return fail(f"argument {name!r} given twice")
        slots[name] = code
    missing = [pname for pname, _ in params if pname not in slots]
    if missing:
        return fail(f"{fn} is missing argument(s): {', '.join(missing)}")
    program = []
    for pname, kind in params:
        code = slots[pname]
        program += code
        program.append(("check", (fn, pname, kind), code[-1][2], code[-1][3]))
    program.append(("call", fn, line, col))
    return program


# --------------------------------------------------------------------------
# Evaluator

#: operation name -> (ordered parameters with their expected kinds, the
#: operation applied to the evaluated arguments by parameter name).  Kinds
#: are "manifold", "surface" and "scalar".  The lambdas look the calculus
#: functions up in this module's globals when they run, so rebinding one
#: (as the benchmark's tracer does) reaches every script call.
_OPERATIONS = {
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


# the kinds of value that are not scalars
_NOT_SCALAR = (ManifoldRecord, MarkedSurface)


def _kind_of(value) -> str:
    if isinstance(value, ManifoldRecord):
        return "manifold"
    if isinstance(value, MarkedSurface):
        return "surface"
    return "scalar"


# Caps on one power; timed on a shared 2-core Xeon VM
_MAX_POWER_DEGREE = 1000  # (n+2)^1000 takes 0.36 s
_MAX_POWER_BITS = 2**16  # 3^41000 (64,984 bits) takes 0.9 ms, and 7 ms to print


def _binary(op: str, left, right):
    # left and right are normal scalars; the result is put in normal form,
    # since a sum, product, quotient or power of normal scalars can be an
    # integral Fraction or a constant Poly (n - n, n/n, n^0)
    if op == "+":
        return as_scalar(left + right)
    if op == "-":
        return as_scalar(left - right)
    if op == "*":
        return as_scalar(left * right)
    if op == "/":
        # a symbolic quotient stands for every n >= 2, so its divisor must
        # vanish at none of them, as the numeric build at each n requires
        if isinstance(right, Poly) and not nonzero(right):
            raise ValueError(f"division by zero: ({right}) is 0 at some n >= 2")
        return as_scalar(divide_exact(left, right))
    if isinstance(right, Poly) or right.denominator != 1 or right < 0:
        raise ValueError("exponent must be a nonnegative integer")
    base, exponent = left, right
    if isinstance(base, Poly):
        degree, pairs = base.degree * exponent, base.coefficient_pairs()
    else:
        degree, pairs = 0, [(base.numerator, base.denominator)]
    if degree > _MAX_POWER_DEGREE:
        raise ValueError(f"power too large: degree {degree} is above {_MAX_POWER_DEGREE}")
    # the result's bit length, estimated from the base's largest number
    bits = exponent * max((abs(a) + b).bit_length() for a, b in pairs)
    if bits > _MAX_POWER_BITS:
        raise ValueError(f"power too large: about {bits} bits, above {_MAX_POWER_BITS}")
    return as_scalar(base**exponent)


def _run(program: tuple[_Instr, ...], env: dict, param: Scalar):
    stack: list = []
    for op, arg, line, col in program:
        if op == "num":
            stack.append(arg)
        elif op == "n":
            stack.append(param)
        elif op == "name":
            if arg in env:
                stack.append(env[arg])
            elif arg in BLOCKS:
                stack.append(BLOCKS[arg])
            else:
                raise ScriptError(line, col, f"unknown identifier {arg!r}")
        elif op == "check":
            fn, pname, kind = arg
            got = _kind_of(stack[-1])
            if got != kind:
                raise ScriptError(
                    line, col,
                    f"{fn} argument {pname!r} must be {_KIND_NAMES[kind]}, got {_KIND_NAMES[got]}",
                )
        elif op == "call":
            params, operation = _OPERATIONS[arg]
            base = len(stack) - len(params)
            values = stack[base:]
            del stack[base:]
            try:
                stack.append(operation(*values))
            except (ValueError, KeyError) as err:
                message = err.args[0] if err.args else str(err)
                raise ScriptError(line, col, str(message)) from err
        elif op == "neg":
            if isinstance(stack[-1], _NOT_SCALAR):
                raise ScriptError(line, col, "negation applies to scalars only")
            stack[-1] = -stack[-1]
        elif op == "fail":
            raise ScriptError(line, col, arg)
        else:
            right = stack.pop()
            left = stack[-1]
            if isinstance(left, _NOT_SCALAR) or isinstance(right, _NOT_SCALAR):
                raise ScriptError(line, col, f"'{op}' applies to scalars only")
            try:
                stack[-1] = _binary(op, left, right)
            except (ValueError, ZeroDivisionError) as err:
                raise ScriptError(line, col, str(err)) from err
    return stack.pop()


def evaluate(script: Script, n: int | None = None):
    """Run a parsed script, one statement's program after another, each on
    a value stack; returns the reported value (a scalar, marked surface or
    manifold record).  n = None means symbolic mode; any other n must be an
    integer >= 2 (ValueError otherwise, before any statement runs).
    Nothing recurses, so no nesting depth is too deep."""
    param = parameter(n)
    env: dict[str, object] = {}
    result = None
    for stmt in script.statements:
        value = _run(stmt.program, env, param)
        if isinstance(stmt, Let):
            env[stmt.name] = value
        else:
            result = value
    return result
