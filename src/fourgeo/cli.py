"""Command-line front end.

Subcommands:

  build <script.geo> [--n K | --symbolic]   run a construction script
  verify-paper [--json] [--n-max K]         re-check every closed-form result
  geography --n-min A --n-max B [--csv P] [--svg P]
  exotic --n K --count C                    knot-surgery family report

Exit codes: 0 success, 1 check/construction failure (or, quietly, a reader
that closed the output pipe early), 2 usage or parse error, an argument the
library rejects (its ValueError message is printed) or any other failed write
to standard output.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import geography
from .calculus import ManifoldRecord, MarkedSurface
from .pipeline import exotic_stream, verify_formulas
from .script import ScriptError, evaluate, parse


def _print_manifold(record: ManifoldRecord, out) -> None:
    inv = record.invariants()
    print(f"e     = {inv['e']}", file=out)
    print(f"sigma = {inv['sigma']}", file=out)
    print(f"c2    = {inv['c2']}", file=out)
    print(f"c1^2  = {inv['c1sq']}", file=out)
    print(f"chi_h = {inv['chi_h']}", file=out)
    print(f"simply connected: {record.simply_connected}", file=out)
    print(f"symplectic: {record.symplectic}", file=out)
    if record.sw is not None:
        print(f"sw ledger: {record.sw}", file=out)
    for name, surface in record.surfaces:
        print(f"surface {name}: {surface}", file=out)
    print("log:", file=out)
    for entry in record.log:
        print(f"  {entry}", file=out)


def _cmd_build(args) -> int:
    try:
        # utf-8-sig skips a leading byte-order mark, as Python's source reader does
        with open(args.script, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        ast = parse(text)
    except ScriptError as err:
        print(f"{args.script}: {err}", file=sys.stderr)
        return 2
    try:
        value = evaluate(ast, args.n)
    except ScriptError as err:
        print(f"{args.script}: {err}", file=sys.stderr)
        return 1
    mode = "symbolic (polynomials in n)" if args.n is None else f"numeric, n = {args.n}"
    print(f"mode: {mode}")
    if isinstance(value, ManifoldRecord):
        _print_manifold(value, sys.stdout)
    elif isinstance(value, MarkedSurface):
        print(f"surface: {value}")
    else:
        print(f"value = {value}")
    return 0


def _cmd_verify(args) -> int:
    checks = verify_formulas(n_max=args.n_max)
    if args.json:
        print(_json_report(checks))
    else:
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"[{status}] {c.name}: expected {c.expected}, got {c.got}")
        warnings = [c for c in checks if c.note]
        if warnings:
            print()
            print("warnings:")
            for c in warnings:
                print(f"  {c.name}: {c.note}")
        failed = sum(1 for c in checks if not c.passed)
        print()
        print(f"{len(checks)} checks: {len(checks) - failed} passed, {failed} failed, "
              f"{len(warnings)} warning(s)")
    return 0 if all(c.passed for c in checks) else 1


def _cmd_geography(args) -> int:
    rows = geography.scan(args.n_min, args.n_max)
    csv_text = geography.render_csv(rows)
    try:
        if args.csv:
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                fh.write(csv_text)
        else:
            print(csv_text, end="")  # skipped, as every print is, when stdout is None
        if args.svg:
            with open(args.svg, "w", encoding="utf-8", newline="") as fh:
                fh.write(geography.render_svg(rows))
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


def _cmd_exotic(args) -> int:
    # each entry is printed as it is built; every argument is checked first
    base, knots, stream = exotic_stream(args.n, args.count)
    print(f"base manifold (n = {args.n}): e = {base.e}, sigma = {base.sigma}, "
          f"c1^2 = {base.c1sq}, chi_h = {base.chi_h}")
    print(f"surgeries along the surviving square-zero torus: {len(knots)} knots")
    symplectic, pairs = 0, []
    for j, (entry, earlier) in enumerate(stream):
        symplectic += entry.symplectic_candidate
        pairs += [(i, j) for i in earlier]
        kind = "symplectic" if entry.symplectic_candidate else "non-symplectic candidate"
        monic = "monic" if entry.monic else "non-monic"
        note = f"  [{entry.note}]" if entry.note else ""
        print(f"  {entry.knot}: {kind}, {monic}, sw = {entry.sw}{note}")
    print(f"symplectic candidates: {symplectic}; "
          f"non-symplectic candidates: {len(knots) - symplectic}")
    if not pairs:
        print("all Seiberg-Witten values pairwise distinct: "
              "the results are pairwise non-diffeomorphic")
        return 0
    print("COLLISION among Seiberg-Witten values:", file=sys.stderr)
    for i, j in sorted(pairs):
        print(f"  {knots[i].descriptor} vs {knots[j].descriptor}", file=sys.stderr)
    return 1


# json.dumps's escapes (ensure_ascii=True) of the ASCII characters it escapes
_JSON_ESCAPES = {code: f"\\u{code:04x}" for code in (*range(0x20), 0x7F)}
_JSON_ESCAPES.update({ord(c): "\\" + e for c, e in zip('"\\\n\r\t\b\f', '"\\nrtbf')})


def _json_u(code: int) -> str:
    if code > 0xFFFF:  # a surrogate pair
        return _json_u(0xD800 | (code - 0x10000) >> 10) + _json_u(0xDC00 | code & 0x3FF)
    return f"\\u{code:04x}"


def _json_str(text: str) -> str:
    # as json.dumps(text) writes it: every non-ASCII character as \uXXXX
    text = text.translate(_JSON_ESCAPES)
    if not text.isascii():
        text = "".join(ch if ch.isascii() else _json_u(ord(ch)) for ch in text)
    return f'"{text}"'


def _json_report(checks) -> str:
    """The checks as json.dumps(..., indent=2) writes the list of their
    {name, expected, got, pass, note} objects; written here because
    importing json costs more than this whole report."""
    entries = [
        f'  {{\n    "name": {_json_str(c.name)},\n    "expected": {_json_str(c.expected)},\n'
        f'    "got": {_json_str(c.got)},\n    "pass": {"true" if c.passed else "false"},\n'
        f'    "note": {_json_str(c.note)}\n  }}'
        for c in checks
    ]
    return "[\n" + ",\n".join(entries) + "\n]" if entries else "[]"


# The command-line grammar, stated once: make_parser builds argparse from it
# and _parse_plain reads well-formed argv against it.  Per command: its help,
# handler, positional (name, help) or None, the options that exclude each
# other, and each option as (flag, dest, kind, required, default, help),
# where kind is int, str or bool (a store_true flag).
_GRAMMAR = {
    "build": ("run a .geo construction script", _cmd_build, ("script", "path to the script"),
              ("--n", "--symbolic"), (
        ("--n", "n", int, False, None, "numeric mode at this parameter value"),
        ("--symbolic", "symbolic", bool, False, False,
         "symbolic mode (default): invariants as polynomials in n"),
    )),
    "verify-paper": ("re-derive and check every closed-form result", _cmd_verify, None, (), (
        ("--json", "json", bool, False, False, "machine-readable report"),
        ("--n-max", "n_max", int, False, 50,
         "top of the numeric cross-check range (default 50); "
         "the claims about every n are decided exactly"),
    )),
    "geography": ("scan the family into CSV/SVG", _cmd_geography, None, (), (
        ("--n-min", "n_min", int, True, None, None),
        ("--n-max", "n_max", int, True, None, None),
        ("--csv", "csv", str, False, None, "write CSV here (default: stdout)"),
        ("--svg", "svg", str, False, None, "write an SVG scatter of (chi_h, c1^2) here"),
    )),
    "exotic": ("pairwise-distinct smooth structures via knot surgery", _cmd_exotic, None, (), (
        ("--n", "n", int, True, None, None),
        ("--count", "count", int, True, None, "torus knots and twist knots to apply, each"),
    )),
}


def make_parser():
    """The argparse.ArgumentParser of _GRAMMAR: it parses every command line
    that _parse_plain leaves alone, and writes all help and usage errors."""
    import argparse  # only here: a well-formed command line never needs it

    parser = argparse.ArgumentParser(
        prog="fourgeo",
        description="Exact surgery calculus for 4-manifold geography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, fn, positional, exclusive, options) in _GRAMMAR.items():
        p_command = sub.add_parser(command, help=help_text)
        if positional:
            p_command.add_argument(positional[0], help=positional[1])
        group = p_command.add_mutually_exclusive_group() if exclusive else None
        for flag, dest, kind, required, default, help_text in options:
            kwargs = {"action": "store_true"} if kind is bool else {"type": kind}
            (group if flag in exclusive else p_command).add_argument(
                flag, dest=dest, required=required, default=default, help=help_text, **kwargs)
        p_command.set_defaults(fn=fn)
    return parser


def _parse_plain(argv):
    """The namespace make_parser().parse_args(argv) gives, for an argv that
    spells every option in full, at most once, with a value that does not
    start with '-' and passes its type.  Anything else -- help, an
    abbreviation, --opt=value, --, a repeat, a missing or extra argument,
    both options of an exclusive pair -- returns None and is left to
    argparse."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    _, fn, positional, exclusive, options = _GRAMMAR[argv[0]]
    kinds = {flag: kind for flag, _, kind, *_ in options}
    given, positionals = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
        elif token not in kinds or token in given:
            return None
        elif kinds[token] is bool:
            given[token] = True
        else:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            try:
                given[token] = kinds[token](value)
            except ValueError:
                return None
    if len(positionals) != (positional is not None) or len(given.keys() & exclusive) > 1:
        return None
    args = {"command": argv[0], "fn": fn}
    if positional:
        args[positional[0]] = positionals[0]
    for flag, dest, _, required, default, _ in options:
        if required and flag not in given:
            return None
        args[dest] = given.get(flag, default)
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    # Exact values are printed whole, past the int-to-str digit limit (which
    # interpreters before 3.10.7 lack); scripts bound each power instead.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(argv) or make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as err:  # the library rejected an argument before any work
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:  # construction drift
        print(f"error: {err}", file=sys.stderr)
        return 1


def run():
    """The process entry point, for `fourgeo` and `python -m fourgeo.cli`:
    main() on sys.argv, then flush stdout and stderr (each unless None, as
    when the command runs with that descriptor closed) and end the process
    with os._exit, skipping the interpreter's teardown.  That teardown clears
    every module and runs the final garbage collections: it decides and
    prints nothing, and costs about 8-12 ms of each command on a shared
    2-vCPU VM.

    Only a returned code exits this way.  A SystemExit from argparse (--help,
    usage errors), an uncaught exception and KeyboardInterrupt propagate and
    end the process normally.  A BrokenPipeError (the reader closed the pipe)
    ends it quietly with status 1, as the "Note on SIGPIPE" in Python's signal
    docs advises; os._exit flushes nothing, so stdout needs no redirection to
    os.devnull first.  Any other OSError, a failed write to stdout such as a
    full disk, prints "error: ..." and exits 2.

    Trade-off: exit handlers do not run.  fourgeo registers none, starts no
    thread and closes every file it opens in a `with` block, so nothing of
    its own is lost.  A handler that a site .pth file registers is skipped,
    as under mypy's util.hard_exit; certifi's, for example, cleans up after
    importlib.resources.as_file, which has nothing to remove for a package
    installed unzipped.
    """
    try:
        code = main()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except BrokenPipeError:
        code = 1
    except OSError as err:  # main() handles each file it opens: a standard stream failed
        print(f"error: {err}", file=sys.stderr)
        code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
