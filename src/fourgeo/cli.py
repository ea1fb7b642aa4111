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

import argparse
import os
import sys
from typing import NoReturn

from . import geography
from .algebra import scalar_str
from .calculus import ManifoldRecord, MarkedSurface
from .pipeline import exotic_family, verify_formulas
from .script import ScriptError, evaluate, parse


def _print_manifold(record: ManifoldRecord, out) -> None:
    inv = record.invariants()
    print(f"e     = {scalar_str(inv['e'])}", file=out)
    print(f"sigma = {scalar_str(inv['sigma'])}", file=out)
    print(f"c2    = {scalar_str(inv['c2'])}", file=out)
    print(f"c1^2  = {scalar_str(inv['c1sq'])}", file=out)
    print(f"chi_h = {scalar_str(inv['chi_h'])}", file=out)
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
        with open(args.script, "r", encoding="utf-8") as fh:
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
        print(f"value = {scalar_str(value)}")
    return 0


def _cmd_verify(args) -> int:
    checks = verify_formulas(n_max=args.n_max)
    if args.json:
        import json  # only here, so other commands do not pay for its import

        payload = [
            {"name": c.name, "expected": c.expected, "got": c.got, "pass": c.passed, "note": c.note}
            for c in checks
        ]
        print(json.dumps(payload, indent=2))
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
            sys.stdout.write(csv_text)
        if args.svg:
            with open(args.svg, "w", encoding="utf-8", newline="") as fh:
                fh.write(geography.render_svg(rows))
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


def _cmd_exotic(args) -> int:
    report = exotic_family(args.n, args.count)
    base, family = report.base, report.family
    print(f"base manifold (n = {args.n}): e = {scalar_str(base.e)}, "
          f"sigma = {scalar_str(base.sigma)}, c1^2 = {scalar_str(base.c1sq)}, "
          f"chi_h = {scalar_str(base.chi_h)}")
    print(f"surgeries along the surviving square-zero torus: "
          f"{len(family.entries)} knots")
    for entry in family.entries:
        kind = "symplectic" if entry.symplectic_candidate else "non-symplectic candidate"
        monic = "monic" if entry.monic else "non-monic"
        note = f"  [{entry.note}]" if entry.note else ""
        print(f"  {entry.knot}: {kind}, {monic}, sw = {entry.sw}{note}")
    print(f"symplectic candidates: {len(family.symplectic())}; "
          f"non-symplectic candidates: {len(family.non_symplectic())}")
    if family.pairwise_distinct:
        print("all Seiberg-Witten values pairwise distinct: "
              "the results are pairwise non-diffeomorphic")
        return 0
    print("COLLISION among Seiberg-Witten values:", file=sys.stderr)
    for a, b in family.collisions:
        print(f"  {a} vs {b}", file=sys.stderr)
    return 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourgeo",
        description="Exact surgery calculus for 4-manifold geography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="run a .geo construction script")
    p_build.add_argument("script", help="path to the script")
    mode = p_build.add_mutually_exclusive_group()
    mode.add_argument("--n", type=int, help="numeric mode at this parameter value")
    mode.add_argument("--symbolic", action="store_true",
                      help="symbolic mode (default): invariants as polynomials in n")
    p_build.set_defaults(fn=_cmd_build)

    p_verify = sub.add_parser("verify-paper",
                              help="re-derive and check every closed-form result")
    p_verify.add_argument("--json", action="store_true", help="machine-readable report")
    p_verify.add_argument("--n-max", type=int, default=50,
                          help="top of the numeric cross-check range (default 50); "
                               "the claims about every n are decided exactly")
    p_verify.set_defaults(fn=_cmd_verify)

    p_geo = sub.add_parser("geography", help="scan the family into CSV/SVG")
    p_geo.add_argument("--n-min", type=int, required=True)
    p_geo.add_argument("--n-max", type=int, required=True)
    p_geo.add_argument("--csv", help="write CSV here (default: stdout)")
    p_geo.add_argument("--svg", help="write an SVG scatter of (chi_h, c1^2) here")
    p_geo.set_defaults(fn=_cmd_geography)

    p_exotic = sub.add_parser("exotic", help="pairwise-distinct smooth structures "
                                             "via knot surgery")
    p_exotic.add_argument("--n", type=int, required=True)
    p_exotic.add_argument("--count", type=int, required=True,
                          help="torus knots and twist knots to apply, each")
    p_exotic.set_defaults(fn=_cmd_exotic)
    return parser


def main(argv=None) -> int:
    # Exact values are printed whole, past the int-to-str digit limit (which
    # interpreters before 3.10.7 lack); scripts bound each power instead.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as err:  # the library rejected an argument before any work
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:  # construction drift
        print(f"error: {err}", file=sys.stderr)
        return 1


def run() -> NoReturn:
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
