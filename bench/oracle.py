"""Independent output oracle for the fourgeo benchmark.

Nothing here imports fourgeo.  The oracle holds its own copies of the
paper's closed forms and of the knot-surgery ledgers, parses what the CLI
printed, and decides whether each output is right.  Every check function
returns None when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction


# -- the paper's closed forms -----------------------------------------------

def c2(n):
    return n**7 + 12 * n**5 - 12 * n**4 + 6 * n**3 + 22


def c1sq(n):
    return 3 * n**7 + 20 * n**5 - 24 * n**4 + 6 * n**3 + 2


def sigma(n):
    # Hirzebruch: c1^2 = 3*sigma + 2*c2
    return Fraction(c1sq(n) - 2 * c2(n), 3)


def chi_h(n):
    # Noether: 12*chi_h = c1^2 + c2
    return Fraction(c1sq(n) + c2(n), 12)


FAMILY = {"e": c2, "c2": c2, "c1sq": c1sq, "sigma": sigma, "chi_h": chi_h}
FAMILY_DEGREE = 7

# Published rows (c2, c1^2, chi_h, sigma).  The paper prints sigma = 227 at
# n = 3, which contradicts its own other three entries; 337 is consistent.
PUBLISHED = {3: (4315, 9641, 1163, 337), 4: (26006, 63874, 7490, 3954)}


def self_check() -> None:
    """Raise unless the closed forms reproduce the published rows."""
    for n, row in PUBLISHED.items():
        got = (c2(n), c1sq(n), chi_h(n), sigma(n))
        if got != row:
            raise AssertionError(f"oracle closed forms disagree with the paper at n = {n}: {got}")


def format_decimal(x: Fraction, places: int = 6) -> str:
    """Fixed-point rendering, round half to even."""
    scale = 10**places
    scaled = round(Fraction(x) * scale)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // scale}.{scaled % scale:0{places}d}"


# -- parsing printed polynomials ----------------------------------------------

_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)(?:\*(\w)(?:\^(-?\d+))?)?|(\w)(?:\^(-?\d+))?)$")


def parse_poly(text: str, var: str) -> dict[int, Fraction]:
    """Parse '3*n^7 - 1/3*n^4 + n + 22' (or a Laurent polynomial in t) into
    {power: coefficient}.  Raises ValueError on anything else."""
    text = text.strip()
    if text == "0":
        return {}
    tokens = text.split(" ")
    sign = 1
    if tokens[0].startswith("-"):
        sign, tokens[0] = -1, tokens[0][1:]
    pieces = [(sign, tokens[0])]
    if (len(tokens) - 1) % 2:
        raise ValueError(f"malformed polynomial {text!r}")
    for op, body in zip(tokens[1::2], tokens[2::2]):
        if op not in "+-" or len(op) != 1:
            raise ValueError(f"malformed polynomial {text!r}")
        pieces.append((1 if op == "+" else -1, body))
    out: dict[int, Fraction] = {}
    for s, body in pieces:
        m = _TERM.match(body)
        if not m:
            raise ValueError(f"malformed term {body!r} in {text!r}")
        coeff_text, v1, p1, v2, p2 = m.groups()
        if coeff_text is not None:
            coeff = Fraction(coeff_text)
            variable, power = v1, p1
        else:
            coeff = Fraction(1)
            variable, power = v2, p2
        if variable is None:
            exp = 0
        elif variable == var:
            exp = 1 if power is None else int(power)
        else:
            raise ValueError(f"unexpected variable in {body!r}")
        if exp in out or coeff == 0:
            raise ValueError(f"repeated power or zero term in {text!r}")
        out[exp] = s * coeff
    return out


def poly_value(poly: dict[int, Fraction], x) -> Fraction:
    return sum((c * Fraction(x) ** e for e, c in poly.items()), Fraction(0))


def equal_as_polynomials(printed: str, model, degree_bound: int) -> str | None:
    """Compare a printed polynomial in n with a model function of n whose
    degree is at most degree_bound.  Both have degree <= D, so agreement at
    D + 1 points proves they are the same polynomial."""
    try:
        poly = parse_poly(printed, "n")
    except ValueError as err:
        return str(err)
    if any(e < 0 for e in poly):
        return f"negative power in {printed!r}"
    degree = max(poly, default=0)
    if degree > degree_bound:
        return f"printed degree {degree} exceeds the model's bound {degree_bound}"
    for x in range(2, degree_bound + 3):
        if poly_value(poly, x) != model(x):
            return f"{printed[:60]!r} differs from the model at n = {x}"
    return None


# -- knot-surgery ledgers -------------------------------------------------------

def torus_ledger(k: int) -> dict[int, int]:
    """Delta_{T(2,2k+1)}(t^2) = sum_{i=-k..k} (-1)^(k-i) t^(2i)."""
    return {2 * i: (-1) ** (k - i) for i in range(-k, k + 1)}


def twist_ledger(m: int) -> dict[int, int]:
    """Delta of the m-twist knot at t^2: m*t^2 - (2m+1) + m*t^-2."""
    return {2: m, 0: -(2 * m + 1), -2: m}


# -- per-command checks ------------------------------------------------------------

def check_paper(stdout: str) -> str | None:
    try:
        checks = json.loads(stdout)
    except ValueError as err:
        return f"verify-paper output is not JSON: {err}"
    if not checks:
        return "verify-paper printed no checks"
    failed = [c["name"] for c in checks if c.get("pass") is not True]
    if failed:
        return f"verify-paper failed checks: {failed[:3]}"
    by_name = {c["name"]: c for c in checks}
    symbolic = {
        "glued family: c2": c2,
        "glued family: c1^2": c1sq,
        "glued family: chi_h": chi_h,
        "glued family: sigma": sigma,
    }
    for name, model in symbolic.items():
        if name not in by_name:
            return f"missing check {name!r}"
        bad = equal_as_polynomials(by_name[name]["got"], model, FAMILY_DEGREE)
        if bad:
            return f"{name}: {bad}"
    for n, row in PUBLISHED.items():
        for key, value in zip(("c2", "c1sq", "chi_h", "sigma"), row):
            name = f"table n={n}: {key}"
            if name not in by_name or by_name[name]["got"] != str(value):
                return f"{name}: expected {value}"
    if "227" not in by_name["table n=3: sigma"]["note"]:
        return "the n = 3 sigma warning is missing"
    if by_name.get("sigma at n=2", {}).get("got") != str(sigma(2)):
        return f"sigma at n=2: expected {sigma(2)}"
    r50 = format_decimal(c1sq(50) / chi_h(50))
    if by_name.get("ratio at n=50 exceeds 8.99", {}).get("got") != r50:
        return f"ratio at n=50: expected {r50}"
    if by_name.get("limit of c1^2/chi_h", {}).get("got") != "9":
        return "limit of c1^2/chi_h: expected 9"
    return None


CSV_HEADER = "n,e,sigma,c1sq,chi_h,ratio,bmy_gap,side"


def _q(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _svg_coord(x: Fraction) -> str:
    return format_decimal(x, 2)


def check_geography(n_min: int, n_max: int, csv_text: str, svg_text: str) -> str | None:
    lines = csv_text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        return "CSV header or final newline missing"
    rows = lines[1:-1]
    if len(rows) != n_max - n_min + 1:
        return f"CSV has {len(rows)} rows, expected {n_max - n_min + 1}"
    for n, row in zip(range(n_min, n_max + 1), rows):
        gap = 9 * chi_h(n) - c1sq(n)
        side = "on" if gap == 0 else ("below" if gap > 0 else "above")
        want = ",".join((
            str(n), _q(c2(n)), _q(sigma(n)), _q(c1sq(n)), _q(chi_h(n)),
            format_decimal(c1sq(n) / chi_h(n)), _q(gap), side,
        ))
        if row != want:
            return f"CSV row n = {n} is wrong"
    # SVG: one labeled point per member, at (chi_h, c1^2) scaled linearly into
    # a 720 x 480 box with 5% headroom over the largest values.
    circles = re.findall(r'<circle cx="([\d.]+)" cy="([\d.]+)" r="3" fill="black"/>', svg_text)
    labels = re.findall(r'font-size="11">n=(\d+)</text>', svg_text)
    if not svg_text.startswith("<svg ") or not svg_text.endswith("</svg>\n"):
        return "SVG is not a complete document"
    if labels != [str(n) for n in range(n_min, n_max + 1)] or len(circles) != len(labels):
        return "SVG points or labels do not match the scanned range"
    x_max = max(max(chi_h(n) for n in range(n_min, n_max + 1)) * Fraction(21, 20), Fraction(1))
    y_max = max(max(c1sq(n) for n in range(n_min, n_max + 1)) * Fraction(21, 20), Fraction(1))
    for n, (cx, cy) in zip(range(n_min, n_max + 1), circles):
        want_x = _svg_coord(70 + chi_h(n) / x_max * 720)
        want_y = _svg_coord(620 - 70 - c1sq(n) / y_max * 480)
        if (cx, cy) != (want_x, want_y):
            return f"SVG point n = {n} at ({cx}, {cy}), expected ({want_x}, {want_y})"
    return None


_ENTRY = re.compile(r"^  (torus\(2,(\d+)\)|twist\((\d+)\)): (.*), (.*), sw = (.*)$")


def check_exotic(n: int, count: int, stdout: str) -> str | None:
    lines = stdout.split("\n")
    head = (
        f"base manifold (n = {n}): e = {_q(c2(n))}, sigma = {_q(sigma(n))}, "
        f"c1^2 = {_q(c1sq(n))}, chi_h = {_q(chi_h(n))}"
    )
    tail = [
        f"symplectic candidates: {count}; non-symplectic candidates: {count}",
        "all Seiberg-Witten values pairwise distinct: the results are pairwise non-diffeomorphic",
        "",
    ]
    if len(lines) != 2 * count + 5:
        return f"exotic printed {len(lines)} lines, expected {2 * count + 5}"
    if lines[0] != head:
        return f"base line is wrong: {lines[0][:80]!r}"
    if lines[1] != f"surgeries along the surviving square-zero torus: {2 * count} knots":
        return "knot count line is wrong"
    if lines[-3:] != tail:
        return "summary lines are wrong"
    expected = [(f"torus(2,{2 * k + 1})", "symplectic", "monic", torus_ledger(k))
                for k in range(1, count + 1)]
    expected += [(f"twist({m})", "non-symplectic candidate", "non-monic", twist_ledger(m))
                 for m in range(2, count + 2)]
    for line, (knot, kind, monic, ledger) in zip(lines[2:-3], expected):
        m = _ENTRY.match(line)
        if not m or (m.group(1), m.group(4), m.group(5)) != (knot, kind, monic):
            return f"entry line is wrong: {line[:80]!r}"
        try:
            printed = parse_poly(m.group(6), "t")
        except ValueError as err:
            return f"{knot}: {err}"
        if printed != ledger:
            return f"{knot}: wrong Seiberg-Witten ledger"
    return None


def check_build(stdout: str, model: dict) -> str | None:
    """Check `fourgeo build --symbolic` output against a script model: the
    five invariants (each a polynomial in n compared at deg+1 points), the
    two declared flags and the sequence of operations in the log."""
    lines = stdout.split("\n")
    if not lines or lines[0] != "mode: symbolic (polynomials in n)":
        return "mode line is wrong"
    fields = {}
    for line in lines[1:]:
        key, sep, value = line.partition(" = ")
        if sep and key.strip() in ("e", "sigma", "c2", "c1^2", "chi_h"):
            fields[key.strip()] = value
    e, sig = model["e"], model["sigma"]
    models = {
        "e": e,
        "sigma": sig,
        "c2": e,
        "c1^2": lambda x: 3 * sig(x) + 2 * e(x),
        "chi_h": lambda x: Fraction(sig(x) + e(x), 4),
    }
    for key, fn in models.items():
        if key not in fields:
            return f"invariant {key} not printed"
        bad = equal_as_polynomials(fields[key], fn, model["degree"])
        if bad:
            return f"{key}: {bad}"
    for flag in ("simply connected", "symplectic"):
        if f"{flag}: {model[flag]}" not in lines:
            return f"{flag} should be {model[flag]!r}"
    if "log:" not in lines:
        return "log not printed"
    start = lines.index("log:") + 1
    log_ops = [re.match(r"  (\w+)", line).group(1) for line in lines[start:] if line]
    if log_ops != model["log"]:
        return f"log operations differ: {log_ops[:6]} ..."
    return None
