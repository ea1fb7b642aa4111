"""Seeded inputs for the four benchmark workloads.

Each workload is a pool of operations.  An operation is one `fourgeo`
command line (plus any .geo file it reads) and the oracle check for what it
prints.  Pools are drawn by stratified sampling: one seeded draw per
stratum, with the strata visited in bit-reversed order, so that every seed,
and every prefix of the pool a run gets through, has the same mix of small
and large inputs and medians compare across runs.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracle

POOL_BITS = 6
POOL_SIZE = 1 << POOL_BITS
KN_GEO = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "kn.geo")


@dataclass
class Op:
    label: str
    argv: list[str]
    # check(op_dir, stdout) -> None when right, else a reason
    check: Callable[[str, str], "str | None"]
    files: dict[str, str] = field(default_factory=dict)


def _bit_reversed(i: int) -> int:
    return int(format(i, f"0{POOL_BITS}b")[::-1], 2)


def _strata(rng: random.Random, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of POOL_SIZE equal strata of [lo, hi), in
    bit-reversed stratum order (0, 32, 16, 48, ...)."""
    width = (hi - lo) / POOL_SIZE
    draws = [lo + (i + rng.random()) * width for i in range(POOL_SIZE)]
    return [draws[_bit_reversed(i)] for i in range(POOL_SIZE)]


# -- paper ----------------------------------------------------------------------

def paper_ops(rng: random.Random, geo_dir: str) -> list[Op]:
    # The seed does not change this workload: verify-paper has no input.
    return [Op("verify-paper", ["verify-paper", "--json"], lambda d, out: oracle.check_paper(out))]




# -- scan_high -----------------------------------------------------------------------

def scan_high_ops(rng: random.Random, geo_dir: str) -> list[Op]:
    # Window starts log-uniform over [8, 10^12]: every member is above the
    # Alexander genus cap, so knots stay idle and the cost is per-record
    # Fraction arithmetic that grows with log n.  Widths of 120..240 members
    # make building members, not interpreter start-up, most of each op.
    starts = [max(8, round(10**u)) for u in _strata(rng, math.log10(8), 12.0)]
    widths = [int(w) for w in reversed(_strata(rng, 120, 241))]
    return [_scan_op(a, a + w - 1) for a, w in zip(starts, widths)]


def _scan_op(a: int, b: int) -> Op:
    def check(op_dir: str, out: str) -> str | None:
        with open(os.path.join(op_dir, "scan.csv"), encoding="utf-8") as fh:
            csv_text = fh.read()
        with open(os.path.join(op_dir, "scan.svg"), encoding="utf-8") as fh:
            svg_text = fh.read()
        return oracle.check_geography(a, b, csv_text, svg_text)

    return Op(f"geography {a}..{b}",
              ["geography", "--n-min", str(a), "--n-max", str(b),
               "--csv", "scan.csv", "--svg", "scan.svg"], check)


# -- exotic --------------------------------------------------------------------------------

def exotic_ops(rng: random.Random, geo_dir: str) -> list[Op]:
    ops = []
    for c in (int(x) for x in _strata(rng, 25, 201)):
        ops.append(Op(f"exotic --count {c}", ["exotic", "--n", "3", "--count", str(c)],
                      lambda d, out, c=c: oracle.check_exotic(3, c, out)))
    return ops


# -- symbolic ------------------------------------------------------------------------------

class _Scalar:
    """A script scalar: its DSL text, a plain-integer model n -> value, and
    an upper bound on its degree in n."""

    def __init__(self, text: str, fn, degree: int):
        self.text, self.fn, self.degree = text, fn, degree


class _Record:
    def __init__(self, e, sigma, degree: int, log: list[str], symplectic: bool | None):
        self.e, self.sigma, self.degree = e, sigma, degree
        self.log, self.symplectic = log, symplectic


def _count_poly(rng: random.Random, degree: int, positive: bool) -> _Scalar:
    """An integer-valued polynomial, >= 0 (>= 1 if positive) at every n >= 2,
    with a positive leading coefficient.  The leading part is a multiple of
    binomial(n + j, degree), written as a falling product over degree!."""
    c, j = rng.randint(1, 5), rng.randint(0, 3)
    factors = []
    for t in range(degree):
        off = j - t
        factors.append("n" if off == 0 else f"(n{off:+d})")
    parts = [f"{c}*{'*'.join(factors)}/{math.factorial(degree)}"]
    terms = [lambda x, c=c, j=j: c * math.comb(x + j, degree)]
    low = rng.randint(1, max(1, degree - 1))
    c2 = rng.randint(0, 9)
    if c2:
        parts.append(f"{c2}*n^{low}")
        terms.append(lambda x, c2=c2, low=low: c2 * x**low)
    if degree >= 3:
        k, s = rng.randint(2, 3), rng.randint(1, 4)
        parts.append(f"(n+{s})^{k}")
        terms.append(lambda x, k=k, s=s: (x + s) ** k)
    c0 = rng.randint(1 if positive else 0, 30)
    parts.append(str(c0))
    terms.append(lambda x, c0=c0: c0)
    return _Scalar(" + ".join(parts), lambda x: sum(t(x) for t in terms), degree)


class _ScriptWriter:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.lines: list[str] = []
        self.count = 0

    def let(self, prefix: str, text: str) -> str:
        self.count += 1
        name = f"{prefix}{self.count}"
        self.lines.append(f"let {name} = {text}")
        return name

    def scalar(self, prefix: str, degree: int, positive: bool = False) -> tuple[str, _Scalar]:
        s = _count_poly(self.rng, max(1, degree), positive)
        return self.let(prefix, s.text), s


def _blowup(rec: _Record, k: _Scalar) -> _Record:
    return _Record(lambda x: rec.e(x) + k.fn(x), lambda x: rec.sigma(x) - k.fn(x),
                   max(rec.degree, k.degree), rec.log + ["blow_up"], rec.symplectic)


def _fiber_sum(a: _Record, b: _Record, genus, genus_degree: int) -> _Record:
    symplectic = True if (a.symplectic and b.symplectic) else None
    return _Record(lambda x: a.e(x) + b.e(x) + 4 * genus(x) - 4,
                   lambda x: a.sigma(x) + b.sigma(x),
                   max(a.degree, b.degree, genus_degree),
                   a.log + b.log + ["fiber_sum"], symplectic)


def generate_script(rng: random.Random, degree: int, rounds: int, with_cp2bar: bool):
    """A random construction script valid for every n >= 2, and its model.

    Each round builds a branched cover of a blown-up T4 and a knot-surgered,
    blown-up E2 (knot genus a polynomial, so the Alexander polynomial stays
    symbolic), fiber-sums them along a resolved surface, and fiber-sums the
    result onto the previous rounds.  Every DSL operation appears.
    """
    w = _ScriptWriter(rng)
    half = max(1, degree // 2)
    T4 = _Record(lambda x: 0, lambda x: 0, 0, ["T4"], True)
    E2 = _Record(lambda x: 24, lambda x: -16, 0, ["E2"], True)
    CP2BAR = _Record(lambda x: 3, lambda x: -1, 0, ["CP2BAR"], False)
    acc = None
    for _ in range(rounds):
        k, K = w.scalar("K", degree)
        s, S = w.scalar("S", half, positive=True)
        a, A = w.scalar("A", half)
        b, B = w.scalar("B", half)
        cc, C = w.scalar("C", 2)
        q1, Q1 = w.scalar("Q", degree)
        q2, Q2 = w.scalar("Q", half)
        k2, K2 = w.scalar("R", half, positive=True)
        g2, G2 = w.scalar("G", degree)
        k3, K3 = w.scalar("K", 3)
        g3, G3 = w.scalar("G", half)
        y = w.let("Y", f"blowup(T4, k={k})")
        x = w.let("X", f"branched_cover({y}, degree=2*{s}, index=2, e_branch=12*{b}, "
                       f"kdotd=8*{a}, dsq=-8*{a})")
        rh = w.let("RH", f"riemann_hurwitz(0, 2*{cc}, 2*{s}, 2)")
        f = w.let("F", f"resolve(surface(genus=1 - {rh}/2, self_int={q1}), "
                       f"surface(genus={g2}, self_int={q2}), k={k2})")
        z = w.let("Z", f"knot_surgery(blowup(E2, k={k3}), knot_genus={g3})")
        cur = w.let("W", f"fiber_sum({x}, {f}, {z}, surface_blowup(surface("
                         f"genus=1 - {rh}/2 + {g2} + {k2} - 1, self_int=0), "
                         f"points={q1} + {q2} + 2*{k2}))")

        # Model, from the textbook formulas.
        Y = _blowup(T4, K)

        def cover(rec=Y, S=S, A=A, B=B) -> _Record:
            d, m = (lambda x: 2 * S.fn(x)), 2
            lam = 1 - Fraction(1, m)

            def e(x):
                return d(x) * (rec.e(x) - 12 * B.fn(x)) + Fraction(d(x), m) * 12 * B.fn(x)

            def c1(x):
                c1_base = 3 * rec.sigma(x) + 2 * rec.e(x)
                kd, dsq = 8 * A.fn(x), -8 * A.fn(x)
                return d(x) * (c1_base + 2 * lam * kd + lam**2 * dsq)

            deg = S.degree + max(rec.degree, A.degree, B.degree)
            return _Record(e, lambda x: (c1(x) - 2 * e(x)) / 3, deg,
                           rec.log + ["branched_cover"], rec.symplectic)

        X = cover()
        rh_fn = lambda x, S=S, C=C: 2 * S.fn(x) * (0 - 2 * C.fn(x)) + S.fn(x) * 2 * C.fn(x)
        genus = lambda x, rh_fn=rh_fn, G2=G2, K2=K2: (1 - Fraction(rh_fn(x), 2)) + G2.fn(x) + K2.fn(x) - 1
        genus_deg = max(S.degree + C.degree, G2.degree, K2.degree)
        Z = _blowup(E2, K3)
        Z = _Record(Z.e, Z.sigma, Z.degree, Z.log + ["knot_surgery"], Z.symplectic)
        W = _fiber_sum(X, Z, genus, genus_deg)
        if acc is None:
            acc, acc_name = W, cur
        else:
            h, H = w.scalar("H", degree)
            p, _ = w.scalar("P", half)
            acc_name = w.let("M", f"fiber_sum({acc_name}, surface(genus={h}, self_int={p}), "
                                  f"{cur}, surface(genus={h}, self_int=-{p}))")
            acc = _fiber_sum(acc, W, H.fn, H.degree)
    if with_cp2bar:
        h, H = w.scalar("H", half)
        p, _ = w.scalar("P", 2)
        k4, K4 = w.scalar("K", 2)
        w.lines.append(f"report fiber_sum({acc_name}, surface(genus={h}, self_int={p}), "
                       f"blowup(CP2BAR, k={k4}), surface(genus={h}, self_int=-({p})))")
        acc = _fiber_sum(acc, _blowup(CP2BAR, K4), H.fn, H.degree)
    else:
        w.lines.append(f"report {acc_name}")
    model = {
        "e": acc.e,
        "sigma": acc.sigma,
        "degree": acc.degree,
        "simply connected": "unknown",
        "symplectic": ("yes (Gompf sum of symplectic manifolds along symplectic surfaces)"
                       if acc.symplectic else "unknown"),
        "log": acc.log,
    }
    header = f"# generated: degree {degree}, {rounds} round(s), {len(w.lines)} statements\n"
    return header + "\n".join(w.lines) + "\n", model


# The model of scripts/kn.geo is the paper's glued family.
KN_MODEL = {
    "e": oracle.c2,
    "sigma": oracle.sigma,
    "degree": oracle.FAMILY_DEGREE,
    "simply connected": "unknown",
    "symplectic": "yes (Gompf sum of symplectic manifolds along symplectic surfaces)",
    "log": ["T4", "blow_up", "branched_cover", "E2", "blow_up", "knot_surgery", "fiber_sum"],
}


def _kn_op() -> Op:
    return Op("build kn.geo", ["build", KN_GEO, "--symbolic"],
              lambda d, out: oracle.check_build(out, KN_MODEL))


def symbolic_ops(rng: random.Random, geo_dir: str) -> list[Op]:
    # Argument degrees stratified over 2..32; one to three rounds.
    ops = [_kn_op()]
    for i, d in enumerate(_strata(rng, 2, 33)):
        degree = int(d)
        text, model = generate_script(rng, degree, rounds=1 + i % 3, with_cp2bar=i % 2 == 0)
        name = f"gen{i:02d}.geo"
        ops.append(Op(f"build {name} (degree {degree})",
                      ["build", os.path.join(geo_dir, name), "--symbolic"],
                      lambda d, out, model=model: oracle.check_build(out, model),
                      files={name: text}))
    return ops


# One small, seed-independent invocation per workload, run untimed during
# set-up: it compiles bytecode and warms the file cache.
WARMUPS = {
    "paper": Op("verify-paper --n-max 4", ["verify-paper", "--json", "--n-max", "4"],
                lambda d, out: None if '"pass": false' not in out else "a check failed"),
    "scan_high": _scan_op(8, 40),
    "symbolic": _kn_op(),
    "exotic": Op("exotic --count 25", ["exotic", "--n", "3", "--count", "25"],
                 lambda d, out: oracle.check_exotic(3, 25, out)),
}

WORKLOADS = {
    "paper": paper_ops,
    "scan_high": scan_high_ops,
    "symbolic": symbolic_ops,
    "exotic": exotic_ops,
}
