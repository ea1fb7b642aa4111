"""Standard building blocks the construction scripts start from.

Each block is built once, at import, and every call returns that record:
records are immutable and their cached attributes deterministic, so one
instance serves every caller."""

from __future__ import annotations

from .algebra import LaurentPoly
from .calculus import ManifoldRecord, MarkedSurface, declared_false, declared_true
from .knots import SWLedger

_TORUS4 = ManifoldRecord(
    0,
    0,
    simply_connected=declared_false("pi_1(T^4) = Z^4"),
    symplectic=declared_true("Kaehler: product of two elliptic curves"),
    almost_complex=True,
    log=("T4",),
)

_K3_ELLIPTIC = ManifoldRecord(
    24,
    -16,
    simply_connected=declared_true("standard simply connected K3 surface"),
    symplectic=declared_true("Kaehler"),
    almost_complex=True,
    surfaces=(
        ("fiber", MarkedSurface(1, 0)),
        ("section", MarkedSurface(0, -2)),
    ),
    sw=SWLedger(LaurentPoly.one()),
    log=("E2",),
)

_CP2_REVERSED = ManifoldRecord(
    3,
    -1,
    simply_connected=declared_true("CP^2"),
    symplectic=declared_false("b_2^+ = 0"),
    almost_complex=False,
    log=("CP2BAR",),
)


def torus4() -> ManifoldRecord:
    """The 4-torus: e = 0, sigma = 0, Kaehler, far from simply connected."""
    return _TORUS4


def k3_elliptic() -> ManifoldRecord:
    """The elliptically fibered K3 surface E(2): e = 24, sigma = -16.

    Ships with its standard decorations: a regular fiber (square-zero torus,
    the class the Seiberg-Witten ledger is written against, with invariant
    normalized to 1) and a section sphere of square -2.
    """
    return _K3_ELLIPTIC


def cp2_reversed() -> ManifoldRecord:
    """CP^2 with reversed orientation: e = 3, sigma = -1 (not almost complex:
    chi_h would be 1/2)."""
    return _CP2_REVERSED
