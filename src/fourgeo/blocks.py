"""Standard building blocks the construction scripts start from.

Each block is one record, built at import and named as scripts name it;
BLOCKS maps those names to the records.  Records are immutable and their
cached attributes deterministic, so one instance serves every caller."""

from __future__ import annotations

from .algebra import LaurentPoly
from .calculus import ManifoldRecord, MarkedSurface, declared_false, declared_true
from .knots import SWLedger

# The 4-torus: e = 0, sigma = 0, Kaehler, far from simply connected.
T4 = ManifoldRecord(
    0,
    0,
    simply_connected=declared_false("pi_1(T^4) = Z^4"),
    symplectic=declared_true("Kaehler: product of two elliptic curves"),
    almost_complex=True,
    log=("T4",),
)

# The elliptically fibered K3 surface E(2): e = 24, sigma = -16.  Ships with
# its standard decorations: a regular fiber (square-zero torus, the class the
# Seiberg-Witten ledger is written against, with invariant normalized to 1)
# and a section sphere of square -2.
E2 = ManifoldRecord(
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

# CP^2 with reversed orientation: e = 3, sigma = -1 (not almost complex:
# chi_h would be 1/2).
CP2BAR = ManifoldRecord(
    3,
    -1,
    simply_connected=declared_true("CP^2"),
    symplectic=declared_false("b_2^+ = 0"),
    almost_complex=False,
    log=("CP2BAR",),
)

BLOCKS = {"T4": T4, "E2": E2, "CP2BAR": CP2BAR}
