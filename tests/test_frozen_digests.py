"""Bit-identity pins: SHA-256 digests of repr() over seeded input grids.

repr() of a float round-trips, so a digest moves when any bit of any output
moves.  The digests were frozen from the implementation in which
``simulate`` composed three per-stage functions and the four Chernoff roots
shared one Newton routine.  Rewrites that keep every floating-point
operation and its order must leave them unchanged; a change that moves a
value on purpose refreezes them and says which values moved and why.
"""

import hashlib
import math
import random

from snskit.channel import ExperimentalParams, SourceParams, simulate
from snskit.stats import (
    chernoff_expected_lower,
    chernoff_expected_upper,
    chernoff_observed_lower,
    chernoff_observed_upper,
)

SIMULATE_DIGEST = "f1e6f3b5cb18e9f61ce057f2631d2631675065a5b4ea3e9f28ea825cbad7589a"
ROOTS_DIGEST = "7914d7d17bdac754de5d8859d2b26fb0a35ed8d96010fa43a0d938517d9dfc88"


def _digest(values) -> str:
    return hashlib.sha256("\n".join(map(repr, values)).encode()).hexdigest()


def _random_side(rng: random.Random) -> tuple:
    p0 = rng.uniform(1e-4, 0.9)
    mu2 = 10.0 ** rng.uniform(-4.0, 0.0)
    return (
        rng.uniform(1e-4, 1.0 - 1e-4),  # p_z
        rng.uniform(1e-4, 1.0 - 1e-4),  # eps
        p0,
        rng.uniform(1e-4, 1.0 - p0),  # p1
        mu2 * rng.uniform(1e-3, 0.999),  # mu1
        mu2,
        10.0 ** rng.uniform(-4.0, 0.0),  # mu_z
    )


def _simulate_grid() -> list:
    """Symmetric and asymmetric sources at three distances, with one and 16
    phase slices and at a size small enough to leave windows degenerate."""
    rng = random.Random(20261020)
    records = []
    for i in range(100):
        alice = _random_side(rng)
        src = SourceParams(*alice, *(alice if i % 2 == 0 else _random_side(rng)))
        for L_total in (0.0, 300.0, 600.0):
            L_A = L_total * rng.uniform(0.3, 0.7)
            for M_slices in (1, 16):
                for N in (1e12, 3.0):
                    exp = ExperimentalParams(
                        p_d=rng.choice((0.0, 1e-8, 1e-3)),
                        e_d=rng.choice((0.0, 0.03, 0.5, 0.9)),
                        eta_d=rng.uniform(0.0, 1.0), f=1.1, alpha_f=0.2, N=N,
                        L_A=L_A, L_B=L_total - L_A, M_slices=M_slices,
                    )
                    records.append(simulate(exp, src))
    return records


def _roots_grid() -> list:
    """The four one-sided roots at counts from 0 to 1e16 and levels from
    1e-15 to 0.9, plus sub-1e-290 counts that stop the upper roots at the
    edge of their log span."""
    rng = random.Random(20261021)
    counts = [0.0, 1e-300, 5e-324]
    counts += [10.0 ** rng.uniform(-3.0, 16.0) for _ in range(4000)]
    counts += [float(rng.randint(1, 10**6)) for _ in range(1000)]
    ends = []
    for X in counts:
        xi = 10.0 ** rng.uniform(-15.0, math.log10(0.9))
        ends.append((chernoff_expected_lower(X, xi), chernoff_expected_upper(X, xi),
                     chernoff_observed_lower(X, xi), chernoff_observed_upper(X, xi)))
    return ends


def test_simulate_records_are_bit_identical():
    records = _simulate_grid()
    assert any(f.startswith("degenerate-window") for obs in records for f in obs.flags)
    assert any("aopp-degenerate" in obs.flags for obs in records)
    assert _digest(records) == SIMULATE_DIGEST


def test_chernoff_roots_are_bit_identical():
    assert _digest(_roots_grid()) == ROOTS_DIGEST
