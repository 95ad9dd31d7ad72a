"""Final key-rate assembly, repeater-less bounds, and the evaluation pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .budget import SecurityBudget, security_budget
from .channel import ExperimentalParams, ObservedStats, SourceParams, simulate
from .decoy import UntaggedBounds, estimate_untagged
from .stats import shannon_entropy
from .zigzag import ZigzagResult, run_zigzag

__all__ = [
    "SecurityBudget",
    "security_budget",
    "KeyRateReport",
    "key_rate",
    "plob_bounds",
    "asymmetric_constraint_residual",
    "evaluate",
]

_LOG2 = math.log(2.0)

# Flags that invalidate the security chain; anything else (degenerate-window
# warnings, the k floor, the no-error floor, a negative secret margin) is
# informational only.
VACUOUS_FLAGS = frozenset({
    "vacuous-decoy-bound",
    "vacuous-untagged-rate",
    "vacuous-phase-error",
    "vacuous-e-tau",
    "no-pairs",
    "zero-untagged",
    "zero-pairs",
    "zigzag-vacuous",
    "zero-key",
    "aopp-degenerate",
})


@dataclass(frozen=True)
class KeyRateReport:
    """Everything one evaluation produces, from raw counts to the final rate."""

    exp: ExperimentalParams
    src: SourceParams
    method: str
    mode: str
    budget: SecurityBudget
    obs: ObservedStats
    bounds: UntaggedBounds
    zigzag: ZigzagResult
    R: float
    plob1: float
    plob2: float
    ratio1: float
    ratio2: float
    secure: bool
    flags: tuple[str, ...] = field(default_factory=tuple)


def key_rate(
    n1_prime: float,
    e1ph_prime: float,
    n_t_prime: float,
    E_prime: float,
    exp: ExperimentalParams,
    budget: SecurityBudget,
) -> float:
    """Key rate per pulse pair after pairing, clamped at zero.

    The privacy term treats any phase-error rate at or above one half as
    carrying no extractable secrecy, so out-of-range bounds cannot produce
    a spurious positive rate.
    """
    if n1_prime <= 0.0:
        return 0.0
    priv = 1.0 - shannon_entropy(min(max(e1ph_prime, 0.0), 0.5))
    secret = (
        n1_prime * priv
        - exp.f * n_t_prime * shannon_entropy(E_prime)
        - math.log2(2.0 / budget.eps_cor)
        - 2.0 * math.log2(1.0 / (math.sqrt(2.0) * budget.eps_PA * budget.eps_hat))
    )
    return max(2.0 * secret / exp.N, 0.0)


def plob_bounds(L_total: float, alpha_f: float, eta_d: float) -> tuple[float, float]:
    """Repeater-less secret-key capacity bounds of the lossy channel.

    The absolute bound -log2(1 - eta) assumes perfect local devices; the
    practical bound folds the detector efficiency into the transmittance.
    """
    if L_total < 0:
        raise ValueError("distance must be non-negative")
    eta = 10.0 ** (-alpha_f * L_total / 10.0)

    def bound(transmittance: float) -> float:
        if transmittance >= 1.0:  # lossless channel: unbounded capacity
            return float("inf")
        return -math.log1p(-transmittance) / _LOG2

    return bound(eta), bound(eta_d * eta)


def asymmetric_constraint_residual(src: SourceParams) -> float:
    """Residual of the source constraint that keeps asymmetric decoy analysis
    valid; zero when satisfied, and exactly zero for symmetric sources."""
    return src.constraint_residual()


def evaluate(
    exp: ExperimentalParams,
    src: SourceParams,
    method: str = "A",
    mode: str = "approx",
    budget: SecurityBudget | None = None,
    seed: int | None = None,
) -> KeyRateReport:
    """Simulate, estimate, and assemble the full key-rate report.

    Deterministic unless a sampling seed is given.  Any vacuous bound along
    the way forces R = 0 while keeping the flag in the report.  A rate that
    key_rate clamps to 0 because the secret margin (the survived untagged
    bits' secrecy minus error correction and the failure-probability terms)
    is not positive carries the flag "negative-secret-margin".
    """
    if budget is None:
        budget = security_budget()
    if not src.is_symmetric():
        residual = src.constraint_residual()
        if abs(residual) > 1e-9:
            raise ValueError(
                "asymmetric sources must satisfy the decoy constraint: "
                f"residual {residual:.3e} exceeds 1e-9"
            )
    obs = simulate(exp, src, seed)
    bounds = estimate_untagged(obs, exp, src, budget, method)
    zz = run_zigzag(bounds, obs, budget, mode)
    flags = obs.flags + bounds.flags + zz.flags
    rate = key_rate(zz.n1_prime, zz.e1ph_prime, obs.n_t_prime, obs.E_prime, exp, budget)
    if rate == 0.0 and zz.n1_prime > 0:  # key_rate clamped its margin
        flags += ("negative-secret-margin",)
    if any(f in VACUOUS_FLAGS for f in flags):
        rate = 0.0
    plob1, plob2 = plob_bounds(exp.L_total, exp.alpha_f, exp.eta_d)
    return KeyRateReport(
        exp=exp, src=src, method=method, mode=mode, budget=budget,
        obs=obs, bounds=bounds, zigzag=zz,
        R=rate, plob1=plob1, plob2=plob2,
        ratio1=rate / plob1 if plob1 > 0 else 0.0,
        ratio2=rate / plob2 if plob2 > 0 else 0.0,
        secure=rate > 0.0, flags=flags,
    )
