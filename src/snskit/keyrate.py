"""Final key-rate assembly, repeater-less bounds, and the evaluation pipeline."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .budget import SecurityBudget
from .channel import ExperimentalParams, ObservedStats, SourceParams, simulate
from .decoy import UntaggedBounds, estimate_untagged
from .stats import shannon_entropy
from .zigzag import ZigzagResult, run_zigzag

__all__ = ["KeyRateReport", "key_rate", "plob_bounds", "evaluate"]

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
    """Everything one evaluation produces, from raw counts to the final rate;
    the repeater-less bounds, R's ratios to them and ``secure`` follow from
    ``exp`` and ``R``."""

    exp: ExperimentalParams
    src: SourceParams
    method: str
    mode: str
    budget: SecurityBudget
    obs: ObservedStats
    bounds: UntaggedBounds
    zigzag: ZigzagResult
    R: float
    flags: tuple[str, ...] = field(default_factory=tuple)

    @property
    def plob1(self) -> float:
        return plob_bounds(self.exp.L_total, self.exp.alpha_f, self.exp.eta_d)[0]

    @property
    def plob2(self) -> float:
        return plob_bounds(self.exp.L_total, self.exp.alpha_f, self.exp.eta_d)[1]

    @property
    def ratio1(self) -> float:
        return self.R / self.plob1 if self.plob1 > 0 else 0.0

    @property
    def ratio2(self) -> float:
        return self.R / self.plob2 if self.plob2 > 0 else 0.0

    @property
    def secure(self) -> bool:
        return self.R > 0.0


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
    a spurious positive rate.  Every budget level is positive, so each
    failure-probability cost in bits is finite.
    """
    if n1_prime <= 0.0:
        return 0.0
    priv = 1.0 - shannon_entropy(min(max(e1ph_prime, 0.0), 0.5))
    h_E = shannon_entropy(E_prime)
    # No errors cost no bits, even where f * n_t_prime overflows to inf.
    ec_bits = exp.f * n_t_prime * h_E if h_E > 0.0 else 0.0
    pa = math.sqrt(2.0) * budget.eps_PA * budget.eps_hat
    if pa >= sys.float_info.min:
        pa_bits = math.log2(1.0 / pa)
    else:  # the product underflows: sum the logs instead
        pa_bits = -0.5 - math.log2(budget.eps_PA) - math.log2(budget.eps_hat)
    secret = n1_prime * priv - ec_bits - math.log2(2.0 / budget.eps_cor) - 2.0 * pa_bits
    return max(2.0 * secret / exp.N, 0.0)


def plob_bounds(L_total: float, alpha_f: float, eta_d: float) -> tuple[float, float]:
    """Repeater-less secret-key capacity bounds of the lossy channel.

    The absolute bound -log2(1 - eta) assumes perfect local devices; the
    practical bound folds the detector efficiency into the transmittance.
    """
    # Each comparison is False for NaN, so NaN fails it.
    if not (0.0 <= L_total < math.inf):
        raise ValueError(f"distance must be finite and non-negative, got {L_total}")
    if not (0.0 <= alpha_f < math.inf):
        raise ValueError(f"alpha_f must be finite and non-negative, got {alpha_f}")
    if not (0.0 <= eta_d <= 1.0):
        raise ValueError(f"eta_d must lie in [0, 1], got {eta_d}")
    eta = 10.0 ** (-alpha_f * L_total / 10.0)

    def bound(transmittance: float) -> float:
        if transmittance >= 1.0:  # lossless channel: unbounded capacity
            return float("inf")
        return -math.log1p(-transmittance) / _LOG2

    return bound(eta), bound(eta_d * eta)


def evaluate(
    exp: ExperimentalParams,
    src: SourceParams,
    method: str = "A",
    mode: str = "approx",
    budget: SecurityBudget = SecurityBudget(),
) -> KeyRateReport:
    """Simulate, estimate, and assemble the full key-rate report.

    Deterministic: it scores the expected counts.  Any vacuous bound along
    the way forces R = 0 while keeping the flag in the report.  A rate that
    key_rate clamps to 0 because the secret margin (the survived untagged
    bits' secrecy minus error correction and the failure-probability terms)
    is not positive carries the flag "negative-secret-margin".  The budget
    defaults to the paper's levels; it is frozen, so the default is shared.
    """
    if not src.is_symmetric():
        residual = src.constraint_residual()
        if abs(residual) > 1e-9:
            raise ValueError(
                "asymmetric sources must satisfy the decoy constraint: "
                f"residual {residual:.3e} exceeds 1e-9"
            )
    obs = simulate(exp, src)
    bounds = estimate_untagged(obs, exp, src, budget, method)
    zz = run_zigzag(bounds, obs, budget, mode)
    flags = obs.flags + bounds.flags + zz.flags
    rate = key_rate(zz.n1_prime, zz.e1ph_prime, obs.n_t_prime, obs.E_prime, exp, budget)
    if rate == 0.0 and zz.n1_prime > 0:  # key_rate clamped its margin
        flags += ("negative-secret-margin",)
    if not VACUOUS_FLAGS.isdisjoint(flags):
        rate = 0.0
    return KeyRateReport(
        exp=exp, src=src, method=method, mode=mode, budget=budget,
        obs=obs, bounds=bounds, zigzag=zz, R=rate, flags=flags,
    )
