"""Decoy-state bounds on untagged events with finite-sample corrections.

Turns the observed window statistics into worst-case bounds on the
counting rates and counts of events where exactly one party emitted a
single photon, and on their phase-flip error rate.  Two estimators exist
for the error rate: method A applies the Chernoff bound separately to the
two terms of the numerator, method B treats the numerator as one
bounded-difference sum (McDiarmid), which fluctuates less.

Every Chernoff substitution takes the worst-case direction per term:
rates with positive coefficients are replaced by their expected-value
lower bounds, rates with negative coefficients by upper bounds.  Setting
a failure probability >= 1 switches the corresponding substitutions off,
which reproduces the asymptotic identities on exact rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .budget import SecurityBudget
from .channel import ExperimentalParams, ObservedStats, SourceParams
from .stats import _expected_lower, _expected_upper, mcdiarmid_delta
# chernoff_expected_bounds stays a module attribute: the benchmark's tracer
# (bench/workloads.py, trace_targets) wraps it by name.
from .stats import chernoff_expected_bounds  # noqa: F401

__all__ = ["UntaggedBounds", "bound_s01_s10", "bound_s1", "bound_untagged_counts",
           "bound_e1ph_chernoff", "bound_e1ph_mcdiarmid", "estimate_untagged"]


@dataclass(frozen=True)
class UntaggedBounds:
    """Finite-key bounds on untagged events.

    s01_L, s10_L, s1_L   lower bounds on expected counting rates
    n01_L, n10_L         lower bounds on expected untagged counts
    e1ph_U               upper bound on the phase-flip error rate
    method               "A" (two Chernoff uses) or "B" (McDiarmid)
    """

    s01_L: float
    s10_L: float
    s1_L: float
    n01_L: float
    n10_L: float
    e1ph_U: float
    method: str
    flags: tuple[str, ...] = field(default_factory=tuple)

    @property
    def n1_L(self) -> float:
        """Lower bound on the expected untagged count, n01_L + n10_L."""
        return self.n01_L + self.n10_L


def _rate_lower(n: float, size: float, xi: float) -> float:
    """Chernoff lower bound on the expected counting rate of one window."""
    if size <= 0.0:
        return 0.0
    if xi >= 1.0:  # fluctuation-free switch
        return n / size
    return _expected_lower(n, math.log(2.0 / xi)) / size


def _rate_upper(n: float, size: float, xi: float) -> float:
    """Chernoff upper bound on the expected counting rate of one window."""
    if size <= 0.0:
        return 1.0
    if xi >= 1.0:
        return n / size
    return min(_expected_upper(n, math.log(2.0 / xi)) / size, 1.0)


def _single_side_rate(m1: float, m2: float, s_m1_L: float, s_m2_U: float, s_oo_U: float) -> float:
    """One side's single-photon rate bound from its two decoy intensities, clamped at 0."""
    weight = m2 * m1 * (m2 - m1)
    if weight == 0.0:  # intensities so small that the weight underflows
        return 0.0
    return max((
        m2 * m2 * math.exp(m1) * s_m1_L
        - m1 * m1 * math.exp(m2) * s_m2_U
        - (m2 * m2 - m1 * m1) * s_oo_U
    ) / weight, 0.0)


def bound_s01_s10(
    obs: ObservedStats, src: SourceParams, budget: SecurityBudget
) -> tuple[float, float]:
    """Lower-bound the counting rates of single-photon events from each side.

    s01 covers events where only Bob emitted (windows oo, ox, oy with Bob's
    intensities), s10 events where only Alice emitted.  Results clamp at 0;
    a zero value makes the final rate vanish downstream.
    """
    if not (0.0 < src.mu1 < src.mu2 and 0.0 < src.mu1_b < src.mu2_b):
        raise ValueError("decoy bound needs two ordered positive intensities per side")
    xi = budget.xi_default
    s_oo_U = _rate_upper(obs.n_oo, obs.N_oo, xi)
    s_ox_L = _rate_lower(obs.n_ox, obs.N_ox, xi)
    s_oy_U = _rate_upper(obs.n_oy, obs.N_oy, xi)
    s_xo_L = _rate_lower(obs.n_xo, obs.N_xo, xi)
    s_yo_U = _rate_upper(obs.n_yo, obs.N_yo, xi)
    return (
        _single_side_rate(src.mu1_b, src.mu2_b, s_ox_L, s_oy_U, s_oo_U),
        _single_side_rate(src.mu1, src.mu2, s_xo_L, s_yo_U, s_oo_U),
    )


def bound_s1(s01_L: float, s10_L: float, src: SourceParams) -> float:
    """Intensity-weighted combination of the two single-side rate bounds."""
    if s01_L < 0.0 or s10_L < 0.0:
        raise ValueError("rate bounds must be non-negative")
    total = src.mu1 + src.mu1_b
    return (src.mu1 / total) * s10_L + (src.mu1_b / total) * s01_L


def bound_untagged_counts(
    s01_L: float, s10_L: float, exp: ExperimentalParams, src: SourceParams
) -> tuple[float, float]:
    """Expected-count lower bounds for untagged 0-bits and 1-bits."""
    if s01_L < 0.0 or s10_L < 0.0:
        raise ValueError("rate bounds must be non-negative")
    base = exp.N * src.p_z * src.p_z_b
    n10 = base * src.eps * (1.0 - src.eps_b) * src.mu_z * math.exp(-src.mu_z) * s10_L
    n01 = base * src.eps_b * (1.0 - src.eps) * src.mu_z_b * math.exp(-src.mu_z_b) * s01_L
    return n01, n10


def _e1ph_from_numerator(numerator: float, s1_L: float, src: SourceParams) -> float:
    attenuation = math.exp(-src.mu1 - src.mu1_b)
    e1 = numerator / (attenuation * (src.mu1 + src.mu1_b) * s1_L)
    return min(max(e1, 0.0), 1.0)


def bound_e1ph_chernoff(
    obs: ObservedStats, src: SourceParams, s1_L: float, budget: SecurityBudget
) -> float:
    """Phase-flip error-rate upper bound, method A.

    The error rate of the matched-intensity windows enters at its upper
    bound and the vacuum-window rate at its lower bound, both at the tight
    per-use failure probability reserved for this estimate.
    """
    if s1_L <= 0.0:
        raise ValueError("method A needs a positive untagged-rate lower bound")
    xi = budget.xi_e1
    t_x1_U = _rate_upper(obs.m_X1, obs.N_X1, xi)
    s_oo_L = _rate_lower(obs.n_oo, obs.N_oo, xi)
    numerator = t_x1_U - math.exp(-src.mu1 - src.mu1_b) * s_oo_L / 2.0
    return _e1ph_from_numerator(numerator, s1_L, src)


def bound_e1ph_mcdiarmid(
    obs: ObservedStats, src: SourceParams, s1_L: float, budget: SecurityBudget
) -> float:
    """Phase-flip error-rate upper bound, method B.

    Keeps the raw observed rates in the numerator and adds one
    bounded-difference deviation term for the whole combination, at the
    same failure probability method A spends on its numerator.
    """
    if s1_L <= 0.0:
        raise ValueError("method B needs a positive untagged-rate lower bound")
    n_T = obs.m_X1 + obs.n_oo
    if n_T <= 0:
        raise ValueError("method B needs at least one event in the combined windows")
    s_T = n_T / (obs.N_X1 + obs.N_oo)
    delta = mcdiarmid_delta(
        obs.N_X1, obs.N_oo, n_T, s_T, src.mu1, src.mu1_b, budget.xi_e1
    )
    # mcdiarmid_delta has rejected empty windows, so both rates are defined.
    t_x1 = obs.m_X1 / obs.N_X1
    s_oo = obs.n_oo / obs.N_oo
    numerator = t_x1 - math.exp(-src.mu1 - src.mu1_b) * s_oo / 2.0 + delta
    return _e1ph_from_numerator(numerator, s1_L, src)


def estimate_untagged(
    obs: ObservedStats,
    exp: ExperimentalParams,
    src: SourceParams,
    budget: SecurityBudget,
    method: str = "A",
) -> UntaggedBounds:
    """Run the full estimation chain and collect vacuous-bound flags."""
    if method not in ("A", "B"):
        raise ValueError(f"method must be 'A' or 'B', got {method!r}")
    flags: list[str] = []
    s01, s10 = bound_s01_s10(obs, src, budget)
    if s01 <= 0.0 or s10 <= 0.0:
        flags.append("vacuous-decoy-bound")
    s1 = bound_s1(s01, s10, src)
    n01, n10 = bound_untagged_counts(s01, s10, exp, src)
    if s1 <= 0.0:
        flags.append("vacuous-untagged-rate")
        e1ph = 1.0
    elif method == "A":
        e1ph = bound_e1ph_chernoff(obs, src, s1, budget)
    elif obs.m_X1 + obs.n_oo <= 0 or obs.N_X1 <= 0 or obs.N_oo <= 0:
        # Method B has no events, or an empty window, to base its deviation term on.
        e1ph = 1.0
    else:
        e1ph = bound_e1ph_mcdiarmid(obs, src, s1, budget)
    if e1ph > 0.5:
        flags.append("vacuous-phase-error")
    return UntaggedBounds(
        s01_L=s01, s10_L=s10, s1_L=s1,
        n01_L=n01, n10_L=n10, e1ph_U=e1ph, method=method, flags=tuple(flags),
    )
