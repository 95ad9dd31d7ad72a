"""Phase-error accounting across the odd-parity pairing step.

The privacy analysis needs the phase-flip error rate of the untagged bits
that *survive* pairing, but the pre-pairing bound only constrains the raw
untagged bits.  The chain implemented here alternates between the real
string and a near-i.i.d. proxy for it: split off k neglected bits and a
remainder of r loosely-controlled positions, bound the pre-pairing error
count M_bar, convert it to a per-pair error probability e_tau through a
binomial tail at level xi_tau, square it down to the surviving-pair error
probability E_tau = e_tau*(1-e_tau), and re-inflate that to a survived
error-count bound M_bar_s through a second tail at level xi_tau_tilde.

Two modes cover the last two steps: "approx" uses the closed-form Gaussian
quantiles (2.33 at 1e-2, 6.36 at 1e-10) and is the default; "exact"
inverts the binomial tails, which is a little tighter and serves as
cross-validation.  Exact mode finds e_tau with one inverse regularized
incomplete beta call and M_bar_s with a bracketed integer bisection, so it
costs about as much as approx mode.  The Gaussian constants hold only at
the default tail levels, so approx mode rejects any other xi_tau or
xi_tau_tilde; exact mode takes any level, and a level of 1 (the
fluctuation-free switch) uses the expectation in place of the tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .budget import SecurityBudget
from .decoy import UntaggedBounds
from .channel import ObservedStats
# chernoff_observed_bounds stays a module attribute: the benchmark's tracer
# (bench/workloads.py, trace_targets) wraps it by name.
from .stats import (  # noqa: F401
    chernoff_observed_bounds,
    chernoff_observed_lower,
    chernoff_observed_upper,
    invert_tail_for_m,
    invert_tail_for_p,
)

__all__ = [
    "ZigzagResult",
    "u_factor",
    "compute_pair_counts",
    "compute_r",
    "compute_M_bar",
    "compute_M_bar_s",
    "compute_n1_prime",
    "phase_error_rate_after_oper",
    "run_zigzag",
]

# One-sided Gaussian quantiles at xi_tau = 1e-2 and xi_tau_tilde = 1e-10;
# constants of the closed-form mode, valid only at those two levels.
_Q_TAU = 2.33
_Q_TAU_TILDE = 6.36
_APPROX_XI_TAU = 1e-2
_APPROX_XI_TAU_TILDE = 1e-10


@dataclass(frozen=True)
class ZigzagResult:
    """Outputs of the pairing-stage error accounting.

    u           fraction of randomly-paired odd-parity pairs the active
                pairing realizes per half
    n           untagged-pair count entering the analysis
    k           neglected untagged bits (paired with tagged ones)
    r           loosely-controlled remainder of the near-i.i.d. reduction
    M_bar       pre-pairing phase-error count bound
    e_tau       per-pair phase-error probability at tail level xi_tau
    E_tau       surviving-pair error probability e_tau*(1-e_tau)
    M_bar_s     post-pairing phase-error count bound
    n1_prime    survived untagged-bit count lower bound
    e1ph_prime  post-pairing phase-flip error-rate upper bound
    eps_s       failure probability of that bound
    """

    u: float
    n: int
    k: int
    r: float
    M_bar: int
    e_tau: float
    E_tau: float
    M_bar_s: float
    n1_prime: int
    e1ph_prime: float
    eps_s: float
    flags: tuple[str, ...] = field(default_factory=tuple)


def _phi_lower(expected: float, xi: float) -> float:
    if xi >= 1.0:  # fluctuation-free switch
        return expected
    return chernoff_observed_lower(expected, xi)


def _phi_upper(expected: float, xi: float) -> float:
    if xi >= 1.0:
        return expected
    return chernoff_observed_upper(expected, xi)


def _check_mode(mode: str, budget: SecurityBudget) -> None:
    if mode not in ("approx", "exact"):
        raise ValueError(f"mode must be 'approx' or 'exact', got {mode!r}")
    if mode == "approx" and (
        budget.xi_tau != _APPROX_XI_TAU or budget.xi_tau_tilde != _APPROX_XI_TAU_TILDE
    ):
        raise ValueError(
            "approx mode's Gaussian quantiles hold only at xi_tau = 1e-2 and "
            f"xi_tau_tilde = 1e-10 (got {budget.xi_tau!r} and {budget.xi_tau_tilde!r}); "
            'use mode="exact" for other tail levels'
        )


def u_factor(n_g: float, n_odd: float) -> float:
    """Ratio of actively-formed pairs per half to random odd-parity pairs."""
    if n_odd <= 0:
        raise ValueError("u_factor needs a positive random odd-parity pair count")
    if n_g < 0:
        raise ValueError("pair count must be non-negative")
    return n_g / n_odd


def compute_pair_counts(
    n1_L: float, n_t: float, u: float, budget: SecurityBudget
) -> tuple[int, int, tuple[str, ...]]:
    """Counts of untagged pairs (n) and neglected untagged bits (k).

    A random pairing of the n_t sifted bits puts two untagged bits together
    with probability (n1/n_t)^2 per pair; untagged bits landing next to
    tagged ones are the neglected bits.  Both counts take their
    observed-from-expected lower bounds and floor to integers.
    """
    if not (0.0 < n1_L <= n_t):
        raise ValueError(f"need 0 < n1_L <= n_t, got n1_L={n1_L}, n_t={n_t}")
    if not (0.0 < u <= 1.0):
        raise ValueError(f"pairing ratio must lie in (0, 1], got {u}")
    frac = n1_L / n_t
    xi = budget.xi_default
    n = math.floor(_phi_lower(frac * frac * u * n_t / 2.0, xi))
    k = math.floor(_phi_lower(u * n1_L - frac * frac * u * n_t, xi))
    flags: tuple[str, ...] = ()
    if k <= 0:
        # All bits untagged to within fluctuation; the remainder formula
        # needs k >= 1, and k = 0 cannot occur for physical tag fractions.
        k = 1
        flags = ("k-degenerate",)
    return n, k, flags


def compute_r(n: int, k: int, eps_def: float) -> float:
    """Remainder size r making the near-i.i.d. reduction fail with eps_def."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not (0.0 < eps_def < 1.0):
        raise ValueError(f"eps_def must lie in (0, 1), got {eps_def}")
    return (2.0 * n + k) / k * math.log(3.0 * k * k / eps_def)


def reduction_failure(r: float, n: int, k: int) -> float:
    """Trace-distance bound 3*k^2*exp(-r*k/(2n+k)) of the reduction."""
    return 3.0 * k * k * math.exp(-r * k / (2.0 * n + k))


def compute_M_bar(n: int, e1ph_U: float, budget: SecurityBudget) -> tuple[int, float]:
    """Pre-pairing error-count bound over the 2n paired untagged bits."""
    if not (0.0 <= e1ph_U <= 1.0):
        raise ValueError(f"error rate must lie in [0, 1], got {e1ph_U}")
    m_bar = math.ceil(_phi_upper(2.0 * n * e1ph_U, budget.xi_e1))
    return m_bar, budget.eps_e


def compute_M_bar_s(
    n: int, r: float, M_bar: int, mode: str, budget: SecurityBudget
) -> tuple[float, float, float, tuple[str, ...]]:
    """Post-pairing error-count bound M_bar_s with its intermediates.

    Returns (M_bar_s, e_tau, E_tau, flags).  e_tau above one half leaves the
    squaring step without force, so the bound is flagged vacuous there.
    In exact mode a tail level xi >= 1 replaces its inversion by the
    expectation, like every other fluctuation-free use.
    """
    _check_mode(mode, budget)
    if r >= n:
        raise ValueError("remainder r must stay below the pair count n")
    if M_bar < 1:
        raise ValueError(f"M_bar must be >= 1, got {M_bar}")
    if mode == "approx":
        e_tau = (M_bar - _Q_TAU * math.sqrt(M_bar)) / (2.0 * n - r)
        if e_tau <= 0.0:
            return r, 0.0, 0.0, ("zero-error-limit",)
        if e_tau > 0.5:
            return float(2 * n), e_tau, e_tau * (1.0 - e_tau), ("vacuous-e-tau",)
        big_e = e_tau * (1.0 - e_tau)
        mean_s = (n - r) * big_e
        m_bar_s = mean_s + _Q_TAU_TILDE * math.sqrt(mean_s) + r
        return m_bar_s, e_tau, big_e, ()
    # Exact mode: conservative integer rounding of the trial counts (fewer
    # trials for the e_tau inversion, more for the M_bar_s inversion).
    trials_pre = math.floor(2.0 * n - r)
    if M_bar > trials_pre:
        return float(2 * n), 1.0, 0.0, ("vacuous-e-tau",)
    if budget.xi_tau >= 1.0:
        e_tau = M_bar / trials_pre
    else:
        e_tau = invert_tail_for_p(trials_pre, M_bar, budget.xi_tau)
    if e_tau > 0.5:
        return float(2 * n), e_tau, e_tau * (1.0 - e_tau), ("vacuous-e-tau",)
    big_e = e_tau * (1.0 - e_tau)
    trials_post = math.ceil(n - r)
    if budget.xi_tau_tilde >= 1.0:
        m_shift = trials_post * big_e
    else:
        m_shift = invert_tail_for_m(trials_post, big_e, budget.xi_tau_tilde)
    return m_shift + r, e_tau, big_e, ()


def compute_n1_prime(
    n01_L: float, n10_L: float, n_t: float, u: float, budget: SecurityBudget
) -> int:
    """Lower bound on the untagged bits that survive the pairing."""
    if n01_L < 0 or n10_L < 0:
        raise ValueError("untagged-count bounds must be non-negative")
    if n_t <= 0:
        raise ValueError("n_t must be positive")
    expected = (n01_L / n_t) * (n10_L / n_t) * u * n_t
    return math.floor(_phi_lower(expected, budget.xi_default))


def phase_error_rate_after_oper(
    M_bar_s: float, n1_prime: int, budget: SecurityBudget
) -> tuple[float, float]:
    """Phase-flip error rate of survived untagged bits, with its failure
    probability composed from the tail levels and the reduction target."""
    if n1_prime <= 0:
        raise ValueError("survived untagged count must be positive")
    if M_bar_s < 0:
        raise ValueError("error-count bound must be non-negative")
    e1ph = min(M_bar_s / n1_prime, 1.0)
    head = budget.eps_e + 2.0 * budget.eps_def
    eps_s = budget.xi_tau_tilde + head / budget.xi_tau + 2.0 * budget.eps_def
    return e1ph, eps_s


def run_zigzag(
    bounds: UntaggedBounds,
    obs: ObservedStats,
    budget: SecurityBudget,
    mode: str = "approx",
) -> ZigzagResult:
    """Chain all pairing-stage steps, short-circuiting degenerate inputs.

    Vacuous intermediate results are reported with e1ph_prime = 0.5 so a
    caller that ignores the flags still produces a zero rate.
    """

    def _dead(flags: tuple[str, ...]) -> ZigzagResult:
        return ZigzagResult(
            u=0.0, n=0, k=0, r=0.0, M_bar=0, e_tau=0.0, E_tau=0.0,
            M_bar_s=0.0, n1_prime=0, e1ph_prime=0.5, eps_s=budget.eps_s,
            flags=flags,
        )

    _check_mode(mode, budget)
    if obs.n_odd <= 0 or obs.n_g <= 0:
        return _dead(("no-pairs",))
    if bounds.n1_L <= 0 or obs.n_t <= 0:
        return _dead(("zero-untagged",))

    u = u_factor(obs.n_g, obs.n_odd)
    u = min(u, 1.0)
    n1_L = min(bounds.n1_L, float(obs.n_t))
    n, k, flags = compute_pair_counts(n1_L, obs.n_t, u, budget)
    if n <= 0:
        return _dead(flags + ("zero-pairs",))
    r = compute_r(n, k, budget.eps_def)
    if r >= n:
        return _dead(flags + ("zigzag-vacuous",))
    m_bar, _ = compute_M_bar(n, bounds.e1ph_U, budget)
    m_bar_s, e_tau, big_e, ms_flags = compute_M_bar_s(n, r, m_bar, mode, budget)
    flags = flags + ms_flags
    n1_prime = compute_n1_prime(bounds.n01_L, bounds.n10_L, obs.n_t, u, budget)
    if n1_prime <= 0:
        return _dead(flags + ("zero-key",))
    e1ph_prime, eps_s = phase_error_rate_after_oper(m_bar_s, n1_prime, budget)
    if "vacuous-e-tau" in flags:
        e1ph_prime = max(e1ph_prime, 0.5)
    return ZigzagResult(
        u=u, n=n, k=k, r=r, M_bar=m_bar, e_tau=e_tau, E_tau=big_e,
        M_bar_s=m_bar_s, n1_prime=n1_prime, e1ph_prime=e1ph_prime,
        eps_s=eps_s, flags=flags,
    )
