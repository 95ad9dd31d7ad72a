"""Concentration bounds and tail utilities for finite-key estimation.

Everything in this module is a pure function of its arguments.  The two
Chernoff-style interval inversions share one numerical core: after a change
of variable both pairs of defining equations reduce to the two roots of a
convex relative-entropy residual, which we bracket in log space and bisect.
Bisection on a fixed log-width bracket is unconditionally convergent for
counts from ~1e-300 to ~1e15 and failure probabilities down to ~1e-300,
which is the whole operating range of the key-rate pipeline.

The binomial-tail inversions use closed forms where one exists.  Since
Pr(X >= m) = I_p(m, n-m+1), the success probability at a given tail level
is one inverse regularized incomplete beta call.  The threshold at a given
level is an integer bisection that starts from a bracket: the median below
and a Chernoff bound above, so only a few tails are evaluated, and
small-trial tails sum only the terms that carry mass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from scipy.special import betainc, betaincinv

__all__ = [
    "TailQuery",
    "ChernoffResult",
    "chernoff_expected_bounds",
    "chernoff_observed_bounds",
    "binomial_tail",
    "invert_tail_for_p",
    "invert_tail_for_m",
    "shannon_entropy",
    "mcdiarmid_delta",
]

_LOG_SPAN = 690.0  # widest log-ratio ever searched; exp() stays finite below it
_BISECT_STEPS = 80  # 690 / 2**80 is far below double precision
_SUMMATION_LIMIT = 10_000  # below this trial count, sum the tail in log space
_LOG_TERM_CUTOFF = 50.0  # past the mode, a term this far below the peak ends the sum


@dataclass(frozen=True)
class TailQuery:
    """Upper-tail query Pr(X >= threshold) for X ~ Binomial(trials, success_prob)."""

    trials: int
    success_prob: float
    threshold: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be a positive integer, got {self.trials}")
        if not (0.0 <= self.success_prob <= 1.0):
            raise ValueError(f"success_prob must lie in [0, 1], got {self.success_prob}")
        if not (0 <= self.threshold <= self.trials + 1):
            raise ValueError(
                f"threshold must lie in [0, trials + 1], got {self.threshold} "
                f"with trials={self.trials}"
            )


@dataclass(frozen=True)
class ChernoffResult:
    """Two-sided interval with its per-use failure probability."""

    lower: float
    upper: float
    failure_prob: float


def _check_failure_prob(xi: float) -> None:
    if not (0.0 < xi < 1.0):  # also rejects NaN
        raise ValueError(f"failure probability must lie in (0, 1), got {xi!r}")


def _rel_entropy_residual(s: float) -> float:
    """t/X - 1 - ln(t/X) expressed through s = ln(t/X); convex, zero at s = 0."""
    return math.expm1(s) - s


def _excess_entropy_residual(s: float) -> float:
    """u*ln(u) - u + 1 expressed through s = ln(u); convex, zero at s = 0."""
    return math.expm1(s) * (s - 1.0) + s


def _bisect_log(f, lo: float, hi: float, target: float, increasing: bool) -> float:
    """Root of f(s) = target, f monotone on [lo, hi] with the stated direction."""
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if (f(mid) < target) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chernoff_expected_bounds(observed: float, failure_prob: float) -> ChernoffResult:
    """Bound the expected value of a count from its observed value.

    Solves the two interval equations whose log form is
    ``(X/(1+d1)) * (d1 - (1+d1)ln(1+d1)) = ln(xi/2)`` for the lower end
    ``X/(1+d1)`` and the mirrored equation in ``d2`` for the upper end
    ``X/(1-d2)``.  Both reduce to roots of ``X*(t/X - 1 - ln(t/X)) =
    ln(2/xi)`` around ``t = X``.

    A zero count keeps the analytic limits: lower 0 and upper ``ln(2/xi)``,
    so zero-click windows flow through callers without branching.
    """
    X = float(observed)
    if not math.isfinite(X) or X < 0.0:
        raise ValueError(f"observed count must be finite and non-negative, got {observed!r}")
    _check_failure_prob(failure_prob)
    cap = math.log(2.0 / failure_prob)
    if X == 0.0:
        return ChernoffResult(0.0, cap, failure_prob)
    c = cap / X
    # Lower root, s = ln(t/X) in (-span, 0): residual decreases from ~span to 0.
    if _rel_entropy_residual(-_LOG_SPAN) <= c:
        lower = 0.0  # root sits below X*e^-690; indistinguishable from zero
    else:
        s = _bisect_log(_rel_entropy_residual, -_LOG_SPAN, 0.0, c, increasing=False)
        lower = X * math.exp(s)
    # Upper root, s in (0, span): residual increases without bound.
    if _rel_entropy_residual(_LOG_SPAN) < c:
        upper = cap  # only reachable for sub-1e-290 counts; cap is conservative
    else:
        s = _bisect_log(_rel_entropy_residual, 0.0, _LOG_SPAN, c, increasing=True)
        upper = X * math.exp(s)
    return ChernoffResult(lower, upper, failure_prob)


def chernoff_observed_bounds(expected: float, failure_prob: float) -> ChernoffResult:
    """Bound the value a count will take from its expected value.

    Solves ``(e^d / (1+d)^(1+d))^Y = xi/2`` in both directions, i.e. the two
    roots of ``Y*(u*ln(u) - u + 1) = ln(2/xi)`` with the interval ends
    ``u*Y``.  The lower end clamps to 0 when no root exists in (0, 1), which
    happens exactly for ``Y <= ln(2/xi)``.  A zero expectation keeps the
    limiting convention (0, ln(2/xi)).
    """
    Y = float(expected)
    if not math.isfinite(Y) or Y < 0.0:
        raise ValueError(f"expected value must be finite and non-negative, got {expected!r}")
    _check_failure_prob(failure_prob)
    cap = math.log(2.0 / failure_prob)
    if Y == 0.0:
        return ChernoffResult(0.0, cap, failure_prob)
    c = cap / Y
    if c >= 1.0:  # sup of the residual on (0, 1) is 1
        lower = 0.0
    else:
        s = _bisect_log(_excess_entropy_residual, -_LOG_SPAN, 0.0, c, increasing=False)
        lower = Y * math.exp(s)
    if _excess_entropy_residual(_LOG_SPAN) < c:
        upper = cap  # degenerate sub-1e-300 expectation; cap is conservative
    else:
        s = _bisect_log(_excess_entropy_residual, 0.0, _LOG_SPAN, c, increasing=True)
        upper = Y * math.exp(s)
    return ChernoffResult(lower, upper, failure_prob)


def _tail_by_summation(trials: int, p: float, threshold: int) -> float:
    """Upper tail summed in log space from the threshold upward.

    The terms rise up to the mode floor((n+1)p) and only shrink past it, so
    the sum stops at the first term more than _LOG_TERM_CUTOFF below the
    largest one; the dropped mass is below 1e-21 of the sum for every
    n <= _SUMMATION_LIMIT.
    """
    log_p = math.log(p)
    log_q = math.log1p(-p)
    log_norm = math.lgamma(trials + 1)
    top = -math.inf
    logs = []
    for k in range(threshold, trials + 1):
        v = (
            log_norm
            - math.lgamma(k + 1)
            - math.lgamma(trials - k + 1)
            + k * log_p
            + (trials - k) * log_q
        )
        if v > top:
            top = v
        elif v < top - _LOG_TERM_CUTOFF:
            break
        logs.append(v)
    return math.exp(top) * math.fsum(math.exp(v - top) for v in logs)


def binomial_tail(query: TailQuery) -> float:
    """Pr(X >= threshold) for X ~ Binomial(trials, success_prob).

    Uses log-space summation for small trial counts and the regularized
    incomplete beta function above that, so tails at the 1e-13 scale keep
    full relative accuracy.  The summation stops once the terms past the
    mode fall out of double precision, so its cost follows the spread of
    the distribution rather than the trial count.
    """
    n, p, m = query.trials, query.success_prob, query.threshold
    if m <= 0:
        return 1.0
    if m > n:
        return 0.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    if n <= _SUMMATION_LIMIT:
        return min(_tail_by_summation(n, p, m), 1.0)
    return float(betainc(m, n - m + 1, p))


def invert_tail_for_p(trials: int, threshold: int, target: float) -> float:
    """Success probability p with Pr(X >= threshold) = target.

    The upper tail is the regularized incomplete beta function
    I_p(threshold, trials - threshold + 1), strictly increasing in p for
    1 <= threshold <= trials, so the unique root is its inverse in p.
    """
    if not (0.0 < target < 1.0):
        raise ValueError(f"target tail probability must lie in (0, 1), got {target!r}")
    if not (1 <= threshold <= trials):
        raise ValueError(
            "threshold must lie in [1, trials]: below 1 the tail is pinned at 1 "
            f"for every p (got threshold={threshold}, trials={trials})"
        )
    return float(betaincinv(threshold, trials - threshold + 1, target))


def invert_tail_for_m(trials: int, success_prob: float, target: float) -> int:
    """Smallest threshold m with Pr(X >= m) <= target.

    Integer bisection on the tail.  For target < 1/2 it starts from a
    bracket around the answer: a binomial median is at least floor(n*p), so
    the tail there is at least 1/2, and the multiplicative Chernoff bound at
    level target puts the tail at or below target past its upper end.  One
    count of slack on each side absorbs the rounding of n*p and of the
    Chernoff root.  Larger targets search all of [0, n + 1].
    """
    if not (0.0 < target < 1.0):
        raise ValueError(f"target tail probability must lie in (0, 1), got {target!r}")
    if trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    if not (0.0 <= success_prob <= 1.0):
        raise ValueError(f"success_prob must lie in [0, 1], got {success_prob}")
    lo, hi = 0, trials + 1  # tail(lo) = 1 > target, tail(hi) = 0 <= target
    if target < 0.5:
        mean = trials * success_prob
        lo = max(math.floor(mean) - 1, 0)
        upper = chernoff_observed_bounds(mean, 2.0 * target).upper
        hi = min(math.ceil(upper) + 1, trials + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if binomial_tail(TailQuery(trials, success_prob, mid)) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def shannon_entropy(x: float) -> float:
    """Binary Shannon entropy h(x) in bits, with h(0) = h(1) = 0 by continuity."""
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"entropy argument must lie in [0, 1], got {x!r}")
    small = min(x, 1.0 - x)  # evaluating from the small side keeps h(x) == h(1-x)
    if small == 0.0:
        return 0.0
    return -(small * math.log2(small) + (1.0 - small) * math.log2(1.0 - small))


def mcdiarmid_delta(
    N_X1: float,
    N_oo: float,
    n_T: float,
    S_T: float,
    mu1: float,
    mu1_b: float,
    failure_prob: float,
) -> float:
    """Bounded-difference correction for the combined error-rate numerator.

    The numerator that mixes the error rate of the matched decoy windows with
    the vacuum-window counting rate is a sum of n_T terms, each moving the
    total by A1 = (N_X1+N_oo)/N_X1 or A2 = -(N_X1+N_oo)/(2*N_oo)*e^(-mu1-mu1_b).
    With failure probability at most xi the true sum exceeds the observed one
    by no more than sqrt(n_T*ln(1/xi)/2)*(A1-A2), which rescaled by S_T/n_T is
    the value returned here.
    """
    if N_X1 <= 0 or N_oo <= 0:
        raise ValueError("window sizes N_X1 and N_oo must be positive")
    if n_T < 0:
        raise ValueError(f"n_T must be non-negative, got {n_T}")
    if not (0.0 < failure_prob <= 1.0):
        raise ValueError(f"failure probability must lie in (0, 1], got {failure_prob!r}")
    if not (0.0 <= S_T <= 1.0):
        raise ValueError(f"S_T must be a rate in [0, 1], got {S_T}")
    if n_T == 0:
        warnings.warn("mcdiarmid_delta: no events observed (n_T = 0); returning 0")
        return 0.0
    a1 = (N_X1 + N_oo) / N_X1
    a2 = -((N_X1 + N_oo) / (2.0 * N_oo)) * math.exp(-mu1 - mu1_b)
    return (S_T / n_T) * math.sqrt(n_T * math.log(1.0 / failure_prob) / 2.0) * (a1 - a2)
