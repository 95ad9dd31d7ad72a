"""Concentration bounds and tail utilities for finite-key estimation.

Everything in this module is a pure function of its arguments.  The
Chernoff-style interval inversions reduce, after a change of variable
s = ln(t/X), to the two roots of a convex relative-entropy residual, one
on each side of s = 0.  Callers need one end of an interval at a time, so
each end is its own function: a closed-form seed (the branch-point series
s ~ +-sqrt(2c) near s = 0, the asymptote or the Lambert-W form far from
it) followed by a few Newton steps, which converge quadratically.  The
two-sided ``*_bounds`` functions compose the one-sided ends.

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
    "chernoff_expected_lower",
    "chernoff_expected_upper",
    "chernoff_observed_lower",
    "chernoff_observed_upper",
    "binomial_tail",
    "invert_tail_for_p",
    "invert_tail_for_m",
    "shannon_entropy",
    "mcdiarmid_delta",
]

_LOG_SPAN = 690.0  # widest log-ratio solved for; exp() stays finite below it
_NEWTON_RTOL = 1e-8  # relative step after which a quadratic step adds nothing
_NEWTON_MAX_STEPS = 50
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


def _excess_entropy_slope(s: float) -> float:
    return math.exp(s) * s


def _excess_entropy_log_gap(s: float) -> float:
    """ln(1 - (u*ln(u) - u + 1)) = s + ln(1 - s) through s = ln(u), for s < 1.

    Below s = 0 the residual flattens towards 1 and loses its low digits
    in floating point; this form keeps them.
    """
    return s + math.log1p(-s)


def _excess_entropy_log_gap_slope(s: float) -> float:
    return -s / (1.0 - s)


def _newton(f, slope, target: float, s: float) -> float:
    """Root of f(s) = target by Newton steps from the seed s.

    Every residual here is convex or concave and monotone on the side of 0
    it is solved on, so after the first step the iterates approach the root
    from one side.  Convergence is quadratic: once a step falls below
    _NEWTON_RTOL * |s| the next one would be below double precision.  The
    step cap only guards the regime where rounding in f, not the root,
    sets the step size (counts beyond ~1e15).
    """
    for _ in range(_NEWTON_MAX_STEPS):
        step = (f(s) - target) / slope(s)
        s -= step
        if abs(step) < _NEWTON_RTOL * abs(s):
            break
    return s


def _checked_cap(value: float, failure_prob: float, what: str) -> float:
    """Validate one bound's arguments and return ln(2/xi)."""
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{what} must be finite and non-negative, got {value!r}")
    _check_failure_prob(failure_prob)
    return math.log(2.0 / failure_prob)


def chernoff_expected_lower(observed: float, failure_prob: float) -> float:
    """Lower end X*e^s of the expected-value interval, s < 0.

    Root of ``expm1(s) - s = ln(2/xi)/X``; the seed is the branch-point
    series -sqrt(2c) - c/3 for small c and the asymptote -1 - c above.
    """
    X = float(observed)
    cap = _checked_cap(X, failure_prob, "observed count")
    if X == 0.0:
        return 0.0
    c = cap / X
    if _rel_entropy_residual(-_LOG_SPAN) <= c:
        return 0.0  # root sits below X*e^-690; indistinguishable from zero
    seed = -math.sqrt(2.0 * c) - c / 3.0 if c < 1.0 else -1.0 - c
    return X * math.exp(_newton(_rel_entropy_residual, math.expm1, c, seed))


def chernoff_expected_upper(observed: float, failure_prob: float) -> float:
    """Upper end X*e^s of the expected-value interval, s > 0.

    Root of ``expm1(s) - s = ln(2/xi)/X``; the seed is the branch-point
    series sqrt(2c) - c/3 for small c and ln(1 + c + ln(1 + c)) above.
    A zero count gives ln(2/xi).
    """
    X = float(observed)
    cap = _checked_cap(X, failure_prob, "observed count")
    if X == 0.0:
        return cap
    c = cap / X
    if _rel_entropy_residual(_LOG_SPAN) < c:
        return cap  # only reachable for sub-1e-290 counts; cap is conservative
    seed = math.sqrt(2.0 * c) - c / 3.0 if c < 1.0 else math.log1p(c + math.log1p(c))
    return X * math.exp(_newton(_rel_entropy_residual, math.expm1, c, seed))


def chernoff_observed_lower(expected: float, failure_prob: float) -> float:
    """Lower end u*Y of the observed-value interval, u < 1.

    Root of ``u*ln(u) - u + 1 = ln(2/xi)/Y``, solved as
    ``s + ln(1 - s) = ln(1 - c)`` in s = ln(u); the seed is the branch-point
    series -sqrt(2c) - 2c/3 for small c and ln(1 - c) - ln(1 - ln(1 - c))
    towards c = 1.  No root exists once c >= 1 (the residual stays below 1
    on (0, 1)), and the end is 0.
    """
    Y = float(expected)
    cap = _checked_cap(Y, failure_prob, "expected value")
    if Y == 0.0:
        return 0.0
    c = cap / Y
    if c >= 1.0:
        return 0.0
    target = math.log1p(-c)
    seed = -math.sqrt(2.0 * c) - 2.0 * c / 3.0 if c < 0.5 else target - math.log1p(-target)
    s = _newton(_excess_entropy_log_gap, _excess_entropy_log_gap_slope, target, seed)
    return Y * math.exp(s)


def chernoff_observed_upper(expected: float, failure_prob: float) -> float:
    """Upper end u*Y of the observed-value interval, u > 1.

    Root of ``u*ln(u) - u + 1 = ln(2/xi)/Y``, which is s = 1 + W((c - 1)/e)
    in s = ln(u); the seed is the branch-point series sqrt(2c) - 2c/3 for
    c < 1 and Winitzki's approximation W(x) ~ L*(1 - ln(1 + L)/(2 + L)),
    L = ln(1 + x), above.  A zero expectation gives ln(2/xi).
    """
    Y = float(expected)
    cap = _checked_cap(Y, failure_prob, "expected value")
    if Y == 0.0:
        return cap
    c = cap / Y
    if _excess_entropy_residual(_LOG_SPAN) < c:
        return cap  # degenerate sub-1e-300 expectation; cap is conservative
    if c < 1.0:
        seed = math.sqrt(2.0 * c) - 2.0 * c / 3.0
    else:
        w = math.log1p((c - 1.0) / math.e)
        seed = 1.0 + w * (1.0 - math.log1p(w) / (2.0 + w))
    s = _newton(_excess_entropy_residual, _excess_entropy_slope, c, seed)
    return Y * math.exp(s)


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
    return ChernoffResult(
        chernoff_expected_lower(observed, failure_prob),
        chernoff_expected_upper(observed, failure_prob),
        failure_prob,
    )


def chernoff_observed_bounds(expected: float, failure_prob: float) -> ChernoffResult:
    """Bound the value a count will take from its expected value.

    Solves ``(e^d / (1+d)^(1+d))^Y = xi/2`` in both directions, i.e. the two
    roots of ``Y*(u*ln(u) - u + 1) = ln(2/xi)`` with the interval ends
    ``u*Y``.  The lower end clamps to 0 when no root exists in (0, 1), which
    happens exactly for ``Y <= ln(2/xi)``.  A zero expectation keeps the
    limiting convention (0, ln(2/xi)).
    """
    return ChernoffResult(
        chernoff_observed_lower(expected, failure_prob),
        chernoff_observed_upper(expected, failure_prob),
        failure_prob,
    )


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
        upper = chernoff_observed_upper(mean, 2.0 * target)
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
