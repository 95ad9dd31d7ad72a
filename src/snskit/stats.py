"""Concentration bounds and tail utilities for finite-key estimation.

Everything in this module is a pure function of its arguments.  The
Chernoff-style interval inversions reduce, after a change of variable
s = ln(t/X), to the two roots of a convex relative-entropy residual, one
on each side of s = 0.  Callers need one end of an interval at a time, so
each end is its own function: a closed-form seed (the branch-point series
s ~ +-sqrt(2c) near s = 0, the asymptote or the Lambert-W form far from
it) followed by a few Newton steps, which converge quadratically.  Each
end runs its own Newton loop with its residual and slope written out
inline.  The two-sided ``*_bounds`` functions compose the one-sided ends.
The pipeline calls each end's private core with ln(2/xi) directly, past
the argument checks.

The binomial tail and its two inversions check their arguments here and
compute in ``snskit.binomial``, which they import at their first call:
only exact mode evaluates a tail, so approx mode never loads that code.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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
# Each residual at the edge of the span: a c beyond it has its root outside.
_REL_ENTROPY_AT_LOWER_EDGE = math.expm1(-_LOG_SPAN) + _LOG_SPAN
_REL_ENTROPY_AT_UPPER_EDGE = math.expm1(_LOG_SPAN) - _LOG_SPAN
_EXCESS_ENTROPY_AT_UPPER_EDGE = math.expm1(_LOG_SPAN) * (_LOG_SPAN - 1.0) + _LOG_SPAN
# Every residual is convex or concave and monotone on the side of 0 it is
# solved on, so after the first Newton step the iterates approach the root
# from one side.  Convergence is quadratic: once a step falls below
# _NEWTON_RTOL * |s| the next one would be below double precision.  The step
# cap only guards the regime where rounding in the residual, not the root,
# sets the step size (counts beyond ~1e15).
_NEWTON_RTOL = 1e-8
_NEWTON_MAX_STEPS = 50


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
    return _expected_lower(X, _checked_cap(X, failure_prob, "observed count"))


def _expected_lower(X: float, cap: float) -> float:
    # chernoff_expected_lower with cap = ln(2/xi), unchecked: the decoy and
    # pairing stages pass counts and levels that are valid by construction.
    if X == 0.0:
        return 0.0
    c = cap / X
    if _REL_ENTROPY_AT_LOWER_EDGE <= c:
        return 0.0  # root sits below X*e^-690; indistinguishable from zero
    s = -math.sqrt(2.0 * c) - c / 3.0 if c < 1.0 else -1.0 - c
    for _ in range(_NEWTON_MAX_STEPS):
        e = math.expm1(s)
        step = (e - s - c) / e
        s -= step
        if abs(step) < _NEWTON_RTOL * abs(s):
            break
    return X * math.exp(s)


def chernoff_expected_upper(observed: float, failure_prob: float) -> float:
    """Upper end X*e^s of the expected-value interval, s > 0.

    Root of ``expm1(s) - s = ln(2/xi)/X``; the seed is the branch-point
    series sqrt(2c) - c/3 for small c and ln(1 + c + ln(1 + c)) above.
    A zero count gives ln(2/xi).
    """
    X = float(observed)
    return _expected_upper(X, _checked_cap(X, failure_prob, "observed count"))


def _expected_upper(X: float, cap: float) -> float:
    # chernoff_expected_upper with cap = ln(2/xi), unchecked.
    if X == 0.0:
        return cap
    c = cap / X
    if _REL_ENTROPY_AT_UPPER_EDGE < c:
        return cap  # only reachable for sub-1e-290 counts; cap is conservative
    s = math.sqrt(2.0 * c) - c / 3.0 if c < 1.0 else math.log1p(c + math.log1p(c))
    for _ in range(_NEWTON_MAX_STEPS):
        e = math.expm1(s)
        step = (e - s - c) / e
        s -= step
        if abs(step) < _NEWTON_RTOL * abs(s):
            break
    return X * math.exp(s)


def chernoff_observed_lower(expected: float, failure_prob: float) -> float:
    """Lower end u*Y of the observed-value interval, u < 1.

    Root of ``u*ln(u) - u + 1 = ln(2/xi)/Y``, solved as
    ``s + ln(1 - s) = ln(1 - c)`` in s = ln(u); the seed is the branch-point
    series -sqrt(2c) - 2c/3 for small c and ln(1 - c) - ln(1 - ln(1 - c))
    towards c = 1.  No root exists once c >= 1 (the residual stays below 1
    on (0, 1)), and the end is 0.  Below s = 0 the residual flattens
    towards 1 and loses its low digits in floating point; the log form
    keeps them.
    """
    Y = float(expected)
    return _observed_lower(Y, _checked_cap(Y, failure_prob, "expected value"))


def _observed_lower(Y: float, cap: float) -> float:
    # chernoff_observed_lower with cap = ln(2/xi), unchecked.
    if Y == 0.0:
        return 0.0
    c = cap / Y
    if c >= 1.0:
        return 0.0
    target = math.log1p(-c)
    s = -math.sqrt(2.0 * c) - 2.0 * c / 3.0 if c < 0.5 else target - math.log1p(-target)
    for _ in range(_NEWTON_MAX_STEPS):
        step = (s + math.log1p(-s) - target) / (-s / (1.0 - s))
        s -= step
        if abs(step) < _NEWTON_RTOL * abs(s):
            break
    return Y * math.exp(s)


def chernoff_observed_upper(expected: float, failure_prob: float) -> float:
    """Upper end u*Y of the observed-value interval, u > 1.

    Root of ``u*ln(u) - u + 1 = ln(2/xi)/Y``, which is s = 1 + W((c - 1)/e)
    in s = ln(u); the seed is the branch-point series sqrt(2c) - 2c/3 for
    c < 1 and Winitzki's approximation W(x) ~ L*(1 - ln(1 + L)/(2 + L)),
    L = ln(1 + x), above.  A zero expectation gives ln(2/xi).
    """
    Y = float(expected)
    return _observed_upper(Y, _checked_cap(Y, failure_prob, "expected value"))


def _observed_upper(Y: float, cap: float) -> float:
    # chernoff_observed_upper with cap = ln(2/xi), unchecked.
    if Y == 0.0:
        return cap
    c = cap / Y
    if _EXCESS_ENTROPY_AT_UPPER_EDGE < c:
        return cap  # degenerate sub-1e-300 expectation; cap is conservative
    if c < 1.0:
        s = math.sqrt(2.0 * c) - 2.0 * c / 3.0
    else:
        w = math.log1p((c - 1.0) / math.e)
        s = 1.0 + w * (1.0 - math.log1p(w) / (2.0 + w))
    for _ in range(_NEWTON_MAX_STEPS):
        step = (math.expm1(s) * (s - 1.0) + s - c) / (math.exp(s) * s)
        s -= step
        if abs(step) < _NEWTON_RTOL * abs(s):
            break
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


def binomial_tail(query: TailQuery) -> float:
    """Pr(X >= threshold) for X ~ Binomial(trials, success_prob).

    Computed in log space (``binomial.log_tail``) to about 1e-13 relative
    accuracy, down to the smallest positive double.
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
    from .binomial import log_tail  # deferred: approx mode never loads the tail code

    return math.exp(log_tail(n, m, p)[0])


def invert_tail_for_p(trials: int, threshold: int, target: float) -> float:
    """Success probability p with Pr(X >= threshold) = target, rounded up.

    The upper tail is I_p(threshold, trials - threshold + 1), increasing in
    p, so the root is unique; Pr(X >= threshold) >= target at the p returned
    (``binomial.invert_p``).
    """
    if not (0.0 < target < 1.0):
        raise ValueError(f"target tail probability must lie in (0, 1), got {target!r}")
    if not (1 <= threshold <= trials):
        raise ValueError(
            "threshold must lie in [1, trials]: below 1 the tail is pinned at 1 "
            f"for every p (got threshold={threshold}, trials={trials})"
        )
    from .binomial import invert_p  # deferred: approx mode never loads the tail code

    return invert_p(trials, threshold, target)


def invert_tail_for_m(trials: int, success_prob: float, target: float) -> int:
    """Smallest threshold m with Pr(X >= m) <= target (``binomial.invert_m``)."""
    if not (0.0 < target < 1.0):
        raise ValueError(f"target tail probability must lie in (0, 1), got {target!r}")
    if trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    if not (0.0 <= success_prob <= 1.0):
        raise ValueError(f"success_prob must lie in [0, 1], got {success_prob}")
    from .binomial import invert_m  # deferred: approx mode never loads the tail code

    return invert_m(trials, success_prob, target)


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
