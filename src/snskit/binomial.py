"""Binomial tails in log space, and their inversions in p and in m.

One routine, ``log_tail``, gives ln Pr(X >= m) and ln Pr(X = m) for
X ~ Binomial(n, p): Loader's saddle-point pmf (C. Loader, "Fast and
accurate computation of binomial probabilities", 2000) times the continued
fraction of Pr(X >= m) = I_p(m, n-m+1) (Numerical Recipes 6.4, modified
Lentz), to about 1e-13 relative accuracy at any trial count.  The
derivative of ln Pr(X >= m) in ln p comes with it, so the success
probability at a tail level takes Halley steps from a Cornish-Fisher start,
usually one, and the threshold at a level takes one tail at a
Cornish-Fisher start and then steps of one count along the pmf.  Only
fractions that converge slowly, near the centre of distributions with
millions of trials, fall back to scipy's betainc, imported there.

``stats.binomial_tail``, ``stats.invert_tail_for_p`` and
``stats.invert_tail_for_m`` check the arguments and call in here.
"""

from __future__ import annotations

import math

# ln(k!) - ln(sqrt(2 pi k) (k/e)^k) for k = 0..15, from 40-digit log-gammas
_STIRLING_ERROR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
_LN_2PI = math.log(2.0 * math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SMALLEST = math.ulp(0.0)  # the smallest positive double
_LN_SMALLEST = math.log(_SMALLEST)
_FRACTION_RTOL = 1e-15  # a continued-fraction factor this close to 1 ends the product
_FRACTION_CAP = 250  # fraction steps before a tail falls back to scipy's betainc
_LENTZ_TINY = 1e-300  # floor on a Lentz divisor
_TAIL_RTOL = 4e-13  # relative error a tail may carry; an inverted p is rounded up by it
_HALLEY_TOL = 1e-15  # predicted error in ln(p) after a Halley step that ends the search
_HALLEY_MAX_STEPS = 100
_EXPANSION_Z = 8.0  # normal quantile beyond which the Cornish-Fisher start is not used
_WALK_MAX = 8  # counts walked down one at a time; a longer way down takes a new tail
_EXACT_COUNTS = 2**53  # counts a double holds exactly; beyond them no walk


def _stirling_error(k: int) -> float:
    """ln(k!) - ln(sqrt(2 pi k) (k/e)^k): a table to k = 15, Stirling's series above."""
    if k <= 15:
        return _STIRLING_ERROR[k]
    inv = 1.0 / k
    ixx = inv * inv
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - ixx / 1188) * ixx) * ixx) * ixx) * inv


def _deviance(x: float, mu: float, d: float) -> float:
    """x ln(x/mu) + mu - x, given d = x - mu to full precision (Loader's bd0).

    Up to x = 3 mu and down to x = mu/3 the series in v = d/(x + mu), |v| < 1/2,
    keeps the digits the closed form would cancel away.
    """
    t = x + mu
    if -0.5 * t < d < 0.5 * t:
        v = d / t
        s = d * v
        term = 2.0 * x * v
        v *= v
        j = 3.0
        while True:
            term *= v
            nxt = s + term / j
            if nxt == s:
                return s
            s = nxt
            j += 2.0
    return x * math.log(x / mu) - d


def _fraction(a: float, b: float, x: float, e0: float) -> float | None:
    """Continued fraction of I_x(a, b) (Numerical Recipes' betacf), or None
    when it has not converged within _FRACTION_CAP steps.

    e0 = (a + 1) - (a + b) x, the first partial denominator, is passed in
    to full precision.  Each step of modified Lentz's method is rearranged
    so that every quantity it forms is a sum of positive terms on the side
    of (a + 1)/(a + b + 2) the fraction is taken on: in the textbook form,
    1 + a_j D with a_j near -1 multiplies the rounding error by up to
    sqrt(a) there.  e_k, one plus the k-th odd partial numerator, is e0's
    multiple a e0 plus k times a positive increment, over (a + 2k)(a + 2k + 1).
    """
    top = a * e0  # (a + 2k)(a + 2k + 1) e_k at k = 0
    c4 = 4.0 * a + 2.0
    c2 = 2.0 * a + b
    d = (a + 1.0) / e0
    c = 1.0
    h = d
    k = 0.0
    for _ in range(_FRACTION_CAP):
        k += 1.0
        r = a + 2.0 * k
        alpha = k * (b - k) * x / ((r - 1.0) * r)
        e = (top + k * (c4 + 4.0 * k - (c2 + k) * x)) / (r * (r + 1.0))
        u = alpha * d
        w = alpha / c
        eu = e + u
        ew = e + w
        if eu < _LENTZ_TINY:
            eu = _LENTZ_TINY
        delta = ew / eu
        h *= delta
        d = (1.0 + u) / eu
        c = ew / (1.0 + w)
        if c < _LENTZ_TINY:
            c = _LENTZ_TINY
        if -_FRACTION_RTOL < delta - 1.0 < _FRACTION_RTOL:
            return h
    return None


def log_tail(n: int, m: int, p: float) -> tuple[float, float]:
    """(ln Pr(X >= m), ln Pr(X = m)) for X ~ Binomial(n, p), 1 <= m <= n, 0 < p < 1.

    Pr(X = m) is Loader's saddle-point form, and Pr(X >= m) = I_p(m, n-m+1)
    is Pr(X = m) (1 - p) times the continued fraction of I_p, taken where
    it converges, p < (m + 1)/(n + 3); above that the complement
    Pr(X <= m - 1) = Pr(X = m) m (1 - p)/((n - m + 1) p) times the fraction
    of I_(1-p)(n-m+1, m) is.  The differences m - n p and the fractions'
    first denominators are formed exactly from p's binary fraction, since
    each loses digits in proportion to the count.  Near the centre of a
    distribution with millions of trials the fraction converges slowly;
    past _FRACTION_CAP steps scipy's betainc takes over, and past about
    1e19 trials, where betainc returns NaN, 0 or 1, the normal tail with
    its skew term.
    """
    q = 1.0 - p
    num, den = p.as_integer_ratio()
    d = (m * den - n * num) / den  # m - n p
    if m == n:
        log_pmf = n * math.log(p)
    else:
        x, y = float(m), float(n - m)
        log_pmf = (
            _stirling_error(n) - _stirling_error(m) - _stirling_error(n - m)
            - _deviance(x, n * p, d) - _deviance(y, n * q, -d)
            - 0.5 * (_LN_2PI + math.log(x * (y / n)))
        )
    a, b = float(m), float(n - m + 1)
    first = (m + 1) * den - (n + 1) * num  # den ((m + 1) - (n + 1) p), exactly
    if first > 2 * num:  # p < (m + 1)/(n + 3), decided exactly
        h = _fraction(a, b, p, first / den)
        if h is not None:
            return log_pmf + math.log(q * h), log_pmf
    else:
        h = _fraction(b, a, q, (2 * den - first) / den)  # (n + 1) p - (m - 1)
        lower = math.exp(log_pmf + math.log(a * q * h / b)) if h is not None else 1.0
        if lower < 1.0:  # it is, unless the counts have outgrown a double's digits
            return math.log1p(-lower), log_pmf
    from scipy.special import betainc  # deferred: only slow fractions need scipy

    tail = float(betainc(a, b, p))
    if not 0.0 < tail < 1.0:
        # betainc fails from about 1e19 trials, where the normal tail with
        # its skew term is as exact as the float counts themselves.
        sd = math.sqrt(n * p * q)
        z = (d - 0.5) / sd
        tail = (0.5 * math.erfc(z / math.sqrt(2.0))
                + math.exp(-0.5 * z * z) / _SQRT_2PI * (q - p) / sd * (z * z - 1.0) / 6.0)
    return math.log(min(max(tail, _SMALLEST), 1.0)), log_pmf


def _normal_quantile(level: float) -> float:
    from statistics import NormalDist  # deferred: statistics loads random

    return NormalDist().inv_cdf(level)


def _cornish_fisher(z: float, skew: float, kurt: float) -> float:
    """Standardized quantile at the normal quantile z, to second order."""
    z2 = z * z
    return (z + (z2 - 1.0) * skew / 6.0 + (z2 - 3.0) * z * kurt / 24.0
            - (2.0 * z2 - 5.0) * z * skew * skew / 36.0)


def invert_p(n: int, m: int, target: float) -> float:
    """Success probability p with Pr(X >= m) = target, rounded up, for
    1 <= m <= n and 0 < target < 1.

    The upper tail is I_p(m, n - m + 1), increasing in p, so p is the
    target quantile of that beta distribution.  Halley steps in s = ln p
    solve ln Pr(X >= m) = ln(target): with g = ln Pr(X >= m) the slope is
    g' = m Pr(X = m)/Pr(X >= m) and the curvature is
    g'' = g' (m - (n - m) p/(1 - p) - g'), so each step costs one tail.
    They start from the Cornish-Fisher quantile of the beta distribution,
    close enough that one step usually ends the search: a step h leaves an
    error of about ((g''/2g')^2 + |g'''/6g'|) h^3, g''' following from the
    same terms, and the search ends once eight times that is below
    _HALLEY_TOL.  Steps that leave the bracket bisect it instead; the union
    bound n^m p^m / m! >= Pr(X >= m) puts its lower end where the tail is at
    most target.  The root is rounded up by the tail's relative accuracy
    over the slope, so Pr(X >= m) >= target at the p returned.
    """
    ln_target = math.log(target)
    # The smallest positive double bounds the bracket too: a root below it
    # rounds up to it.
    lo = max((ln_target + math.lgamma(m + 1)) / m - math.log(n), _LN_SMALLEST)
    hi = 0.0
    z = _normal_quantile(target)
    s = lo  # far out the union bound is nearly the tail, and the expansion diverges
    if z > -_EXPANSION_Z:
        t = n + 1.0
        fa = m / t  # the beta distribution's mean; fb = 1 - fa
        fb = (n - m + 1) / t
        sd = math.sqrt(fa * fb / (t + 1.0))
        skew = 2.0 * (fb - fa) * math.sqrt(t + 1.0) / ((t + 2.0) * math.sqrt(fa * fb))
        kurt = (6.0 * ((fa - fb) ** 2 * (t + 1.0) - fa * fb * (t + 2.0))
                / (fa * fb * (t + 2.0) * (t + 3.0)))
        start = fa + sd * _cornish_fisher(z, skew, kurt)
        if 0.0 < start < 1.0:
            s = min(max(math.log(start), lo), hi)
    last = before_last = hi - lo
    for _ in range(_HALLEY_MAX_STEPS):
        p = math.exp(s)
        if p == 1.0:
            return 1.0  # the root lies within a rounding of 1
        ln_tail, ln_pmf = log_tail(n, m, p)
        g = ln_tail - ln_target
        if g < 0.0:
            lo = s
        else:
            hi = s
        odds = (n - m) * p / (1.0 - p)
        slope = m * math.exp(ln_pmf - ln_tail)
        bend = m - odds - slope
        curve = slope * bend
        denom = 2.0 * slope * slope - g * curve
        if denom > 0.0:
            step = -2.0 * g * slope / denom
        else:  # Newton, or a bisection where the slope underflows
            step = -g / slope if slope > 0.0 else math.inf
        # Bisect a step that leaves the bracket, or that has not halved in
        # two steps (Numerical Recipes' rtsafe), as far from the root the
        # slope can be too small to make progress.
        if lo <= s + step <= hi and 2.0 * abs(step) <= before_last:
            third = bend * bend - odds / (1.0 - p) - curve  # g'''/g'
            error = 8.0 * abs(step) ** 3 * (bend * bend / 4.0 + abs(third) / 6.0)
            if denom > 0.0 and error <= _HALLEY_TOL:
                # Up by the tail's error, whose floor is the rounding of its log.
                noise = _TAIL_RTOL + 4.0 * math.ulp(ln_target)
                p *= math.exp(min(step + error + noise / slope, -s))
                return min(p + 4.0 * math.ulp(p), 1.0)  # and past the rounding of p itself
        else:
            step = 0.5 * (lo + hi) - s
        before_last, last = last, abs(step)
        s += step
    return math.exp(hi)


def invert_m(n: int, p: float, target: float) -> int:
    """Smallest threshold m with Pr(X >= m) <= target, for 0 <= p <= 1 and
    0 < target < 1.

    One tail at the Cornish-Fisher quantile of Binomial(n, p), then steps
    of one count (``_walk_down``): Pr(X >= m - 1) = Pr(X >= m) + Pr(X = m - 1),
    with each pmf the last one times m (1 - p)/((n - m + 1) p).  Steps only
    go down, so they add terms and never subtract one.  The tail is
    log-concave in m, so its log lies below every chord's extension: a
    start above the answer that is far from it is moved down by the
    backward slope, and a start below the answer is moved up by the forward
    slope, both onto a point that is still at or above the answer.  Every
    tail evaluated narrows a bracket on the answer, and a move that has not
    halved in two moves bisects it instead, so the search ends even past
    2**53 trials, where the counts and tails lose their digits and no step
    of one count is taken.
    """
    if p == 0.0:
        return 1  # Pr(X >= 1) = 0
    if p == 1.0:
        return n + 1  # Pr(X >= n) = 1
    q = 1.0 - p
    ln_target = math.log(target)
    start = n * p
    sd = math.sqrt(start * q)
    if sd > 1.0:  # below one count the expansion's skew terms run away
        start += sd * _cornish_fisher(
            -_normal_quantile(target), (q - p) / sd, (1.0 - 6.0 * p * q) / (sd * sd)
        ) + 0.5
    m = min(max(math.ceil(start), 1), n)
    lo, hi = 0, n + 1  # tail(lo) > target >= tail(hi)
    last = before_last = n + 1
    while True:
        ln_tail, ln_pmf = log_tail(n, m, p)
        gap = ln_target - ln_tail
        if math.exp(ln_tail) > target:  # below the answer: up by the forward slope, onto or past it
            lo = m
            ratio = math.exp(ln_pmf - ln_tail)  # Pr(X = m)/Pr(X >= m)
            fall = -math.log1p(-ratio) if ratio < 1.0 else math.inf  # ln tail(m)/tail(m + 1)
            reach = -gap / fall if fall > 0.0 else math.inf
            step = max(math.ceil(reach), 1) if reach < hi - m else hi - m
        else:  # at or above the answer: down by the backward slope, not past it
            hi = m
            below = math.exp(ln_pmf - ln_tail) * m * q / ((n - m + 1) * p)  # Pr(X = m - 1)/tail(m)
            fall = math.log1p(below)  # ln tail(m - 1)/tail(m)
            reach = gap / fall if fall > 0.0 else math.inf
            if reach < _WALK_MAX + 1 and n < _EXACT_COUNTS:
                return _walk_down(n, m, p, target, lo, math.exp(-gap), below)
            if reach < 1.0:
                return m  # tail(m - 1) > target
            step = -math.floor(reach) if reach < m - lo else lo - m
        if hi - lo <= 1:
            return hi
        # Bisect a move that leaves the bracket or has not halved in two
        # moves: where the counts outgrow a double's digits, the tails
        # lose theirs and the slopes stop guiding.
        if not (lo < m + step < hi and 2 * abs(step) <= before_last):
            step = (lo + hi) // 2 - m
        before_last, last = last, abs(step)
        m += step


def _walk_down(n: int, m: int, p: float, target: float, lo: int, total: float,
               below: float) -> int:
    """Smallest threshold at or below m whose tail stays at or below target,
    by adding pmf terms to tail(m) = total * target, with tail(m - 1) =
    tail(m) (1 + below) and tail(lo) > target.

    A walked tail that lies within the tail's error of the target is
    decided as binomial_tail decides it.
    """
    q = 1.0 - p
    top = m
    below *= total  # tails and terms in units of the target
    # A term below the sum's last digit ends the walk as well.
    while m > lo + 1 and total < total + below <= 1.0:
        total += below
        m -= 1
        below *= m * q / ((n - m + 1) * p)
    if m < top and abs(total - 1.0) < _TAIL_RTOL and math.exp(log_tail(n, m, p)[0]) > target:
        return m + 1
    if m > lo + 1 and abs(total + below - 1.0) < _TAIL_RTOL and (
        math.exp(log_tail(n, m - 1, p)[0]) <= target
    ):
        return m - 1
    return m
