import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snskit import stats
from snskit.stats import (
    TailQuery,
    binomial_tail,
    chernoff_expected_bounds,
    chernoff_expected_lower,
    chernoff_expected_upper,
    chernoff_observed_bounds,
    chernoff_observed_lower,
    chernoff_observed_upper,
    invert_tail_for_m,
    invert_tail_for_p,
    mcdiarmid_delta,
    shannon_entropy,
)


# ---------------------------------------------------------------------------
# Oracles.  These re-derive the defining equations independently of the
# implementation's change of variables, so the tests measure the solver, not
# its own arithmetic.

def _log_interval_residual(X: float, t: float) -> float:
    """ln of ((e^d/(1+d)^(1+d))^(X/(1+d))) evaluated at d = X/t - 1.

    Algebraically equal to -(t - X + X*ln(X/t)); evaluated through the form
    appropriate to the regime so the oracle itself carries no cancellation.
    """
    d = (t - X) / X
    if abs(d) < 0.5:  # near-X root: difference form
        return -X * (d - math.log1p(d))
    return -((t - X) + X * math.log(X / t))


def _log_dev_residual(Y: float, end: float) -> float:
    """ln of ((e^d/(1+d)^(1+d))^Y) at d = end/Y - 1 (expected-to-observed)."""
    d = (end - Y) / Y
    if abs(d) < 0.5:
        return -Y * ((1.0 + d) * math.log1p(d) - d)
    u = end / Y
    return -Y * (u * math.log(u) - u + 1.0)


def _oracle_root(f, lo: float, hi: float, target: float, iters: int = 200) -> float:
    """Plain bisection for a decreasing f; deliberately naive."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# The 80-step log-space bisection the closed-form Chernoff roots replaced,
# kept as their reference: it brackets each root on a fixed log-width span
# and converges unconditionally.
_LOG_SPAN = 690.0
_BISECT_STEPS = 80  # 690 / 2**80 is far below double precision


def _bisect_log(f, lo: float, hi: float, target: float, increasing: bool) -> float:
    """Root of f(s) = target, f monotone on [lo, hi] with the stated direction."""
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if (f(mid) < target) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisected_ends(X: float, xi: float, residual, no_lower) -> tuple[float, float]:
    """Both interval ends X*e^s from the roots of residual(s) = ln(2/xi)/X."""
    cap = math.log(2.0 / xi)
    if X == 0.0:
        return 0.0, cap
    c = cap / X
    if no_lower(c):
        lower = 0.0
    else:
        lower = X * math.exp(_bisect_log(residual, -_LOG_SPAN, 0.0, c, increasing=False))
    if residual(_LOG_SPAN) < c:
        upper = cap
    else:
        upper = X * math.exp(_bisect_log(residual, 0.0, _LOG_SPAN, c, increasing=True))
    return lower, upper


def _bisected_expected(X: float, xi: float) -> tuple[float, float]:
    def residual(s):
        return math.expm1(s) - s

    return _bisected_ends(X, xi, residual, lambda c: residual(-_LOG_SPAN) <= c)


def _bisected_observed(Y: float, xi: float) -> tuple[float, float]:
    def residual(s):
        return math.expm1(s) * (s - 1.0) + s

    return _bisected_ends(Y, xi, residual, lambda c: c >= 1.0)


_ONE_SIDED = [
    pytest.param(chernoff_expected_lower, chernoff_expected_upper, _bisected_expected,
                 id="expected"),
    pytest.param(chernoff_observed_lower, chernoff_observed_upper, _bisected_observed,
                 id="observed"),
]


def _direct_tail(n: int, p: float, m: int) -> float:
    return math.fsum(
        math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(m, n + 1)
    )


def _full_log_sum(n: int, p: float, m: int) -> float:
    """Every term of the upper tail, summed in log space without truncation."""
    logs = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
        for k in range(m, n + 1)
    ]
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(v - top) for v in logs)


def _oracle_p(trials: int, threshold: int, target: float) -> float:
    """Bisection on ln(p) over the forward tail; slow but independent of betaincinv."""
    lo, hi = -690.0, 0.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if binomial_tail(TailQuery(trials, math.exp(mid), threshold)) < target:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def _oracle_m(trials: int, p: float, target: float) -> int:
    """Smallest m with tail(m) <= target, bisected over the whole range [0, n + 1]."""
    lo, hi = 0, trials + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if binomial_tail(TailQuery(trials, p, mid)) <= target:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Chernoff: observed -> expected


def test_expected_bounds_zero_count():
    res = chernoff_expected_bounds(0.0, 1e-10)
    assert res.lower == 0.0
    assert res.upper == pytest.approx(math.log(2.0 / 1e-10), rel=1e-12)


def test_expected_bounds_reference_point():
    # Independent oracle: bisect the raw interval equations for delta1/delta2.
    X, xi = 1e6, 1e-10
    target = math.log(xi / 2.0)

    def lower_eq(d1):  # decreasing in d1
        return (X / (1.0 + d1)) * (d1 - (1.0 + d1) * math.log1p(d1))

    def upper_eq(d2):  # decreasing in d2 on (0, 1)
        return (X / (1.0 - d2)) * (-d2 - (1.0 - d2) * math.log1p(-d2))

    d1 = _oracle_root(lower_eq, 1e-6, 0.5, target)
    d2 = _oracle_root(upper_eq, 1e-6, 0.999999, target)
    res = chernoff_expected_bounds(X, xi)
    assert res.lower == pytest.approx(X / (1.0 + d1), rel=1e-9)
    assert res.upper == pytest.approx(X / (1.0 - d2), rel=1e-9)
    # Magnitudes of the reference point itself.
    assert d1 == pytest.approx(6.9e-3, rel=0.01)
    assert d2 == pytest.approx(6.9e-3, rel=0.01)
    assert res.lower == pytest.approx(9.932e5, rel=1e-3)
    assert res.upper == pytest.approx(1.0069e6, rel=1e-3)


@pytest.mark.parametrize("X", [1.0, 100.0, 1e4, 1e6, 1e8, 1e10])
@pytest.mark.parametrize("xi", [1e-15, 1e-13, 1e-10, 1e-7, 1e-3, 0.09])
def test_expected_bounds_round_trip(X, xi):
    # Substituting the returned interval ends back into the governing
    # equations must reproduce xi/2 to better than 1e-9 relative.
    res = chernoff_expected_bounds(X, xi)
    for t in (res.lower, res.upper):
        rel = math.expm1(_log_interval_residual(X, t) - math.log(xi / 2.0))
        assert abs(rel) < 1e-9
    assert res.lower <= X <= res.upper


@pytest.mark.parametrize("X", [200.0, 1e3, 1e4, 1e5])
def test_expected_bounds_raw_equation(X):
    # Same check through the literal textbook expression (no log rewriting);
    # restricted to counts where the raw powers stay in double range.
    xi = 1e-10
    res = chernoff_expected_bounds(X, xi)
    d1 = X / res.lower - 1.0
    d2 = 1.0 - X / res.upper
    raw_lower = (math.exp(d1) / (1.0 + d1) ** (1.0 + d1)) ** (X / (1.0 + d1))
    raw_upper = (math.exp(-d2) / (1.0 - d2) ** (1.0 - d2)) ** (X / (1.0 - d2))
    assert raw_lower == pytest.approx(xi / 2.0, rel=1e-8)
    assert raw_upper == pytest.approx(xi / 2.0, rel=1e-8)


def test_expected_bounds_invalid_arguments():
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            chernoff_expected_bounds(bad, 1e-10)
    for bad_xi in (0.0, 1.0, -0.1, 2.0, float("nan")):
        with pytest.raises(ValueError):
            chernoff_expected_bounds(10.0, bad_xi)


# ---------------------------------------------------------------------------
# Chernoff: expected -> observed


def test_observed_bounds_zero_expectation():
    res = chernoff_observed_bounds(0.0, 1e-10)
    assert res.lower == 0.0
    assert res.upper == pytest.approx(math.log(2.0 / 1e-10), rel=1e-12)


def test_observed_bounds_reference_point():
    Y, xi = 1e6, 1e-10
    res = chernoff_observed_bounds(Y, xi)
    d1 = res.upper / Y - 1.0
    d2 = 1.0 - res.lower / Y
    gauss = math.sqrt(2.0 * math.log(2.0 / xi) / Y)
    assert d1 == pytest.approx(gauss, rel=2e-3)
    assert d2 == pytest.approx(gauss, rel=2e-3)
    assert d1 == pytest.approx(6.9e-3, rel=0.01)


@pytest.mark.parametrize("Y", [50.0, 1e3, 1e6, 1e9])
@pytest.mark.parametrize("xi", [1e-13, 1e-10, 1e-4])
def test_observed_bounds_round_trip(Y, xi):
    res = chernoff_observed_bounds(Y, xi)
    for end in (res.lower, res.upper):
        if end == 0.0:
            continue
        rel = math.expm1(_log_dev_residual(Y, end) - math.log(xi / 2.0))
        assert abs(rel) < 1e-9
    assert res.lower <= Y <= res.upper


def test_observed_bounds_tighter_for_larger_xi():
    Y = 1e5
    wide = chernoff_observed_bounds(Y, 1e-12)
    narrow = chernoff_observed_bounds(Y, 1e-3)
    assert wide.lower < narrow.lower <= Y <= narrow.upper < wide.upper


def test_observed_bounds_small_expectation_clamps_lower():
    # No root in (0, 1) once Y <= ln(2/xi); the lower end collapses to 0.
    xi = 1e-10
    assert chernoff_observed_bounds(math.log(2.0 / xi) * 0.99, xi).lower == 0.0
    assert chernoff_observed_bounds(math.log(2.0 / xi) * 1.50, xi).lower > 0.0


# ---------------------------------------------------------------------------
# One-sided Chernoff roots against the bisection they replaced


@pytest.mark.parametrize("lower,upper,oracle", _ONE_SIDED)
@settings(max_examples=300, deadline=None)
@given(
    log_x=st.floats(min_value=-3.0, max_value=14.0),
    log_xi=st.floats(min_value=-14.0, max_value=-2.0),
)
def test_one_sided_roots_match_bisection(lower, upper, oracle, log_x, log_xi):
    X, xi = 10.0**log_x, 10.0**log_xi
    want_lower, want_upper = oracle(X, xi)
    assert upper(X, xi) == pytest.approx(want_upper, rel=1e-12)
    if oracle is _bisected_observed and 0.99 < math.log(2.0 / xi) / X < 1.0:
        return  # degenerate end: the residual's rounding, not the root, sets both answers
    assert lower(X, xi) == pytest.approx(want_lower, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lower,upper,oracle", _ONE_SIDED)
@pytest.mark.parametrize("X", [0.0, 1e-300, 1e-290, 1e14])
@pytest.mark.parametrize("xi", [1e-13, 1e-2])
def test_one_sided_roots_at_count_extremes(lower, upper, oracle, X, xi):
    # 0 and 1e-300 take the clamped branches (lower 0, upper ln(2/xi) for
    # expected values); 1e-290 puts the upper root near s = 671.
    want_lower, want_upper = oracle(X, xi)
    assert lower(X, xi) == pytest.approx(want_lower, rel=1e-12, abs=0.0)
    assert upper(X, xi) == pytest.approx(want_upper, rel=1e-12, abs=0.0)


def test_observed_lower_at_the_no_root_edge():
    xi = 1e-10
    cap = math.log(2.0 / xi)
    assert chernoff_observed_lower(cap, xi) == 0.0  # c == 1
    assert chernoff_observed_lower(cap * (1.0 - 2.0**-40), xi) == 0.0  # c just above 1
    Y = cap * (1.0 + 2.0**-40)  # c just below 1: the root sits near s = -31
    c = cap / Y
    assert c < 1.0
    u = chernoff_observed_lower(Y, xi) / Y
    assert 0.0 < u < 1e-12
    # u*ln(u) - u + 1 = c, in the form that keeps the digits of 1 - c.
    assert u * (1.0 - math.log(u)) == pytest.approx(1.0 - c, rel=1e-9)


def test_expected_lower_at_the_vanishing_root_edge():
    # The lower root leaves the searched span once c reaches expm1(-690) + 690.
    xi = 1e-10
    cap = math.log(2.0 / xi)
    edge = math.expm1(-_LOG_SPAN) + _LOG_SPAN
    assert chernoff_expected_lower(cap / edge, xi) == 0.0
    X = cap / (edge - 1.0)
    assert chernoff_expected_lower(X, xi) == pytest.approx(
        _bisected_expected(X, xi)[0], rel=1e-12
    )


def test_newton_seeds_converge_in_few_steps(monkeypatch):
    # The closed-form seeds leave every root a few quadratic steps away; a
    # poor seed would still converge, only slowly.
    real = stats._newton
    steps: list[int] = []

    def counting(f, slope, target, s):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return f(x)

        root = real(counted, slope, target, s)
        steps.append(calls[0])
        return root

    monkeypatch.setattr(stats, "_newton", counting)
    xi = 1e-10
    cap = math.log(2.0 / xi)
    roots = (chernoff_expected_lower, chernoff_expected_upper,
             chernoff_observed_lower, chernoff_observed_upper)
    for k in range(-320, 57):  # c from 1e-16 to about 400, 20 per decade
        X = cap / 10.0 ** (k / 20.0)
        for root in roots:
            root(X, xi)
    assert steps and max(steps) <= 5
    # Below c = 1e-10 the series seed, to second order, is already exact to
    # the stop tolerance, so the first step is the last.
    steps.clear()
    for k in range(-320, -199):
        for root in roots:
            root(cap / 10.0 ** (k / 20.0), xi)
    assert steps == [1] * (4 * 121)
    # Far below s = 0 the asymptote -1 - c of the expected lower root is
    # exact to double precision as well.
    steps.clear()
    for c in (40.0, 100.0, 600.0):
        chernoff_expected_lower(cap / c, xi)
    assert steps == [1, 1, 1]


# ---------------------------------------------------------------------------
# Binomial tails and their inverses


def test_tail_full_and_empty():
    assert binomial_tail(TailQuery(100, 0.3, 0)) == 1.0
    assert binomial_tail(TailQuery(100, 0.3, 101)) == 0.0


def test_tail_single_outcome():
    assert binomial_tail(TailQuery(10, 0.5, 10)) == pytest.approx(9.765625e-4, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 13, 30])
@pytest.mark.parametrize("p", [1e-6, 0.01, 0.3, 0.5, 0.77, 0.999])
def test_tail_matches_direct_summation(n, p):
    for m in range(0, n + 2):
        got = binomial_tail(TailQuery(n, p, m))
        want = _direct_tail(n, p, m) if m <= n else 0.0
        assert abs(got - want) < 1e-12


@pytest.mark.parametrize("p,m", [(0.001, 40), (0.01, 260), (0.3, 6300)])
def test_tail_summation_and_beta_paths_agree(p, m):
    # The regularized-incomplete-beta branch (n > 10000) must agree with the
    # log-space summation used below the switch.
    from snskit.stats import _tail_by_summation

    n = 20_000
    got = binomial_tail(TailQuery(n, p, m))
    want = _tail_by_summation(n, p, m)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize(
    "n,p,thresholds",
    [
        (5000, 0.01, [1, 30, 50, 51, 80, 200]),  # mode 50
        (10_000, 0.3, [2000, 3000, 3001, 3100, 3500]),  # mode 3000
        (37, 0.9, [1, 20, 34, 36, 37]),  # mode 34
        (10_000, 1e-6, [1, 2, 5]),  # mode 0
    ],
)
def test_truncated_sum_matches_full_sum(n, p, thresholds):
    from snskit.stats import _tail_by_summation

    for m in thresholds:
        assert _tail_by_summation(n, p, m) == pytest.approx(_full_log_sum(n, p, m), rel=1e-14)


def test_tail_query_validation():
    with pytest.raises(ValueError):
        TailQuery(0, 0.5, 0)
    with pytest.raises(ValueError):
        TailQuery(10, 1.5, 0)
    with pytest.raises(ValueError):
        TailQuery(10, 0.5, 12)


def test_invert_tail_for_p_single_outcome():
    assert invert_tail_for_p(10, 10, 9.765625e-4) == pytest.approx(0.5, rel=1e-9)


def test_invert_tail_for_p_round_trip():
    for trials, threshold, target in [
        (100, 7, 1e-3),
        (5000, 60, 1e-10),
        (2_000_000, 10_000, 1e-2),
        (50_000_000, 3000, 1e-10),
    ]:
        p = invert_tail_for_p(trials, threshold, target)
        back = binomial_tail(TailQuery(trials, p, threshold))
        assert back == pytest.approx(target, rel=1e-8)


def test_invert_tail_for_p_reference_point():
    # Threshold 1e4 over ~2e6 trials at the 1e-2 level sits just below the
    # naive ratio 5e-3, close to the Gaussian approximation.
    trials = 1_990_059  # 2e6 minus a typical remainder
    p = invert_tail_for_p(trials, 10_000, 1e-2)
    gauss = (10_000 - 2.33 * math.sqrt(10_000)) / trials
    assert p < 10_000 / trials
    assert p == pytest.approx(gauss, rel=1e-3)


def test_invert_tail_for_p_monotone_in_threshold():
    previous = 0.0
    for threshold in (10, 20, 40, 80):
        p = invert_tail_for_p(1000, threshold, 1e-3)
        assert p > previous
        previous = p


@pytest.mark.parametrize(
    "trials,threshold,target",
    [
        (100, 7, 1e-3),
        (5000, 60, 1e-10),
        (9_999, 4000, 0.3),
        (10_000, 1, 1e-2),  # last trial count on the summation path
        (10_001, 1, 1e-2),  # first on the incomplete-beta path
        (10_001, 10_001, 0.7),
        (20_000, 260, 1e-6),
        (2_000_000, 10_000, 1e-2),
        (50_000_000, 3000, 1e-10),
    ],
)
def test_invert_tail_for_p_matches_bisection_oracle(trials, threshold, target):
    assert invert_tail_for_p(trials, threshold, target) == pytest.approx(
        _oracle_p(trials, threshold, target), rel=1e-9
    )


@pytest.mark.parametrize("trials", [1, 7, 3000, 10_001, 10**7])
@pytest.mark.parametrize("target", [1e-12, 1e-2, 0.6])
def test_invert_tail_for_p_single_threshold_closed_form(trials, target):
    # Pr(X >= 1) = 1 - (1-p)^n inverts to p = -expm1(ln(1-target)/n).
    want = -math.expm1(math.log1p(-target) / trials)
    assert invert_tail_for_p(trials, 1, target) == pytest.approx(want, rel=1e-12)


def test_invert_tail_for_p_rejects_zero_threshold():
    with pytest.raises(ValueError):
        invert_tail_for_p(10, 0, 1e-3)


def test_invert_tail_for_m_zero_success_prob():
    assert invert_tail_for_m(10, 0.0, 1e-10) == 1


def test_invert_tail_for_m_reference_point():
    # Frozen from the exact-tail computation; the Gaussian value is ~5450.
    m = invert_tail_for_m(1_000_000, 5e-3, 1e-10)
    assert m == 5456
    assert binomial_tail(TailQuery(1_000_000, 5e-3, m)) <= 1e-10
    assert binomial_tail(TailQuery(1_000_000, 5e-3, m - 1)) > 1e-10


@pytest.mark.parametrize(
    "trials,p,target",
    [
        (1, 0.3, 0.2),
        (1, 0.3, 0.5),
        (1, 0.0, 1e-10),
        (1, 1.0, 1e-10),
        (10, 0.0, 0.7),
        (10, 1.0, 1e-10),
        (10, 1.0, 0.9),
        (3, 0.999, 1e-3),
        (200, 0.5, 0.5),
        (200, 0.5, 0.9),
        (9_999, 1e-3, 1e-12),
        (10_000, 0.3, 1e-10),
        (20_000, 0.37, 0.75),
        (1_000_000, 5e-3, 1e-10),
        (12_345_678, 2e-2, 1e-10),
        (10**7, 1e-9, 1e-2),
    ],
)
def test_invert_tail_for_m_brackets_target(trials, p, target):
    m = invert_tail_for_m(trials, p, target)
    assert m == _oracle_m(trials, p, target)
    assert 1 <= m <= trials + 1
    assert binomial_tail(TailQuery(trials, p, m)) <= target
    assert binomial_tail(TailQuery(trials, p, m - 1)) > target


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**7),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-14, max_value=0.49),
)
def test_invert_tail_for_m_matches_full_range_bisection(trials, p, target):
    assert invert_tail_for_m(trials, p, target) == _oracle_m(trials, p, target)


def test_invert_tail_for_m_monotone_in_target():
    m_loose = invert_tail_for_m(10_000, 0.01, 1e-4)
    m_tight = invert_tail_for_m(10_000, 0.01, 1e-12)
    assert m_tight > m_loose


# ---------------------------------------------------------------------------
# Entropy


def test_entropy_reference_values():
    assert shannon_entropy(0.5) == 1.0
    assert shannon_entropy(0.0) == 0.0
    assert shannon_entropy(1.0) == 0.0
    assert shannon_entropy(0.11) == pytest.approx(0.49991, abs=1e-5)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_entropy_symmetric(x):
    if 1.0 - (1.0 - x) != x:  # keep only inputs whose complement round-trips
        return
    assert shannon_entropy(x) == shannon_entropy(1.0 - x)


def test_entropy_rejects_out_of_range():
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            shannon_entropy(bad)


# ---------------------------------------------------------------------------
# Bounded-difference deviation term


def test_mcdiarmid_zero_at_unit_failure_prob():
    assert mcdiarmid_delta(1e8, 1e8, 1e4, 5e-5, 0.1, 0.1, 1.0) == 0.0


def test_mcdiarmid_golden_value():
    # Independent recomputation of the closed form, spelled out term by term.
    n_T, xi = 1e4, 1e-10
    s_T = n_T / 2e8
    a1 = 2e8 / 1e8
    a2 = -(2e8 / 2e8) * math.exp(-0.2)
    expect = (s_T / n_T) * math.sqrt(n_T * math.log(1.0 / xi) / 2.0) * (a1 - a2)
    got = mcdiarmid_delta(1e8, 1e8, n_T, s_T, 0.1, 0.1, xi)
    assert got == pytest.approx(expect, rel=1e-14)
    assert got == pytest.approx(4.782075677251135e-06, rel=1e-12)


def test_mcdiarmid_span_positive():
    # A1 > 0 >= A2 regardless of the inputs, so the span never vanishes.
    for nx, noo, mu in [(1e6, 1e9, 0.01), (1e9, 1e6, 0.9), (5.0, 7.0, 0.2)]:
        delta = mcdiarmid_delta(nx, noo, 100.0, 1e-4, mu, mu, 1e-10)
        assert delta > 0.0


def test_mcdiarmid_sqrt_log_scaling():
    args = (1e8, 1e8, 1e4, 5e-5, 0.1, 0.12)
    xi = 1e-6
    d1 = mcdiarmid_delta(*args, xi)
    d2 = mcdiarmid_delta(*args, xi**2)
    assert d2 == pytest.approx(math.sqrt(2.0) * d1, rel=1e-10)


def test_mcdiarmid_degenerate_input():
    with pytest.warns(UserWarning):
        assert mcdiarmid_delta(1e8, 1e8, 0, 0.0, 0.1, 0.1, 1e-10) == 0.0
    with pytest.raises(ValueError):
        mcdiarmid_delta(0.0, 1e8, 10, 1e-7, 0.1, 0.1, 1e-10)
