import math

import pytest

from snskit.budget import SecurityBudget
from snskit.stats import TailQuery, binomial_tail, chernoff_observed_bounds
from snskit.zigzag import (
    compute_M_bar,
    compute_M_bar_s,
    compute_n1_prime,
    compute_pair_counts,
    compute_r,
    phase_error_rate_after_oper,
    run_zigzag,
    u_factor,
)

BUDGET = SecurityBudget()
FREE = SecurityBudget(xi_default=1.0, xi_e1=1.0)


# ---------------------------------------------------------------------------
# Pairing ratio


def test_u_factor_basic():
    assert u_factor(1000.0, 1000.0) == 1.0
    assert u_factor(500.0, 1000.0) == 0.5
    with pytest.raises(ValueError):
        u_factor(10.0, 0.0)


def test_u_factor_from_pairing_formulas():
    # With symmetric pools the active pairing realizes every random
    # odd-parity pair: n_g = min(1010, 1010)/2 = 505 and n_odd = 505.
    from snskit.channel import simulate_aopp_counts

    n_g, _, n_odd, _ = simulate_aopp_counts(1000, 1000, 10, 10)
    assert u_factor(n_g, n_odd) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Pair and neglected counts


def test_pair_counts_all_untagged_limit():
    n, k, flags = compute_pair_counts(1e6, 1e6, 1.0, FREE)
    assert n == 500_000
    assert k == 1 and flags == ("k-degenerate",)


def test_pair_counts_half_untagged_limit():
    n, k, flags = compute_pair_counts(5e5, 1e6, 1.0, FREE)
    assert n == 125_000  # n_t/8
    assert k == 250_000  # n_t/4
    assert flags == ()


def test_pair_counts_golden():
    n, k, flags = compute_pair_counts(8e5, 1e6, 0.9, BUDGET)
    assert (n, k) == (284311, 141394)  # frozen
    assert flags == ()
    # Oracle: the same two expectations pushed through the concentration
    # module directly.
    want_n = chernoff_observed_bounds(0.8 * 0.8 * 0.9 * 1e6 / 2.0, 1e-10).lower
    want_k = chernoff_observed_bounds(0.9 * 8e5 - 0.8 * 0.8 * 0.9 * 1e6, 1e-10).lower
    assert n == math.floor(want_n)
    assert k == math.floor(want_k)


def test_pair_counts_validation():
    with pytest.raises(ValueError):
        compute_pair_counts(0.0, 1e6, 0.9, BUDGET)
    with pytest.raises(ValueError):
        compute_pair_counts(1e5, 1e6, 1.2, BUDGET)


# ---------------------------------------------------------------------------
# Near-i.i.d. remainder


def reduction_failure(r: float, n: int, k: int) -> float:
    """Trace-distance bound 3*k^2*exp(-r*k/(2n+k)) of the reduction: compute_r's inverse."""
    return 3.0 * k * k * math.exp(-r * k / (2.0 * n + k))


def test_r_round_trip_substitution():
    for n, k, eps in [(10**6, 10**4, 1e-13), (5_034_103, 13_657_395, 1e-13), (10**8, 10**5, 1e-10)]:
        r = compute_r(n, k, eps)
        assert reduction_failure(r, n, k) == pytest.approx(eps, rel=1e-9)


def test_r_reference_value():
    r = compute_r(10**6, 10**4, 1e-13)
    want = (2e6 + 1e4) / 1e4 * math.log(3e8 / 1e-13)
    assert r == pytest.approx(want, rel=1e-12)
    assert r == pytest.approx(9.94e3, rel=1e-3)


def test_r_decreasing_in_k():
    rs = [compute_r(10**6, k, 1e-13) for k in (10**3, 10**4, 10**5, 10**6)]
    assert all(b < a for a, b in zip(rs, rs[1:]))


# ---------------------------------------------------------------------------
# Pre-pairing error-count bound


def test_M_bar_zero_error_cap():
    assert compute_M_bar(10**6, 0.0, BUDGET) == 31  # ceil of ln(2/1e-13)


def test_M_bar_golden():
    m = compute_M_bar(10**6, 5e-3, BUDGET)
    assert m == 10793  # frozen from the interval solver at 2n*e1ph = 1e4
    assert m == math.ceil(chernoff_observed_bounds(1e4, 1e-13).upper)


def test_M_bar_monotone():
    values = [compute_M_bar(10**6, e, BUDGET) for e in (0.0, 1e-4, 1e-3, 1e-2, 0.1)]
    assert all(b >= a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Post-pairing error-count bound


def test_M_bar_s_closed_form_reference():
    n, r, m_bar = 10**6, 10**4, 10**4
    m_s, e_tau, flags = compute_M_bar_s(n, r, m_bar, "approx", BUDGET)
    assert flags == ()
    want_e = (m_bar - 2.33 * math.sqrt(m_bar)) / (2 * n - r)
    assert e_tau == pytest.approx(want_e, rel=1e-12)
    assert e_tau == pytest.approx(4.908e-3, rel=1e-3)
    big_e = e_tau * (1.0 - e_tau)
    assert big_e == pytest.approx(4.884e-3, rel=1e-3)
    mean = (n - r) * big_e
    assert m_s == pytest.approx(mean + 6.36 * math.sqrt(mean) + r, rel=1e-12)
    assert m_s == pytest.approx(15277.0, abs=1.0)


def test_M_bar_s_zero_error_floor():
    # M_bar too small to clear the Gaussian term: no errors attributable.
    m_s, e_tau, flags = compute_M_bar_s(10**6, 100.0, 5, "approx", BUDGET)
    assert (m_s, e_tau) == (100.0, 0.0)
    assert flags == ("zero-error-limit",)


def test_M_bar_s_vacuous_above_half():
    m_s, e_tau, flags = compute_M_bar_s(1000, 10.0, 1500, "approx", BUDGET)
    assert e_tau > 0.5
    assert "vacuous-e-tau" in flags


def test_M_bar_s_exact_mode_bracketing():
    n, r, m_bar = 10**6, 9940.0, 10**4
    m_s, e_tau, flags = compute_M_bar_s(n, r, m_bar, "exact", BUDGET)
    assert flags == ()
    big_e = e_tau * (1.0 - e_tau)
    # e_tau solves the pre-pairing tail equation at level xi_tau.
    trials_pre = math.floor(2 * n - r)
    assert binomial_tail(TailQuery(trials_pre, e_tau, m_bar)) == pytest.approx(1e-2, rel=1e-8)
    # The survived-count threshold brackets the xi_tau_tilde level strictly.
    trials_post = math.ceil(n - r)
    shift = round(m_s - r)
    assert binomial_tail(TailQuery(trials_post, big_e, shift)) <= 1e-10
    assert binomial_tail(TailQuery(trials_post, big_e, shift - 1)) > 1e-10


def test_M_bar_s_exact_close_to_approx():
    # The Gaussian constants are slightly loose; exact mode may only tighten,
    # never exceed the closed form by more than 1%.
    for n, r, m_bar in [(10**6, 9940.0, 10**4), (5 * 10**6, 120.0, 5 * 10**5), (10**7, 200.0, 10**4)]:
        approx, *_ = compute_M_bar_s(n, r, m_bar, "approx", BUDGET)
        exact, *_ = compute_M_bar_s(n, r, m_bar, "exact", BUDGET)
        assert exact <= approx * 1.01


def test_M_bar_s_exact_fluctuation_free_pre_pairing_level():
    # xi_tau = 1 takes the expectation: e_tau = M_bar / trials_pre.
    n, r, m_bar = 10**6, 9940.0, 10**4
    free = SecurityBudget(xi_tau=1.0)
    m_s, e_tau, flags = compute_M_bar_s(n, r, m_bar, "exact", free)
    assert flags == ()
    assert e_tau == m_bar / math.floor(2 * n - r)
    big_e = e_tau * (1.0 - e_tau)
    # The survived-count inversion still runs at the default level.
    shift = round(m_s - r)
    assert binomial_tail(TailQuery(math.ceil(n - r), big_e, shift)) <= 1e-10
    assert binomial_tail(TailQuery(math.ceil(n - r), big_e, shift - 1)) > 1e-10


def test_M_bar_s_exact_fluctuation_free_survived_level():
    # xi_tau_tilde = 1 takes the expectation: M_bar_s = trials_post * E_tau + r.
    n, r, m_bar = 10**6, 9940.0, 10**4
    m_s, e_tau, flags = compute_M_bar_s(
        n, r, m_bar, "exact", SecurityBudget(xi_tau_tilde=1.0)
    )
    _, e_tau_default, _ = compute_M_bar_s(n, r, m_bar, "exact", BUDGET)
    assert flags == ()
    assert e_tau == e_tau_default
    assert m_s == math.ceil(n - r) * (e_tau * (1.0 - e_tau)) + r


@pytest.mark.parametrize("override", [{"xi_tau": 1e-4}, {"xi_tau_tilde": 1e-12}, {"xi_tau": 1.0}])
def test_M_bar_s_approx_rejects_other_tail_levels(override):
    budget = SecurityBudget(**override)
    with pytest.raises(ValueError, match='mode="exact"'):
        compute_M_bar_s(10**6, 10**4, 10**4, "approx", budget)
    compute_M_bar_s(10**6, 10**4, 10**4, "exact", budget)  # exact mode takes any level


def test_M_bar_s_monotone_in_inputs():
    base, *_ = compute_M_bar_s(10**6, 10**4, 10**4, "approx", BUDGET)
    more_errors, *_ = compute_M_bar_s(10**6, 10**4, 2 * 10**4, "approx", BUDGET)
    more_remainder, *_ = compute_M_bar_s(10**6, 5 * 10**4, 10**4, "approx", BUDGET)
    assert more_errors >= base
    assert more_remainder >= base
    grid = [compute_M_bar_s(10**6, r, 10**4, "approx", BUDGET)[0] for r in (0.0, 1e3, 1e4, 1e5)]
    assert all(b >= a for a, b in zip(grid, grid[1:]))


@pytest.mark.parametrize("mode", ["approx", "exact"])
def test_M_bar_s_zero_errors_before_pairing(mode):
    # M_bar = 0 comes from a fluctuation-free xi_e1 at e1ph_U = 0.
    assert compute_M_bar(1000, 0.0, FREE) == 0
    assert compute_M_bar_s(1000, 10.0, 0, mode, BUDGET) == (10.0, 0.0, ("zero-error-limit",))


def test_M_bar_s_validation():
    with pytest.raises(ValueError):
        compute_M_bar_s(1000, 2000.0, 10, "approx", BUDGET)
    with pytest.raises(ValueError):
        compute_M_bar_s(1000, 10.0, 10, "weird", BUDGET)


# ---------------------------------------------------------------------------
# Survived count and final rate


def test_n1_prime_zero_when_one_side_empty():
    assert compute_n1_prime(0.0, 1e5, 1e6, 0.9, BUDGET) == 0


def test_n1_prime_no_fluctuation_limit():
    assert compute_n1_prime(5e5, 5e5, 1e6, 1.0, FREE) == 250_000


def test_n1_prime_golden():
    got = compute_n1_prime(15218282.934969228, 15218282.934969228, 71673662, 0.7813630994461425, BUDGET)
    assert got == 2513850  # frozen


def test_phase_error_rate_is_count_over_survivors():
    assert phase_error_rate_after_oper(100.0, 1000) == pytest.approx(0.1, rel=1e-12)


def test_phase_error_rate_edges():
    assert phase_error_rate_after_oper(0.0, 1000) == 0.0
    assert phase_error_rate_after_oper(5000.0, 1000) == 1.0
    with pytest.raises(ValueError):
        phase_error_rate_after_oper(100.0, 0)
    with pytest.raises(ValueError):
        phase_error_rate_after_oper(-1.0, 1000)


# ---------------------------------------------------------------------------
# Full chain


def test_run_zigzag_golden(golden_obs, golden_exp, golden_src, default_budget):
    from snskit.decoy import estimate_untagged

    bounds = estimate_untagged(golden_obs, golden_exp, golden_src, default_budget, "A")
    z = run_zigzag(bounds, golden_obs, default_budget, "approx")
    assert z.flags == ()
    assert z.u == pytest.approx(0.7813630994461425, rel=1e-12)
    assert (z.n, z.k) == (5034103, 13657395)
    assert z.r == pytest.approx(110.99271849227573, rel=1e-12)
    assert z.M_bar == 511515
    assert z.e_tau == pytest.approx(0.050640024471439074, rel=1e-12)
    assert z.E_tau == z.e_tau * (1.0 - z.e_tau)
    assert z.M_bar_s == pytest.approx(245252.02674079326, rel=1e-12)
    assert z.n1_prime == 2513850
    assert z.e1ph_prime == pytest.approx(0.09756032648757614, rel=1e-12)
    assert default_budget.eps_s == pytest.approx(1.502e-10, rel=1e-12)


def test_run_zigzag_reads_untagged_sum_from_its_parts(
    golden_obs, golden_exp, golden_src, default_budget
):
    from dataclasses import replace

    from snskit.decoy import estimate_untagged

    # n1_L is derived from n01_L + n10_L, so a record changed with replace
    # feeds the pair counts and n1_prime the same untagged total.
    bounds = estimate_untagged(golden_obs, golden_exp, golden_src, default_budget, "A")
    halved = replace(bounds, n01_L=bounds.n01_L / 2)
    assert halved.n1_L == halved.n01_L + halved.n10_L
    z = run_zigzag(halved, golden_obs, default_budget, "approx")
    assert z.n == 2828784
    assert z.e1ph_prime == pytest.approx(0.11059809410712715, rel=1e-12, abs=0.0)


def test_zigzag_result_E_tau_follows_e_tau(golden_obs, golden_exp, golden_src, default_budget):
    from dataclasses import replace

    from snskit.decoy import estimate_untagged

    bounds = estimate_untagged(golden_obs, golden_exp, golden_src, default_budget, "A")
    z = replace(run_zigzag(bounds, golden_obs, default_budget, "approx"), e_tau=0.1)
    assert z.E_tau == 0.1 * (1.0 - 0.1)


def test_run_zigzag_exact_mode_tightens(golden_obs, golden_exp, golden_src, default_budget):
    from snskit.decoy import estimate_untagged

    bounds = estimate_untagged(golden_obs, golden_exp, golden_src, default_budget, "A")
    approx = run_zigzag(bounds, golden_obs, default_budget, "approx")
    exact = run_zigzag(bounds, golden_obs, default_budget, "exact")
    assert exact.M_bar_s <= approx.M_bar_s * 1.01
    assert exact.M_bar_s == pytest.approx(245204.99271849229, rel=1e-10)  # frozen


def test_run_zigzag_approx_rejects_other_tail_levels_before_short_circuit(golden_obs):
    from snskit.decoy import UntaggedBounds

    # Even a dead chain, which never reaches the quantiles, reports the
    # budget it cannot honour instead of a ledger that does not hold.
    empty = UntaggedBounds(
        s01_L=0.0, s10_L=0.0, s1_L=0.0, n01_L=0.0, n10_L=0.0,
        e1ph_U=1.0, method="A", flags=("vacuous-decoy-bound",),
    )
    with pytest.raises(ValueError, match='mode="exact"'):
        run_zigzag(empty, golden_obs, SecurityBudget(xi_tau=1e-4), "approx")


def test_run_zigzag_clamps_untagged_count_above_2_to_the_53(golden_obs, default_budget):
    from dataclasses import replace

    from snskit.decoy import UntaggedBounds

    # float(2**58 + 33) rounds up past the int count, which the clamp on
    # n1_L must not carry into the pair counts.
    obs = replace(golden_obs, n_c0=2**58 + 33, n_c1=0, n_v=0, n_d=0)
    assert float(obs.n_t) > obs.n_t
    bounds = UntaggedBounds(
        s01_L=0.1, s10_L=0.1, s1_L=0.1, n01_L=float(obs.n_t), n10_L=float(obs.n_t),
        e1ph_U=0.01, method="A",
    )
    z = run_zigzag(bounds, obs, default_budget, "approx")
    assert "k-degenerate" in z.flags  # every bit untagged: the pair counts ran


def test_M_bar_s_exact_finite_where_the_inverse_fails():
    # scipy's betaincinv returns NaN for I_p(3, 98) = 1e-250, though the
    # root exists (betainc(3, 98, 1e-85) = 1.6e-250 is finite); the Halley
    # search on the log tail finds it, rounded up.
    mp = pytest.importorskip("mpmath")
    from scipy.special import betaincinv

    assert math.isnan(betaincinv(3, 98, 1e-250))
    with mp.workdps(40):
        log_root = mp.findroot(
            lambda s: mp.log(mp.betainc(3, 98, 0, mp.exp(s), regularized=True))
            - mp.log(mp.mpf("1e-250")),
            -195.0,
        )
        root = float(mp.exp(log_root))
    budget = SecurityBudget(xi_tau=1e-250)
    M_bar_s, e_tau, flags = compute_M_bar_s(50, 0.0, 3, "exact", budget)
    assert flags == ()
    assert e_tau == pytest.approx(root, rel=1e-10, abs=0.0)
    assert binomial_tail(TailQuery(100, e_tau, 3)) >= 1e-250  # the conservative end
    # One error among 50 pairs at E_tau ~ 1e-85 already has tail 5e-84 <= 1e-10.
    assert M_bar_s == 1.0


def test_run_zigzag_dead_branch(golden_obs, default_budget):
    from snskit.decoy import UntaggedBounds

    empty = UntaggedBounds(
        s01_L=0.0, s10_L=0.0, s1_L=0.0, n01_L=0.0, n10_L=0.0,
        e1ph_U=1.0, method="A", flags=("vacuous-decoy-bound",),
    )
    z = run_zigzag(empty, golden_obs, default_budget, "approx")
    assert z.n1_prime == 0
    assert z.e1ph_prime == 0.5
    assert "zero-untagged" in z.flags
