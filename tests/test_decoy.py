import math
from dataclasses import replace

import pytest

from snskit.budget import SecurityBudget
from snskit.channel import ObservedStats, SourceParams
from snskit.decoy import (
    bound_e1ph_chernoff,
    bound_e1ph_mcdiarmid,
    bound_s01_s10,
    bound_s1,
    bound_untagged_counts,
    estimate_untagged,
)
from snskit.stats import chernoff_expected_bounds
from tests.conftest import GOLDEN_SRC, table1_exp


def _obs_from_rates(rates: dict, sizes: dict, **extra) -> ObservedStats:
    """Synthetic observation record with exact (unrounded) window counts."""
    fields = dict(
        N_X1=1e9, m_X1=0,
        n_c0=0, n_c1=0, n_v=0, n_d=0,
        n_g=0.0, n_odd=0.0, n_t_prime=0.0, E_prime=0.0,
    )
    for w in ("oo", "ox", "xo", "oy", "yo"):
        size = sizes.get(w, 1e10)
        rate = rates.get(w, 0.0)
        fields[f"N_{w}"] = size
        fields[f"n_{w}"] = size * rate
    fields.update(extra)
    return ObservedStats(**fields)


def _poisson_rate(mu: float, yields_: "list[float]") -> float:
    """Counting rate of a phase-randomized source with the given per-photon
    yields (truncated Poisson model, exact when higher yields vanish)."""
    return math.exp(-mu) * math.fsum(
        mu**k / math.factorial(k) * y for k, y in enumerate(yields_)
    )


FREE = SecurityBudget(xi_default=1.0, xi_e1=1.0)


# ---------------------------------------------------------------------------
# Decoy rate bounds


def test_s01_recovers_single_photon_yield_exactly():
    # Linear yield model truncated at two photons: the two-intensity formula
    # is an identity for Y1, so the fluctuation-free estimator must return it.
    src = SourceParams.symmetric(**GOLDEN_SRC)
    y0, y1, y2 = 3e-7, 4.2e-4, 7.7e-4
    rates = {
        "oo": y0,
        "ox": _poisson_rate(src.mu1_b, [y0, y1, y2]),
        "oy": _poisson_rate(src.mu2_b, [y0, y1, y2]),
        "xo": _poisson_rate(src.mu1, [y0, y1, y2]),
        "yo": _poisson_rate(src.mu2, [y0, y1, y2]),
    }
    obs = _obs_from_rates(rates, {})
    s01, s10 = bound_s01_s10(obs, src, FREE)
    assert s01 == pytest.approx(y1, rel=1e-10, abs=0.0)
    assert s10 == pytest.approx(y1, rel=1e-10, abs=0.0)


def test_s01_equal_rates_closed_form():
    src = SourceParams.symmetric(**GOLDEN_SRC)
    s = 3.3e-5
    obs = _obs_from_rates({w: s for w in ("oo", "ox", "xo", "oy", "yo")}, {})
    s01, _ = bound_s01_s10(obs, src, FREE)
    m1, m2 = src.mu1_b, src.mu2_b
    want = s * (m2**2 * math.exp(m1) - m1**2 * math.exp(m2) - m2**2 + m1**2) / (
        m2 * m1 * (m2 - m1)
    )
    assert s01 == pytest.approx(want, rel=1e-12, abs=0.0)


def test_s01_golden_with_chernoff(golden_obs, golden_exp, golden_src, default_budget):
    # Oracle: re-apply the worst-case substitutions term by term using the
    # concentration module directly.
    xi = default_budget.xi_default
    obs = golden_obs
    ox_L = chernoff_expected_bounds(obs.n_ox, xi).lower / obs.N_ox
    oy_U = chernoff_expected_bounds(obs.n_oy, xi).upper / obs.N_oy
    oo_U = chernoff_expected_bounds(obs.n_oo, xi).upper / obs.N_oo
    m1, m2 = golden_src.mu1_b, golden_src.mu2_b
    want = (m2**2 * math.exp(m1) * ox_L - m1**2 * math.exp(m2) * oy_U
            - (m2**2 - m1**2) * oo_U) / (m2 * m1 * (m2 - m1))
    s01, s10 = bound_s01_s10(obs, golden_src, default_budget)
    assert s01 == pytest.approx(want, rel=1e-12, abs=0.0)
    assert s01 == s10  # symmetric configuration
    assert s01 == pytest.approx(0.0002929229195740095, rel=1e-12, abs=0.0)  # frozen


def test_s01_vacuous_clamps_to_zero():
    src = SourceParams.symmetric(**GOLDEN_SRC)
    # Vacuum window brighter than both decoy windows drives the bound negative.
    obs = _obs_from_rates({"oo": 1e-3, "ox": 1e-5, "oy": 1e-5, "xo": 1e-5, "yo": 1e-5}, {})
    s01, s10 = bound_s01_s10(obs, src, FREE)
    assert s01 == 0.0 and s10 == 0.0


def test_s01_vacuous_where_the_intensity_weight_underflows(golden_obs, default_budget):
    # mu2 * mu1 * (mu2 - mu1) is 0.0 in floating point.
    src = SourceParams.symmetric(**{**GOLDEN_SRC, "mu1": 1e-160, "mu2": 1e-150})
    assert bound_s01_s10(golden_obs, src, default_budget) == (0.0, 0.0)


def test_s01_monotone_in_ox_clicks(golden_obs, golden_src, default_budget):
    s01_base, _ = bound_s01_s10(golden_obs, golden_src, default_budget)
    boosted = replace(golden_obs, n_ox=golden_obs.n_ox + 1000)
    s01_up, _ = bound_s01_s10(boosted, golden_src, default_budget)
    assert s01_up >= s01_base


# ---------------------------------------------------------------------------
# Combination and count bounds


def test_s1_weighted_mean():
    src = SourceParams.symmetric(**GOLDEN_SRC)
    assert bound_s1(0.02, 0.01, src) == pytest.approx(0.015, rel=1e-12, abs=0.0)
    assert bound_s1(0.013, 0.013, src) == pytest.approx(0.013, rel=1e-12, abs=0.0)


def test_s1_asymmetric_weights():
    src = replace(
        SourceParams.symmetric(**GOLDEN_SRC), mu1=0.1, mu2=0.3, mu1_b=0.2, mu2_b=0.4
    )
    got = bound_s1(0.02, 0.01, src)
    assert got == pytest.approx((0.1 * 0.01 + 0.2 * 0.02) / 0.3, rel=1e-12, abs=0.0)
    assert got == pytest.approx(0.016667, rel=1e-4, abs=0.0)


def test_untagged_counts_reference_value():
    exp = table1_exp(300.0, N=1e12)
    src = replace(
        SourceParams.symmetric(p_z=0.5, eps=0.1, p0=0.3, p1=0.3, mu1=0.1, mu2=0.3, mu_z=0.5),
    )
    n01, n10 = bound_untagged_counts(0.0, 1e-5, exp, src)
    assert n01 == 0.0
    assert n10 == pytest.approx(1e12 * 0.25 * 0.09 * 0.5 * math.exp(-0.5) * 1e-5, rel=1e-12)
    assert n10 == pytest.approx(6.823e4, rel=1e-3)


def test_untagged_counts_symmetric_equality(golden_exp, golden_src):
    n01, n10 = bound_untagged_counts(2e-4, 2e-4, golden_exp, golden_src)
    assert n01 == n10


# ---------------------------------------------------------------------------
# Phase-flip error-rate bounds


def test_e1ph_clamps_nonpositive_numerator():
    src = SourceParams.symmetric(**GOLDEN_SRC)
    obs = _obs_from_rates({"oo": 1e-3}, {}, N_X1=1e9, m_X1=0)
    assert bound_e1ph_chernoff(obs, src, 1e-4, FREE) == 0.0


def test_e1ph_ideal_limit_is_zero():
    # Dark-free, misalignment-free, slices fine enough that no error click
    # is expected (the slice-averaged error count is 61 at 16 slices).
    exp = table1_exp(300.0, p_d=0.0, e_d=0.0, M_slices=128)
    src = SourceParams.symmetric(**GOLDEN_SRC)
    from snskit.channel import simulate

    obs = simulate(exp, src)
    assert obs.m_X1 == 0
    assert bound_e1ph_chernoff(obs, src, 1e-4, FREE) == 0.0


def test_e1ph_golden_method_a(golden_obs, golden_src, default_budget):
    xi = default_budget.xi_e1
    t_U = chernoff_expected_bounds(golden_obs.m_X1, xi).upper / golden_obs.N_X1
    oo_L = chernoff_expected_bounds(golden_obs.n_oo, xi).lower / golden_obs.N_oo
    s1 = 0.0002929229195740095
    att = math.exp(-golden_src.mu1 - golden_src.mu1_b)
    want = (t_U - att * oo_L / 2.0) / (att * (golden_src.mu1 + golden_src.mu1_b) * s1)
    got = bound_e1ph_chernoff(golden_obs, golden_src, s1, default_budget)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert got == pytest.approx(0.05025096723206448, rel=1e-12, abs=0.0)  # frozen


def test_e1ph_golden_method_b(golden_obs, golden_src, default_budget):
    s1 = 0.0002929229195740095
    got = bound_e1ph_mcdiarmid(golden_obs, golden_src, s1, default_budget)
    assert got == pytest.approx(0.04379433833874567, rel=1e-12, abs=0.0)  # frozen


def test_e1ph_method_b_reads_the_error_count(golden_obs, golden_src, default_budget):
    # The numerator's error rate is m_X1/N_X1 of the record it is given.  A
    # stored copy of that rate, left stale by replace(), gave 0.04403438788767503
    # here: a 6.3 % under-bound that method A, which reads m_X1, does not have.
    more = replace(golden_obs, m_X1=golden_obs.m_X1 + 50)
    got = bound_e1ph_mcdiarmid(more, golden_src, 0.0002929229195740095, default_budget)
    assert got == pytest.approx(0.046993316312724326, rel=1e-12, abs=0.0)


def test_e1ph_method_b_reads_the_vacuum_count(golden_obs, golden_src, default_budget):
    # More vacuum clicks enlarge the subtracted vacuum term by more than they
    # widen the deviation term, so the bound falls.  A stale stored vacuum
    # rate saw only the deviation term and rose, to 0.04590545053274661.
    s1 = 0.0002929229195740095
    base = bound_e1ph_mcdiarmid(golden_obs, golden_src, s1, default_budget)
    more = replace(golden_obs, n_oo=golden_obs.n_oo + 500)
    got = bound_e1ph_mcdiarmid(more, golden_src, s1, default_budget)
    assert got < base
    assert got == pytest.approx(0.04240951537570738, rel=1e-12, abs=0.0)


def test_e1ph_method_b_not_worse_than_a(golden_obs, golden_src, default_budget):
    s1 = 0.0002929229195740095
    a = bound_e1ph_chernoff(golden_obs, golden_src, s1, default_budget)
    b = bound_e1ph_mcdiarmid(golden_obs, golden_src, s1, default_budget)
    assert b <= a


def test_e1ph_method_b_wins_in_large_sample_regime(default_budget):
    # The claim is guaranteed once the combined windows hold >= 1e4 events.
    from snskit.channel import simulate

    src = SourceParams.symmetric(**GOLDEN_SRC)
    exp = table1_exp(250.0, N=1e13)
    obs = simulate(exp, src)
    assert obs.m_X1 + obs.n_oo >= 1e4
    bounds_a = estimate_untagged(obs, exp, src, default_budget, "A")
    bounds_b = estimate_untagged(obs, exp, src, default_budget, "B")
    assert bounds_b.e1ph_U <= bounds_a.e1ph_U


def test_e1ph_method_b_across_distances(default_budget):
    src = SourceParams.symmetric(**GOLDEN_SRC)
    from snskit.channel import simulate

    for L in (250.0, 350.0, 400.0):
        exp = table1_exp(L)
        obs = simulate(exp, src)
        if obs.m_X1 + obs.n_oo < 1e4:
            continue
        bounds_a = estimate_untagged(obs, exp, src, default_budget, "A")
        bounds_b = estimate_untagged(obs, exp, src, default_budget, "B")
        assert bounds_b.e1ph_U <= bounds_a.e1ph_U


def test_e1ph_method_b_zero_vacuum_clicks_defined(golden_src, default_budget):
    obs = _obs_from_rates(
        {"oo": 0.0, "ox": 1e-5, "oy": 3e-5, "xo": 1e-5, "yo": 3e-5},
        {},
        N_X1=1e9, m_X1=300,
    )
    got = bound_e1ph_mcdiarmid(obs, golden_src, 1e-5, default_budget)
    assert math.isfinite(got) and got >= 0.0


def test_estimate_untagged_method_b_empty_windows(golden_exp, golden_src, default_budget):
    # Positive decoy rates but no events at all in the combined error and
    # vacuum windows: method B must flag the bound vacuous, not crash.
    obs = _obs_from_rates(
        {"oo": 0.0, "ox": 1e-5, "oy": 3e-5, "xo": 1e-5, "yo": 3e-5},
        {},
        N_X1=1e9, m_X1=0,
    )
    b = estimate_untagged(obs, golden_exp, golden_src, default_budget, "B")
    assert b.e1ph_U == 1.0
    assert "vacuous-phase-error" in b.flags


def test_estimate_untagged_method_b_empty_vacuum_window(golden_exp, golden_src):
    # Error events but a vacuum window of size 0 (p0 so small that N p0^2
    # underflows): method B has no vacuum rate to combine, so it is vacuous.
    obs = _obs_from_rates(
        {"ox": 1.0, "oy": 1.0, "xo": 1.0, "yo": 1.0}, {"oo": 0.0}, N_X1=1e9, m_X1=300,
    )
    b = estimate_untagged(obs, golden_exp, golden_src, FREE, "B")
    assert b.s1_L > 0.0 and b.e1ph_U == 1.0
    assert "vacuous-phase-error" in b.flags


def test_e1ph_monotone_in_error_clicks(golden_obs, golden_src, default_budget):
    s1 = 0.0002929229195740095
    base = bound_e1ph_chernoff(golden_obs, golden_src, s1, default_budget)
    more = replace(golden_obs, m_X1=golden_obs.m_X1 + 50)
    assert bound_e1ph_chernoff(more, golden_src, s1, default_budget) >= base


def test_e1ph_requires_positive_s1(golden_obs, golden_src, default_budget):
    with pytest.raises(ValueError):
        bound_e1ph_chernoff(golden_obs, golden_src, 0.0, default_budget)
    with pytest.raises(ValueError):
        bound_e1ph_mcdiarmid(golden_obs, golden_src, 0.0, default_budget)


# ---------------------------------------------------------------------------
# Assembler


def test_estimate_untagged_golden(golden_obs, golden_exp, golden_src, default_budget):
    b = estimate_untagged(golden_obs, golden_exp, golden_src, default_budget, "A")
    assert b.method == "A"
    assert b.flags == ()
    assert b.n1_L == b.n01_L + b.n10_L
    assert b.n01_L == pytest.approx(15218282.934969228, rel=1e-12)  # frozen
    assert b.e1ph_U == pytest.approx(0.05025096723206448, rel=1e-12, abs=0.0)


def test_estimate_untagged_asymptotic_identity(golden_exp, golden_src):
    # Fluctuation-free estimation on exact (unrounded) simulated rates must
    # reproduce the asymptotic decoy identity used to build them.
    from snskit.channel import heralded_rate, transmittance

    eta_a, eta_b = transmittance(golden_exp)
    src = golden_src
    rates = {
        "oo": heralded_rate(0.0, 0.0, golden_exp.p_d),
        "ox": heralded_rate(0.0, src.mu1_b * eta_b, golden_exp.p_d),
        "oy": heralded_rate(0.0, src.mu2_b * eta_b, golden_exp.p_d),
        "xo": heralded_rate(src.mu1 * eta_a, 0.0, golden_exp.p_d),
        "yo": heralded_rate(src.mu2 * eta_a, 0.0, golden_exp.p_d),
    }
    obs = _obs_from_rates(rates, {})
    s01, s10 = bound_s01_s10(obs, src, FREE)
    # One-sided heralded rate expands to sum_k P_k(mu*eta) * 2^(1-k) plus the
    # dark-count floor; the two-intensity bound sits at or below the exact
    # single-photon yield eta_b (up to the tiny dark/multiphoton correction).
    assert s01 == pytest.approx(eta_b, rel=2e-2, abs=0.0)
    assert s01 <= eta_b * (1.0 + 1e-12)
    assert s10 == pytest.approx(s01, rel=1e-12, abs=0.0)


def test_estimate_untagged_vacuous_flags(golden_exp, golden_src, default_budget):
    obs = _obs_from_rates({"oo": 1e-3, "ox": 1e-5, "oy": 1e-5, "xo": 1e-5, "yo": 1e-5}, {})
    b = estimate_untagged(obs, golden_exp, golden_src, default_budget, "A")
    assert "vacuous-decoy-bound" in b.flags
    assert "vacuous-untagged-rate" in b.flags
    assert b.e1ph_U == 1.0
