import math

import numpy as np
import pytest

from snskit.channel import (
    SourceParams,
    heralded_rate,
    simulate,
    simulate_aopp_counts,
    simulate_decoy_observables,
    simulate_x1_error,
    simulate_z_counts,
    transmittance,
)
from tests.conftest import GOLDEN_SRC, table1_exp


# ---------------------------------------------------------------------------
# Parameter validation


def test_experimental_params_validation():
    with pytest.raises(ValueError):
        table1_exp(300, p_d=1.5)
    with pytest.raises(ValueError):
        table1_exp(300, f=0.9)
    with pytest.raises(ValueError):
        table1_exp(300, M_slices=0)
    with pytest.raises(ValueError):
        table1_exp(300, slice_mode="weird")


def test_source_params_validation():
    with pytest.raises(ValueError):
        SourceParams.symmetric(p_z=0.5, eps=0.3, p0=0.7, p1=0.4, mu1=0.05, mu2=0.4, mu_z=0.4)
    with pytest.raises(ValueError):
        SourceParams.symmetric(p_z=0.5, eps=0.3, p0=0.5, p1=0.3, mu1=0.5, mu2=0.4, mu_z=0.4)
    with pytest.raises(ValueError):
        SourceParams.symmetric(p_z=0.0, eps=0.3, p0=0.5, p1=0.3, mu1=0.05, mu2=0.4, mu_z=0.4)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "name,value",
    [
        ("f", _NAN), ("f", _INF),
        ("N", _NAN), ("N", _INF),
        ("L_A", _NAN), ("L_B", _INF),
        ("alpha_f", _NAN), ("alpha_f", _INF), ("alpha_f", -_INF), ("alpha_f", -0.1),
    ],
)
def test_experimental_params_reject_nan_inf_and_negative_loss(name, value):
    # Before these checks, f=NaN gave R = NaN with no flag, NaN N, L_A or
    # alpha_f crashed deep in simulate, and a negative alpha_f constructed.
    message = {"f": "^f must", "N": "^N must", "L_A": "arm lengths", "L_B": "arm lengths",
               "alpha_f": "^alpha_f must"}[name]
    with pytest.raises(ValueError, match=message):
        table1_exp(300.0, **{name: value})


def test_experimental_params_accept_lossless_fiber():
    assert table1_exp(300.0, alpha_f=0.0).alpha_f == 0.0


@pytest.mark.parametrize("name", ["mu1", "mu2", "mu_z", "mu2_b", "mu_z_b"])
@pytest.mark.parametrize("value", [_NAN, _INF])
def test_source_params_reject_nan_and_inf_intensities(name, value):
    fields = dict(GOLDEN_SRC)
    fields.update({f"{k}_b": v for k, v in GOLDEN_SRC.items()})
    fields[name] = value
    with pytest.raises(ValueError, match="intensities"):
        SourceParams(**fields)


# ---------------------------------------------------------------------------
# Transmittance


def test_transmittance_zero_distance():
    exp = table1_exp(0.0)
    assert transmittance(exp) == (0.3, 0.3)


def test_transmittance_reference_value():
    exp = table1_exp(250.0)
    eta_a, eta_b = transmittance(exp)
    assert eta_a == pytest.approx(9.4868e-4, rel=1e-4)
    assert eta_a == eta_b


def test_transmittance_asymmetric_arms():
    exp = table1_exp(300.0).at_distance(300.0, delta=100.0)
    assert (exp.L_A, exp.L_B) == (200.0, 100.0)
    eta_a, eta_b = transmittance(exp)
    assert eta_a == pytest.approx(0.3 * 10 ** (-4.0), rel=1e-12)
    assert eta_b == pytest.approx(0.3 * 10 ** (-2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# Heralded one-detector rate


def test_heralded_rate_dark_counts_only():
    for p_d in (0.0, 1e-8, 0.01, 0.3):
        assert heralded_rate(0.0, 0.0, p_d) == pytest.approx(
            2.0 * p_d * (1.0 - p_d), rel=1e-12, abs=1e-300
        )


def test_heralded_rate_one_sided_closed_form():
    # With one vacuum arm there is no interference: the textbook expression
    # 2(1-pd)e^(-y/2) - 2(1-pd)^2 e^(-y) must match.
    for y in (1e-6, 1e-3, 0.08, 0.9):
        for p_d in (0.0, 1e-8, 1e-3):
            want = 2 * (1 - p_d) * math.exp(-y / 2) - 2 * (1 - p_d) ** 2 * math.exp(-y)
            assert heralded_rate(0.0, y, p_d) == pytest.approx(want, rel=1e-10)


def test_heralded_rate_symmetric_exactly():
    for x, y in [(1e-4, 3e-3), (0.02, 0.4), (0.7, 0.1)]:
        assert heralded_rate(x, y, 1e-8) == heralded_rate(y, x, 1e-8)


def test_heralded_rate_monotone_in_dark_counts():
    # Holds in the low-intensity operating regime (x + y well below 1); at
    # large intensities extra dark counts create double clicks instead.
    grid = [0.0, 1e-5, 1e-3, 0.05, 0.1]
    darks = [0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2]
    for x in grid:
        for y in grid:
            rates = [heralded_rate(x, y, pd) for pd in darks]
            assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_heralded_rate_rejects_negative_intensity():
    with pytest.raises(ValueError):
        heralded_rate(-1e-9, 0.1, 1e-8)


def _phase_average_mc(x: float, y: float, p_d: float, samples: int, seed: int):
    """Monte-Carlo phase-averaging oracle: sample the relative phase, compute
    the per-detector Poisson click probabilities, average the exactly-one
    probability.  Returns (mean, standard error)."""
    rng = np.random.default_rng(seed)
    delta = rng.uniform(0.0, 2.0 * math.pi, samples)
    inter = math.sqrt(x * y) * np.cos(delta)
    mu_plus = 0.5 * (x + y) + inter
    mu_minus = 0.5 * (x + y) - inter
    silent_plus = (1.0 - p_d) * np.exp(-mu_plus)
    silent_minus = (1.0 - p_d) * np.exp(-mu_minus)
    q = silent_plus * (1.0 - silent_minus) + silent_minus * (1.0 - silent_plus)
    return float(q.mean()), float(q.std(ddof=1) / math.sqrt(samples))


@pytest.mark.parametrize(
    "x,y",
    [
        (0.0, 0.0), (0.0, 1e-2), (1e-4, 1e-4), (1e-4, 1e-2), (1e-2, 1e-2),
        (1e-2, 0.1), (0.1, 0.1), (0.1, 1.0), (1.0, 1.0), (0.02, 0.02),
    ],
)
def test_heralded_rate_against_phase_mc(x, y):
    mean, stderr = _phase_average_mc(x, y, 1e-8, samples=10**7, seed=20240817)
    got = heralded_rate(x, y, 1e-8)
    if stderr <= 1e-12 * mean:
        # Constant integrand (vacuum or one-sided arm): the sigma is pure
        # accumulation noise, so compare directly at the oracle's own
        # 1-(1-p) cancellation floor.
        assert got == pytest.approx(mean, rel=1e-7)
    else:
        assert abs(got - mean) < 3.0 * stderr


# ---------------------------------------------------------------------------
# Decoy windows


def _golden_setup():
    return table1_exp(300.0), SourceParams.symmetric(**GOLDEN_SRC)


def test_decoy_window_sizes_are_disjoint_subsets():
    exp, src = _golden_setup()
    windows, _ = simulate_decoy_observables(exp, src)
    assert sum(size for size, _, _ in windows.values()) < exp.N


def test_decoy_windows_symmetric():
    exp, src = _golden_setup()
    windows, _ = simulate_decoy_observables(exp, src)
    assert windows["ox"][0] == windows["xo"][0]
    assert windows["ox"][2] == windows["xo"][2]
    assert windows["oy"][0] == windows["yo"][0]


def test_decoy_window_sizes_match_inline_recomputation():
    exp, src = _golden_setup()
    windows, _ = simulate_decoy_observables(exp, src)
    pz = 0.92
    p0, p1, eps = 0.025, 0.927, 0.28
    n = 1e12
    want_oo = ((1 - pz) * ((1 - pz) * p0 * p0 + pz * p0 * (1 - eps))
               + pz * (1 - pz) * (1 - eps) * p0) * n
    want_ox = (1 - pz) * p1 * ((1 - pz) * p0 + pz * (1 - eps)) * n
    want_oy = (1 - pz) * (1 - p0 - p1) * ((1 - pz) * p0 + pz * (1 - eps)) * n
    assert windows["oo"][0] == pytest.approx(want_oo, rel=1e-12)
    assert windows["ox"][0] == pytest.approx(want_ox, rel=1e-12)
    assert windows["oy"][0] == pytest.approx(want_oy, rel=1e-12)


def test_decoy_rates_golden_values():
    # Frozen from a one-off recomputation of the closed-form expectations.
    exp, src = _golden_setup()
    windows, flags = simulate_decoy_observables(exp, src)
    assert flags == ()
    assert windows["oo"][1] == 53
    assert windows["ox"][1] == 680931
    assert windows["oy"][1] == 209755
    assert windows["ox"][2] == pytest.approx(1.3819863750343406e-05, rel=1e-12)
    assert windows["oy"][2] == pytest.approx(8.221507814067846e-05, rel=1e-12)


def test_decoy_window_degenerate_flag():
    exp, src = _golden_setup()
    tiny = table1_exp(300.0, N=1e2)
    _, flags = simulate_decoy_observables(tiny, src)
    assert any(f.startswith("degenerate-window") for f in flags)


# ---------------------------------------------------------------------------
# Matched-intensity window error rate


def test_x1_error_misalignment_half_kills_interference():
    # e_d = 1/2 erases the interference term, so the error click rate is half
    # the equal-split one-detector rate whatever the accepted phase.
    exp = table1_exp(300.0, e_d=0.5)
    src = SourceParams.symmetric(**GOLDEN_SRC)
    size, m, t_rate, _ = simulate_x1_error(exp, src)
    x = src.mu1 * transmittance(exp)[0]
    s = 2.0 * x
    pd = exp.p_d
    want = (1.0 - (1.0 - pd) * math.exp(-s / 2)) * (1.0 - pd) * math.exp(-s / 2)
    assert m == round(size * want)
    assert t_rate == pytest.approx(want, rel=5e-3)  # integer rounding only


def test_x1_error_perfect_interference_limit():
    # Aligned phases, no misalignment, no darks, equal arms: the wrong
    # detector sees exactly zero intensity.
    exp = table1_exp(300.0, e_d=0.0, p_d=0.0, slice_mode="ideal")
    src = SourceParams.symmetric(**GOLDEN_SRC)
    _, m, t_rate, _ = simulate_x1_error(exp, src)
    assert m == 0
    assert t_rate == 0.0


def test_x1_error_quadrature_against_dense_trapezoid():
    exp, src = _golden_setup()
    eta_a, eta_b = transmittance(exp)
    x, y = src.mu1 * eta_a, src.mu1_b * eta_b
    half, amp = 0.5 * (x + y), (1.0 - 2.0 * exp.e_d) * math.sqrt(x * y)
    b = math.pi / exp.M_slices
    delta = np.linspace(0.0, b, 200_001)
    mu_r = half + amp * np.cos(delta)
    mu_w = half - amp * np.cos(delta)
    q = (1.0 - (1.0 - exp.p_d) * np.exp(-mu_w)) * (1.0 - exp.p_d) * np.exp(-mu_r)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback
    dense = float(trapezoid(q, delta) / b)
    size, m, _, _ = simulate_x1_error(exp, src)
    assert m == round(size * dense)
    assert m == 633  # frozen
    assert size == pytest.approx(687463199.9999994, rel=1e-12)


def test_x1_window_size_scales_with_slice_count():
    exp, src = _golden_setup()
    size16, _, _, _ = simulate_x1_error(exp, src)
    size32, _, _, flags = simulate_x1_error(table1_exp(300.0, M_slices=32), src)
    assert size16 == pytest.approx(2.0 * size32, rel=1e-12)
    assert flags == ()
    _, _, _, flags1 = simulate_x1_error(table1_exp(300.0, M_slices=1), src)
    assert flags1 == ("all-phases-accepted",)


# ---------------------------------------------------------------------------
# Signal-window counts


def test_z_counts_golden_tuple():
    exp, src = _golden_setup()
    assert simulate_z_counts(exp, src) == (25800383, 25800383, 8775, 20064121, 71673662)


def test_z_counts_match_inline_recomputation():
    exp, src = _golden_setup()
    eta_a, eta_b = transmittance(exp)
    base = exp.N * src.p_z * src.p_z_b
    want_c0 = round(base * (1 - src.eps) * src.eps_b
                    * heralded_rate(0.0, src.mu_z_b * eta_b, exp.p_d))
    want_d = round(base * src.eps * src.eps_b
                   * heralded_rate(src.mu_z * eta_a, src.mu_z_b * eta_b, exp.p_d))
    n_c0, n_c1, n_v, n_d, n_t = simulate_z_counts(exp, src)
    assert n_c0 == want_c0
    assert n_d == want_d
    assert n_t == n_c0 + n_c1 + n_v + n_d


def test_z_counts_vanish_without_light_or_darks():
    # Dark-free detectors and a channel lossy enough that no light arrives.
    exp = table1_exp(4000.0, p_d=0.0)
    src = SourceParams.symmetric(**GOLDEN_SRC)
    assert simulate_z_counts(exp, src) == (0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# Active pairing counts


def test_aopp_error_free_and_error_only_limits():
    n_g, n_tp, n_odd, e = simulate_aopp_counts(1000, 1200, 0, 0)
    assert e == 0.0
    n_g, n_tp, n_odd, e = simulate_aopp_counts(0, 0, 700, 900)
    assert e == 1.0


def test_aopp_reference_tuple():
    n_g, n_tp, n_odd, e = simulate_aopp_counts(1000, 1000, 10, 10)
    assert n_g == 505.0
    assert e == pytest.approx(100.0 / (1e6 + 100.0), rel=1e-12)
    assert n_odd == pytest.approx(1010.0 * 1010.0 / 2020.0, rel=1e-12)


def test_aopp_rejects_empty_pool():
    with pytest.raises(ValueError):
        simulate_aopp_counts(0, 5, 3, 0)


def test_aopp_error_suppression_inequality():
    # Small-tag-fraction regime: with v, d <= min(c0, c1)/2 one has
    # v*(c0+c1) <= c0*c1, which implies E' <= max(v, d)/(c0+c1).
    rng = np.random.default_rng(7)
    for _ in range(200):
        c0, c1 = (int(x) for x in rng.integers(10, 10_000, size=2))
        cap = min(c0, c1) // 2
        v, d = (int(x) for x in rng.integers(0, cap + 1, size=2))
        _, _, _, e = simulate_aopp_counts(c0, c1, v, d)
        assert e <= max(v, d) / (c0 + c1) + 1e-12


def test_aopp_against_random_pairing_simulation():
    # Draw the four event categories multinomially, actively pair Bob's
    # 0-bits with his 1-bits, and count odd-parity survivors and their
    # errors; the closed forms must agree within 3 binomial sigma.
    rng = np.random.default_rng(123)
    n_t = 100_000
    probs = np.array([0.36, 0.36, 0.004, 0.276])  # c0, c1, v, d
    c0, c1, v, d = (int(x) for x in rng.multinomial(n_t, probs))
    n_g, n_tp, n_odd, e_pred = simulate_aopp_counts(c0, c1, v, d)

    zeros = np.array([0] * c0 + [1] * d)  # Alice's bit per Bob-0 event
    ones = np.array([1] * c1 + [0] * v)  # Alice's bit per Bob-1 event
    rng.shuffle(zeros)
    rng.shuffle(ones)
    pairs = min(len(zeros), len(ones))
    a0, a1 = zeros[:pairs], ones[:pairs]
    kept = a0 != a1  # odd parity on Alice's side survives
    kept_count = int(kept.sum())
    # Errors among survivors: both component bits wrong, i.e. the (d, v) kind.
    err_count = int(((a0 == 1) & (a1 == 0)).sum())

    expect_kept = 2.0 * n_tp  # closed form counts one of the two halves
    sigma_kept = math.sqrt(pairs * (expect_kept / pairs) * (1 - expect_kept / pairs))
    assert abs(kept_count - expect_kept) < 3.0 * sigma_kept

    sigma_err = math.sqrt(kept_count * e_pred * (1 - e_pred))
    assert abs(err_count - e_pred * kept_count) < 3.0 * sigma_err

    # Random (not active) grouping reproduces n_odd within 3 sigma.
    bits = np.array([0] * (c0 + d) + [1] * (c1 + v))
    rng.shuffle(bits)
    half = len(bits) // 2
    odd = int((bits[:half] != bits[half : 2 * half]).sum())
    sigma_odd = math.sqrt(half * 0.5)
    assert abs(odd - n_odd) < 3.0 * sigma_odd


# ---------------------------------------------------------------------------
# Assembled record


def test_simulate_invariants(golden_exp, golden_src, golden_obs):
    obs = golden_obs
    for w in ("oo", "ox", "xo", "oy", "yo"):
        n, size = getattr(obs, f"n_{w}"), getattr(obs, f"N_{w}")
        assert 0 <= n <= size
        assert getattr(obs, f"S_{w}") == pytest.approx(n / size, rel=1e-12)
    assert obs.n_t == obs.n_c0 + obs.n_c1 + obs.n_v + obs.n_d
    assert obs.n_t_prime <= obs.n_g <= min(obs.n_c0 + obs.n_d, obs.n_c1 + obs.n_v)
    assert obs.m_X1 <= obs.N_X1


def test_simulate_sampled_mode_deterministic_and_unbiased(golden_exp, golden_src, golden_obs):
    a = simulate(golden_exp, golden_src, seed=42)
    b = simulate(golden_exp, golden_src, seed=42)
    assert a == b
    c = simulate(golden_exp, golden_src, seed=43)
    assert c != a
    # Sampled counts stay within 5 sigma of the deterministic expectations.
    for w in ("ox", "oy"):
        expect = getattr(golden_obs, f"n_{w}")
        got = getattr(a, f"n_{w}")
        assert abs(got - expect) < 5.0 * math.sqrt(expect)


def test_simulate_degenerate_aopp_flag():
    exp = table1_exp(4000.0, p_d=0.0)
    src = SourceParams.symmetric(**GOLDEN_SRC)
    obs = simulate(exp, src)
    assert "aopp-degenerate" in obs.flags
    assert obs.n_g == 0.0
