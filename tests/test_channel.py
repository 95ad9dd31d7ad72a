import dataclasses
import math

import numpy as np
import pytest

from snskit import channel
from snskit.channel import (
    ObservedStats,
    SourceParams,
    _slice_mean_excess_terms,
    _x1_error_probability,
    heralded_rate,
    simulate,
    simulate_aopp_counts,
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


def test_experimental_params_reject_arms_whose_total_overflows():
    with pytest.raises(ValueError, match="arm lengths"):
        table1_exp(300.0, L_A=1e308, L_B=1e308)


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


def test_source_params_intensity_limit_is_1():
    # The optimizer's box ends at intensity 1, and so does every source.
    at_limit = SourceParams.symmetric(**{**GOLDEN_SRC, "mu1": 0.99, "mu2": 1.0, "mu_z": 1.0})
    assert at_limit.mu2 == at_limit.mu_z_b == 1.0
    above = math.nextafter(1.0, math.inf)
    for name, value in [("mu2", above), ("mu_z", above), ("mu2_b", above), ("mu_z_b", above),
                        ("mu_z", 2.0), ("mu2", 690.0)]:
        fields = dict(GOLDEN_SRC)
        fields.update({f"{k}_b": v for k, v in GOLDEN_SRC.items()})
        fields[name] = value
        with pytest.raises(ValueError, match=r"intensities .*1\b"):
            SourceParams(**fields)


@pytest.mark.parametrize("value", [16.5, 16.0, True, "16"])
def test_experimental_params_reject_non_integer_slices(value):
    # A float count of 16.5 would accept a phase fraction of 2/16.5.
    with pytest.raises(ValueError, match="^M_slices must be an integer"):
        table1_exp(300.0, M_slices=value)


def test_experimental_params_accept_numpy_integer_slices():
    assert table1_exp(300.0, M_slices=np.int64(32)).M_slices == 32


# ---------------------------------------------------------------------------
# Transmittance


def test_transmittance_zero_distance():
    exp = table1_exp(0.0)
    assert transmittance(exp) == (0.3, 0.3)


def test_transmittance_reference_value():
    exp = table1_exp(250.0)
    eta_a, eta_b = transmittance(exp)
    assert eta_a == pytest.approx(9.4868e-4, rel=1e-4, abs=0.0)
    assert eta_a == eta_b


def test_transmittance_asymmetric_arms():
    exp = table1_exp(300.0, L_A=200.0, L_B=100.0)
    assert (exp.L_A, exp.L_B) == (200.0, 100.0)
    eta_a, eta_b = transmittance(exp)
    assert eta_a == pytest.approx(0.3 * 10 ** (-4.0), rel=1e-12, abs=0.0)
    assert eta_b == pytest.approx(0.3 * 10 ** (-2.0), rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# Heralded one-detector rate


def test_heralded_rate_dark_counts_only():
    for p_d in (0.0, 1e-8, 0.01, 0.3):
        assert heralded_rate(0.0, 0.0, p_d) == pytest.approx(
            2.0 * p_d * (1.0 - p_d), rel=1e-12, abs=0.0
        )


def test_heralded_rate_one_sided_closed_form():
    # With one vacuum arm there is no interference: the textbook expression
    # 2(1-pd)e^(-y/2) - 2(1-pd)^2 e^(-y) must match.  It cancels in floating
    # point (to 1.7e-10 relative at y = 1e-6, p_d = 1e-8), so it is evaluated
    # at 40 digits from the float inputs taken exactly.
    mp = pytest.importorskip("mpmath")
    for y in (1e-6, 1e-3, 0.08, 0.9):
        for p_d in (0.0, 1e-8, 1e-3):
            with mp.workdps(40):
                my, mp_d = mp.mpf(y), mp.mpf(p_d)
                want = float(
                    2 * (1 - mp_d) * mp.exp(-my / 2) - 2 * (1 - mp_d) ** 2 * mp.exp(-my)
                )
            assert heralded_rate(0.0, y, p_d) == pytest.approx(want, rel=1e-13, abs=0.0)


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


@pytest.mark.parametrize(
    "x,y", [(math.nextafter(1.0, 2.0), 0.1), (0.1, 2.0), (600.0, 600.0), (_NAN, 0.1), (0.1, _NAN)]
)
def test_heralded_rate_rejects_intensity_above_1_or_nan(x, y):
    # No source of at most 1 behind a transmittance of at most 1 delivers more.
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        heralded_rate(x, y, 1e-8)


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
        assert got == pytest.approx(mean, rel=1e-7, abs=0.0)
    else:
        assert abs(got - mean) < 3.0 * stderr


@pytest.mark.parametrize(
    "x,y",
    [
        (1e-9, 1e-9), (1e-4, 1e-2), (0.02, 0.02),  # sqrt(x*y) < 0.1
        (0.1, 0.1), (0.05, 0.2), (0.02, 0.5), (0.3, 0.3), (0.25, 1.0), (0.5, 0.5),
        (0.6, 0.9), (1.0, 1.0),
    ],
)
def test_heralded_rate_against_mpmath_oracle(x, y):
    # The I0 series runs to sqrt(x*y) = 1, the largest arriving intensity.
    mp = pytest.importorskip("mpmath")
    for p_d in (0.0, 1e-8, 1e-3):
        with mp.workdps(40):
            s, z, keep = mp.mpf(x) + mp.mpf(y), mp.sqrt(mp.mpf(x) * mp.mpf(y)), 1 - mp.mpf(p_d)
            want = float(2 * keep * mp.exp(-s / 2) * mp.besseli(0, z) - 2 * keep**2 * mp.exp(-s))
        assert heralded_rate(x, y, p_d) == pytest.approx(want, rel=1e-13, abs=0.0), p_d


# ---------------------------------------------------------------------------
# Decoy windows


_WINDOWS = ("oo", "ox", "xo", "oy", "yo")


def _golden_setup():
    return table1_exp(300.0), SourceParams.symmetric(**GOLDEN_SRC)


def test_decoy_counts_are_keyed_by_observed_stats_names():
    # simulate fills the record positionally.  Unequal arms and an
    # asymmetric source give every decoy window its own size and count, so a
    # value put into the wrong field shows.
    exp = table1_exp(300.0, L_A=170.0, L_B=130.0)
    src = SourceParams(0.9, 0.3, 0.05, 0.8, 0.04, 0.3, 0.5,
                       0.85, 0.2, 0.1, 0.7, 0.06, 0.25, 0.4)
    obs = simulate(exp, src)
    assert {f"{kind}_{w}" for kind in ("N", "n") for w in _WINDOWS} <= {
        f.name for f in dataclasses.fields(ObservedStats)
    }
    eta_a, eta_b = transmittance(exp)
    vac_a = (1 - src.p_z) * src.p0 + src.p_z * (1 - src.eps)
    vac_b = (1 - src.p_z_b) * src.p0_b + src.p_z_b * (1 - src.eps_b)
    mu_a = {"x": src.mu1 * eta_a, "y": src.mu2 * eta_a}
    mu_b = {"x": src.mu1_b * eta_b, "y": src.mu2_b * eta_b}
    want_sizes = {
        "ox": (1 - src.p_z_b) * src.p1_b * vac_a * exp.N,
        "xo": (1 - src.p_z) * src.p1 * vac_b * exp.N,
        "oy": (1 - src.p_z_b) * (1 - src.p0_b - src.p1_b) * vac_a * exp.N,
        "yo": (1 - src.p_z) * (1 - src.p0 - src.p1) * vac_b * exp.N,
    }
    for w, size in want_sizes.items():
        x, y = mu_a.get(w[0], 0.0), mu_b.get(w[1], 0.0)
        assert getattr(obs, f"N_{w}") == pytest.approx(size, rel=1e-12), w
        assert getattr(obs, f"n_{w}") == round(size * heralded_rate(x, y, exp.p_d)), w
    assert len({getattr(obs, f"n_{w}") for w in _WINDOWS}) == len(_WINDOWS)


def test_decoy_window_sizes_are_disjoint_subsets():
    exp, src = _golden_setup()
    obs = simulate(exp, src)
    assert sum(getattr(obs, f"N_{w}") for w in _WINDOWS) < exp.N


def test_decoy_windows_symmetric():
    exp, src = _golden_setup()
    obs = simulate(exp, src)
    assert obs.N_ox == obs.N_xo
    assert obs.n_ox == obs.n_xo
    assert obs.N_oy == obs.N_yo


def test_decoy_window_sizes_match_inline_recomputation():
    exp, src = _golden_setup()
    obs = simulate(exp, src)
    pz = 0.92
    p0, p1, eps = 0.025, 0.927, 0.28
    n = 1e12
    want_oo = ((1 - pz) * ((1 - pz) * p0 * p0 + pz * p0 * (1 - eps))
               + pz * (1 - pz) * (1 - eps) * p0) * n
    want_ox = (1 - pz) * p1 * ((1 - pz) * p0 + pz * (1 - eps)) * n
    want_oy = (1 - pz) * (1 - p0 - p1) * ((1 - pz) * p0 + pz * (1 - eps)) * n
    assert obs.N_oo == pytest.approx(want_oo, rel=1e-12)
    assert obs.N_ox == pytest.approx(want_ox, rel=1e-12)
    assert obs.N_oy == pytest.approx(want_oy, rel=1e-12)


def test_decoy_rates_golden_values():
    # Frozen from a one-off recomputation of the closed-form expectations.
    exp, src = _golden_setup()
    obs = simulate(exp, src)
    assert obs.flags == ()
    assert obs.n_oo == 53
    assert obs.n_ox == 680931
    assert obs.n_oy == 209755
    assert obs.n_ox / obs.N_ox == pytest.approx(
        1.3819863750343406e-05, rel=1e-12, abs=0.0
    )
    assert obs.n_oy / obs.N_oy == pytest.approx(
        8.221507814067846e-05, rel=1e-12, abs=0.0
    )


def test_decoy_window_degenerate_flag():
    exp, src = _golden_setup()
    tiny = table1_exp(300.0, N=1e2)
    assert any(f.startswith("degenerate-window") for f in simulate(tiny, src).flags)


# ---------------------------------------------------------------------------
# Matched-intensity window error rate


def test_x1_error_misalignment_half_kills_interference():
    # e_d = 1/2 erases the interference term, so the error click rate is half
    # the equal-split one-detector rate whatever the accepted phase.
    exp = table1_exp(300.0, e_d=0.5)
    src = SourceParams.symmetric(**GOLDEN_SRC)
    obs = simulate(exp, src)
    size, m = obs.N_X1, obs.m_X1
    x = src.mu1 * transmittance(exp)[0]
    s = 2.0 * x
    pd = exp.p_d
    want = (1.0 - (1.0 - pd) * math.exp(-s / 2)) * (1.0 - pd) * math.exp(-s / 2)
    assert m == round(size * want)
    assert m / size == pytest.approx(want, rel=5e-3, abs=0.0)  # integer rounding only


def test_x1_error_perfect_interference_limit():
    # No misalignment, no darks, equal arms: the wrong detector sees light
    # only through the phase spread of the accepted slice, so the error
    # count vanishes as the slices shrink (the window probability falls as
    # (pi/M)^2, the window size as 1/M).
    src = SourceParams.symmetric(**GOLDEN_SRC)
    counts = [
        simulate(table1_exp(300.0, e_d=0.0, p_d=0.0, M_slices=m_slices), src).m_X1
        for m_slices in (16, 32, 64, 128)
    ]
    assert counts == [61, 8, 1, 0]


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
    obs = simulate(exp, src)
    size, m = obs.N_X1, obs.m_X1
    assert m == round(size * dense)
    assert m == 633  # frozen
    assert size == pytest.approx(687463199.9999994, rel=1e-12)


def test_x1_window_size_scales_with_slice_count():
    exp, src = _golden_setup()
    size16 = simulate(exp, src).N_X1
    obs32 = simulate(table1_exp(300.0, M_slices=32), src)
    assert size16 == pytest.approx(2.0 * obs32.N_X1, rel=1e-12)
    assert obs32.flags == ()
    assert simulate(table1_exp(300.0, M_slices=1), src).flags == ("all-phases-accepted",)


def _slice_average_oracle(x, y, exp):
    """Slice average of the wrong-click probability by mpmath quadrature at 40
    digits, from the float inputs taken exactly."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        x, y, e_d, p_d = (mp.mpf(v) for v in (x, y, exp.e_d, exp.p_d))
        half = (x + y) / 2
        amp = (1 - 2 * e_d) * mp.sqrt(x * y)
        b = mp.pi / exp.M_slices
        silent = (1 - p_d) * mp.exp(-half)
        avg = mp.quad(lambda d: silent * (mp.exp(-amp * mp.cos(d)) - silent), [0, b]) / b
        return float(avg)


def _gauss_legendre_64(x, y, exp):
    """The 64-node rule over the direct integrand (the rule the series replaced)."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    b = math.pi / exp.M_slices
    half, amp = 0.5 * (x + y), (1.0 - 2.0 * exp.e_d) * math.sqrt(x * y)
    cos_d = np.cos(0.5 * b * (nodes + 1.0))
    q = (1.0 - (1.0 - exp.p_d) * np.exp(-(half - amp * cos_d))) * (1.0 - exp.p_d) * np.exp(
        -(half + amp * cos_d)
    )
    return 0.5 * math.fsum((weights * q).tolist())


_SERIES_AMPS = [1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0]


@pytest.mark.parametrize("m_slices", [1, 2, 16, 64])
def test_x1_slice_series_against_mpmath_oracle(m_slices):
    # Equal arms with e_d = 0 put half - amp at 0, the case where a series
    # around 1 instead of e^(-amp) cancels to three digits.
    cases = []
    for a in _SERIES_AMPS:
        cases += [
            (a, a, 0.0, 0.0),  # amp = a, half - amp = 0
            (a, a, 0.03, 1e-8),  # amp = 0.94 a
            (a, 0.25 * a, 0.0, 1e-8),  # unequal arms, amp = a/2
            (a, a, 0.8, 1e-8),  # e_d > 1/2: amp = -0.6 a
            (a, a, 1.0, 0.0),  # amp = -a
            (a, a, 0.5, 1e-8),  # amp = 0: one zero term
        ]
    for x, y, e_d, p_d in cases:
        exp = table1_exp(300.0, e_d=e_d, p_d=p_d, M_slices=m_slices)
        want = _slice_average_oracle(x, y, exp)
        assert _x1_error_probability(x, y, exp) == pytest.approx(want, rel=1e-13, abs=0.0), (
            x, y, e_d, p_d,
        )


@pytest.mark.parametrize("m_slices", [1, 2, 16, 64])
def test_x1_slice_series_term_count(m_slices):
    for a in _SERIES_AMPS:
        for amp in (a, -a):
            assert len(list(_slice_mean_excess_terms(amp, m_slices))) <= 25


def test_x1_slice_series_is_summed_left_to_right(monkeypatch):
    # A compensated sum (builtin sum() from Python 3.12) would keep the two
    # 1e-16 terms that plain left-to-right addition rounds away.
    exp = table1_exp(300.0)
    x = y = 1e-3

    def with_terms(terms):
        monkeypatch.setattr(channel, "_slice_mean_excess_terms", lambda amp, m: iter(terms))
        return _x1_error_probability(x, y, exp)

    assert with_terms([1.0, 1e-16, 1e-16]) == with_terms([1.0])
    assert with_terms([1.0, 2e-16]) != with_terms([1.0])


def test_approx_evaluate_at_full_intensity_loads_no_scipy():
    # At 0 km intensities near 1 arrive with sqrt(x*y) up to 0.3; the I0
    # series covers that, and every amplitude stays within the slice series.
    # Nor numpy, which no module of the package imports: not an evaluation,
    # not `snskit plob`, not a `snskit rate` with a fixed source.
    import subprocess
    import sys
    from pathlib import Path

    config = Path(__file__).resolve().parents[1] / "configs" / "table1_symmetric.cfg"
    code = (
        "import sys\n"
        "from snskit import SourceParams, cli, evaluate\n"
        "from snskit.tables import TABLE2_EXP\n"
        "src = SourceParams.symmetric(p_z=0.7, eps=0.25, p0=0.6, p1=0.3,"
        " mu1=0.5, mu2=0.9, mu_z=1.0)\n"
        "for method in ('A', 'B'):\n"
        "    evaluate(TABLE2_EXP.at_distance(0.0), src, method=method)\n"
        "assert cli.main(['plob', '250']) == 0\n"
        f"assert cli.main(['rate', '--config', {str(config)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy'))))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[]"  # after the two commands' output


@pytest.mark.parametrize("L_total", [0.0, 100.0, 250.0, 300.0, 440.0, 600.0])
@pytest.mark.parametrize("m_slices", [1, 2, 16, 32])
@pytest.mark.parametrize("exp_overrides", [{}, {"e_d": 0.07, "p_d": 3.36e-8, "eta_d": 0.2}])
def test_x1_error_count_matches_gauss_legendre(L_total, m_slices, exp_overrides):
    # The series moves the rate by no more than the old rule's own error (up
    # to 1e-7 relative); the rounded count of every golden set-up stays put.
    exp = table1_exp(L_total, M_slices=m_slices, **exp_overrides)
    src = SourceParams.symmetric(**GOLDEN_SRC)
    eta_a, eta_b = transmittance(exp)
    obs = simulate(exp, src)
    size, m = obs.N_X1, obs.m_X1
    want = _gauss_legendre_64(src.mu1 * eta_a, src.mu1_b * eta_b, exp)
    assert m == min(int(round(size * want)), int(size))


# ---------------------------------------------------------------------------
# Signal-window counts


def _z_counts(obs):
    return obs.n_c0, obs.n_c1, obs.n_v, obs.n_d


def test_z_counts_golden_tuple():
    exp, src = _golden_setup()
    obs = simulate(exp, src)
    assert _z_counts(obs) == (25800383, 25800383, 8775, 20064121)
    assert obs.n_t == 71673662


def test_z_counts_match_inline_recomputation():
    exp, src = _golden_setup()
    eta_a, eta_b = transmittance(exp)
    base = exp.N * src.p_z * src.p_z_b
    want_c0 = round(base * (1 - src.eps) * src.eps_b
                    * heralded_rate(0.0, src.mu_z_b * eta_b, exp.p_d))
    want_d = round(base * src.eps * src.eps_b
                   * heralded_rate(src.mu_z * eta_a, src.mu_z_b * eta_b, exp.p_d))
    obs = simulate(exp, src)
    assert obs.n_c0 == want_c0
    assert obs.n_d == want_d


def test_z_counts_vanish_without_light_or_darks():
    # Dark-free detectors and a channel lossy enough that no light arrives.
    exp = table1_exp(4000.0, p_d=0.0)
    src = SourceParams.symmetric(**GOLDEN_SRC)
    assert _z_counts(simulate(exp, src)) == (0, 0, 0, 0)


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
    assert e == pytest.approx(100.0 / (1e6 + 100.0), rel=1e-12, abs=0.0)
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
    assert obs.n_t == obs.n_c0 + obs.n_c1 + obs.n_v + obs.n_d
    assert dataclasses.replace(obs, n_v=obs.n_v + 5).n_t == obs.n_t + 5
    assert obs.n_t_prime <= obs.n_g <= min(obs.n_c0 + obs.n_d, obs.n_c1 + obs.n_v)
    assert obs.m_X1 <= obs.N_X1


def test_simulate_degenerate_aopp_flag():
    exp = table1_exp(4000.0, p_d=0.0)
    src = SourceParams.symmetric(**GOLDEN_SRC)
    obs = simulate(exp, src)
    assert "aopp-degenerate" in obs.flags
    assert obs.n_g == 0.0
