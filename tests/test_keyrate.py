import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from snskit import keyrate
from snskit.budget import SecurityBudget
from snskit.channel import ExperimentalParams, SourceParams, constraint_ratio
from snskit.config import parse_config
from snskit.keyrate import evaluate, key_rate, plob_bounds
from snskit.tables import TABLE2_EXP
from tests.conftest import GOLDEN_SRC, table1_exp


# ---------------------------------------------------------------------------
# Budget composition


def test_budget_default_totals():
    b = SecurityBudget()
    assert b.eps_e == pytest.approx(3e-13, rel=1e-12)
    assert b.eps_s == pytest.approx(1.502e-10, rel=1e-12)
    # Exact arithmetic composition of the advertised totals.
    want_sec = 2 * 1e-10 + 4 * b.eps_s + 1e-10 + 6e-10 + 2e-10
    assert b.eps_sec == want_sec
    assert b.eps_tol == 1e-10 + want_sec
    assert b.eps_tol == pytest.approx(1.8e-9, rel=5e-3)


def test_budget_zeroed_components():
    # A zero failure probability costs infinitely many bits, so no key meets it.
    for f in fields(SecurityBudget):
        with pytest.raises(ValueError, match=f"{f.name} must lie in"):
            SecurityBudget(**{f.name: 0.0})
    tiny = SecurityBudget(**{f.name: 1e-300 for f in fields(SecurityBudget) if f.name != "xi_tau"})
    assert 0.0 < tiny.eps_tol < 1e-290


def test_budget_xi_override_propagates_to_multi_use_totals():
    # Every way of setting xi_default carries it into the 6- and 2-use totals.
    table1 = Path(__file__).resolve().parents[1] / "configs" / "table1_symmetric.cfg"
    from_config = parse_config(str(table1), overrides=["budget.xi_default = 1e-8"]).problem.security
    for b in (SecurityBudget(xi_default=1e-8), replace(SecurityBudget(), xi_default=1e-8),
              from_config):
        assert b.eps_n1_prime == 6 * b.xi_default and b.eps_nk == 2 * b.xi_default
        assert b.eps_tol >= 8e-8
    # The Table III budgets keep the totals they had.
    assert SecurityBudget(xi_default=1.69e-10).eps_tol == 2.3528e-09
    assert SecurityBudget(xi_default=1.71e-10).eps_tol == 2.3688e-09


def test_budget_validation():
    with pytest.raises(ValueError):
        SecurityBudget(xi_default=0.0)
    with pytest.raises(ValueError):
        SecurityBudget(eps_cor=1.0)
    with pytest.raises(TypeError):
        SecurityBudget(not_a_field=0.5)
    # Below the smallest normal float, 2/xi overflows to inf.
    with pytest.raises(ValueError, match="xi_e1 = 5e-324 is below the smallest normal"):
        SecurityBudget(xi_e1=5e-324)
    with pytest.raises(ValueError, match="eps_cor = 1e-310 is below the smallest normal"):
        SecurityBudget(eps_cor=1e-310)


# ---------------------------------------------------------------------------
# Key-rate formula


def _exp300():
    return table1_exp(300.0)


def test_key_rate_zero_without_survivors():
    assert key_rate(0, 0.01, 1e6, 1e-4, _exp300(), SecurityBudget()) == 0.0


def test_key_rate_zero_at_half_phase_error():
    assert key_rate(1e6, 0.5, 1e6, 1e-4, _exp300(), SecurityBudget()) == 0.0
    # Beyond one half no privacy can survive either.
    assert key_rate(1e6, 0.9, 1e6, 1e-4, _exp300(), SecurityBudget()) == 0.0


def test_key_rate_matches_inline_formula():
    exp, budget = _exp300(), SecurityBudget()
    n1p, e1p, ntp, ep = 2513850, 0.09756032648757614, 7258726.984254141, 2.6442353355514897e-4
    h = lambda x: -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    want = (2.0 / exp.N) * (
        n1p * (1 - h(e1p))
        - exp.f * ntp * h(ep)
        - math.log2(2.0 / budget.eps_cor)
        - 2.0 * math.log2(1.0 / (math.sqrt(2.0) * budget.eps_PA * budget.eps_hat))
    )
    got = key_rate(n1p, e1p, ntp, ep, exp, budget)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(2.6522458305172523e-06, rel=1e-12)  # frozen


def test_key_rate_never_negative():
    assert key_rate(10, 0.4, 1e9, 0.3, _exp300(), SecurityBudget()) == 0.0


def test_key_rate_charges_no_correction_without_errors_at_overflowing_sizes():
    # f * n_t_prime overflows to inf, and inf * h(0) would make the rate NaN.
    exp = table1_exp(300.0, N=1e300, f=1e300)
    assert key_rate(1e299, 0.1, 1e299, 0.0, exp, SecurityBudget()) == pytest.approx(
        2.0 * 1e299 * (1.0 - 0.4689955935892812) / 1e300, rel=1e-12)


def test_key_rate_charges_an_underflowing_privacy_amplification_cost():
    # sqrt(2) * 1e-200 * 1e-200 underflows to 0; the cost is still 2 * 1329.3 bits.
    args = (2513850, 0.09756032648757614, 7258726.984254141, 2.6442353355514897e-4, _exp300())
    tiny = key_rate(*args, SecurityBudget(eps_PA=1e-200, eps_hat=1e-200))
    base = key_rate(*args, SecurityBudget())
    cost_bits = 2.0 * (0.5 + 400.0 * math.log2(10.0)) - 2.0 * (0.5 + 20.0 * math.log2(10.0))
    assert tiny == pytest.approx(base - 2.0 * cost_bits / _exp300().N, rel=1e-9)


# ---------------------------------------------------------------------------
# Repeater-less bounds


@pytest.mark.parametrize(
    "L,plob1_ref,plob2_ref",
    [
        (250.0, 1.44e-5, 4.33e-6),
        (390.0, 2.29e-8, 6.86e-9),
        (420.0, 5.74e-9, 1.72e-9),
        (440.0, 2.29e-9, 6.86e-10),
    ],
)
def test_plob_reference_table(L, plob1_ref, plob2_ref):
    plob1, plob2 = plob_bounds(L, 0.2, 0.3)
    assert plob1 == pytest.approx(plob1_ref, rel=5e-3)  # 3 significant figures
    assert plob2 == pytest.approx(plob2_ref, rel=5e-3)


def test_plob_ordering_and_zero_distance():
    plob1, plob2 = plob_bounds(120.0, 0.2, 0.3)
    assert plob1 > plob2 > 0.0
    assert plob_bounds(0.0, 0.2, 1.0)[0] == float("inf")


# ---------------------------------------------------------------------------
# Source constraint


def test_constraint_residual_symmetric_is_zero(golden_src):
    assert golden_src.constraint_residual() == 0.0


def test_constraint_residual_double_intensity():
    src = replace(SourceParams.symmetric(**GOLDEN_SRC), mu1=0.092, mu2=0.3)
    # mu_z, eps symmetric, mu1 = 2*mu1_b: the ratio term is 1, so residual = 1.
    assert src.constraint_residual() == pytest.approx(1.0, rel=1e-12)


def test_constraint_ratio_closed_form():
    got = constraint_ratio(0.28, 0.35, 0.504, 0.45)
    want = (0.28 * 0.65 * 0.504 * math.exp(-0.504)) / (0.35 * 0.72 * 0.45 * math.exp(-0.45))
    assert got == want
    assert constraint_ratio(0.28, 0.28, 0.504, 0.504) == 1.0


def test_constraint_bisection_oracle_matches_closed_form():
    # Solving residual = 0 for the second party's weak intensity by bisection
    # must land on mu1/ratio.
    base = SourceParams.symmetric(**GOLDEN_SRC)
    target = replace(base, eps_b=0.35, mu_z_b=0.45)

    def residual_at(mu1_b):
        return replace(target, mu1_b=mu1_b, mu2_b=1.0).constraint_residual()

    lo, hi = 1e-6, 0.9
    assert residual_at(lo) > 0 > residual_at(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual_at(mid) > 0:
            lo = mid
        else:
            hi = mid
    ratio = (target.eps * (1 - target.eps_b) * target.mu_z * math.exp(-target.mu_z)) / (
        target.eps_b * (1 - target.eps) * target.mu_z_b * math.exp(-target.mu_z_b)
    )
    assert 0.5 * (lo + hi) == pytest.approx(target.mu1 / ratio, rel=1e-9)


# ---------------------------------------------------------------------------
# Full evaluation


def test_evaluate_golden_rates(golden_exp, golden_src):
    rep_a = evaluate(golden_exp, golden_src, method="A")
    rep_b = evaluate(golden_exp, golden_src, method="B")
    assert rep_a.R == pytest.approx(2.6522458305172523e-06, rel=1e-12)  # frozen
    assert rep_b.R == pytest.approx(2.84910917774712e-06, rel=1e-12)  # frozen
    assert rep_b.R >= rep_a.R
    assert rep_a.secure and rep_a.flags == ()
    assert rep_a.ratio1 == pytest.approx(rep_a.R / rep_a.plob1, rel=1e-12)


def test_report_bounds_and_ratios_follow_a_replaced_rate(golden_exp, golden_src):
    rep = evaluate(golden_exp, golden_src, method="A")
    zero = replace(rep, R=0.0)
    assert not zero.secure and zero.ratio1 == 0.0 and zero.ratio2 == 0.0
    double = replace(rep, R=2.0 * rep.R)
    assert double.secure
    assert double.ratio1 == 2.0 * rep.R / rep.plob1
    assert double.ratio2 == 2.0 * rep.R / rep.plob2
    moved = replace(rep, exp=golden_exp.at_distance(400.0))
    assert (moved.plob1, moved.plob2) == plob_bounds(400.0, 0.2, 0.3)


def test_evaluate_does_not_compute_the_repeaterless_bounds(golden_exp, golden_src, monkeypatch):
    # The optimizer reads only R; the bounds are derived when a report is read.
    def refuse(*args):
        raise AssertionError("plob_bounds called")

    monkeypatch.setattr(keyrate, "plob_bounds", refuse)
    assert evaluate(golden_exp, golden_src, method="A").R == pytest.approx(
        2.6522458305172523e-06, rel=1e-12
    )


def test_exact_evaluate_and_rate_load_no_scipy(monkeypatch):
    # The exact tails need scipy only past the continued fraction's step
    # cap, which the default tail levels never reach: not at the benchmark's
    # 300 km probes over the restart box, for either method, and not in
    # `snskit rate --mode exact`.
    import importlib.util
    import subprocess
    from dataclasses import astuple

    root = Path(__file__).resolve().parents[1]
    bench = root / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", bench)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    sources = [astuple(src) for src in workloads.restart_box_sources(1, 16)]
    config = root / "configs" / "table1_symmetric.cfg"
    code = (
        "import sys\n"
        "from snskit import SourceParams, cli, evaluate\n"
        "from snskit.tables import TABLE2_EXP\n"
        "exp = TABLE2_EXP.at_distance(300.0)\n"
        f"for fields in {sources!r}:\n"
        "    for method in ('A', 'B'):\n"
        "        evaluate(exp, SourceParams(*fields), method=method, mode='exact')\n"
        f"assert cli.main(['rate', '--config', {str(config)!r}, '--mode', 'exact']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[]"  # after the command's output


def test_evaluate_exact_mode_not_worse(golden_exp, golden_src):
    rep = evaluate(golden_exp, golden_src, method="A", mode="exact")
    assert rep.R >= 2.6522458305172523e-06 * (1.0 - 1e-9)


def test_evaluate_dead_channel_gives_zero():
    src = SourceParams.symmetric(**GOLDEN_SRC)
    rep = evaluate(table1_exp(4000.0, p_d=0.0), src)
    assert rep.R == 0.0
    assert not rep.secure
    assert rep.flags  # degeneracy recorded


def test_evaluate_vacuous_bound_forces_zero():
    # Strong misalignment at long distance drives the phase-error bound past
    # one half; the rate must clamp to zero with the flag preserved.
    src = SourceParams.symmetric(**GOLDEN_SRC)
    rep = evaluate(table1_exp(480.0, e_d=0.45), src)
    assert rep.R == 0.0
    assert any("vacuous" in f for f in rep.flags)


def test_vacuous_flag_set_covers_chain_failures_only():
    from snskit.keyrate import VACUOUS_FLAGS

    # Every flag the pipeline can emit for an invalid chain zeroes the rate;
    # informational flags (warnings, benign floors) must not.
    for fatal in ("vacuous-decoy-bound", "zero-key", "zigzag-vacuous", "aopp-degenerate"):
        assert fatal in VACUOUS_FLAGS
    for benign in ("zero-error-limit", "k-degenerate", "degenerate-window:oo",
                   "all-phases-accepted"):
        assert benign not in VACUOUS_FLAGS


def test_evaluate_rejects_violated_constraint():
    src = replace(SourceParams.symmetric(**GOLDEN_SRC), mu1=0.092, mu2=0.3)
    exp = table1_exp(300.0, L_A=200.0, L_B=100.0)
    with pytest.raises(ValueError):
        evaluate(exp, src)


def test_evaluate_rejects_asymmetric_source_on_equal_arms():
    # The constraint belongs to the source, not to the arm lengths.
    src = replace(SourceParams.symmetric(**GOLDEN_SRC), mu1_b=0.03)
    assert src.constraint_residual() == pytest.approx(0.533, abs=1e-3)
    with pytest.raises(ValueError, match="decoy constraint"):
        evaluate(table1_exp(300.0), src)


def test_evaluate_symmetric_source_on_unequal_arms(golden_src):
    # A symmetric source meets the constraint by construction on any arms.
    exp = table1_exp(300.0, L_A=200.0, L_B=100.0)
    assert evaluate(exp, golden_src).R >= 0.0


def test_evaluate_flags_negative_secret_margin(golden_src):
    # The symmetric golden source on 200/100 km arms passes every bound but
    # leaves a negative secret margin; the zero rate names that cause.
    from snskit.keyrate import VACUOUS_FLAGS

    rep = evaluate(table1_exp(300.0, L_A=200.0, L_B=100.0), golden_src)
    assert rep.R == 0.0 and not rep.secure
    assert rep.flags == ("negative-secret-margin",)
    assert "negative-secret-margin" not in VACUOUS_FLAGS


@pytest.mark.parametrize("override", [{"xi_tau": 1.0}, {"xi_tau_tilde": 1.0}])
def test_evaluate_exact_mode_fluctuation_free_tail_levels(golden_exp, golden_src, override):
    rep = evaluate(golden_exp, golden_src, method="A", mode="exact",
                   budget=SecurityBudget(**override))
    assert math.isfinite(rep.R) and rep.R > 0.0


def test_evaluate_approx_mode_rejects_non_default_tail_level(golden_exp, golden_src):
    with pytest.raises(ValueError, match='mode="exact"'):
        evaluate(golden_exp, golden_src, budget=SecurityBudget(xi_tau=1e-4))


def test_evaluate_asymmetric_arms_with_valid_constraint():
    base = SourceParams.symmetric(**GOLDEN_SRC)
    tweaked = replace(base, eps_b=0.35, mu_z_b=0.45)
    ratio = (tweaked.eps * (1 - tweaked.eps_b) * tweaked.mu_z * math.exp(-tweaked.mu_z)) / (
        tweaked.eps_b * (1 - tweaked.eps) * tweaked.mu_z_b * math.exp(-tweaked.mu_z_b)
    )
    src = replace(tweaked, mu1_b=tweaked.mu1 / ratio)
    exp = table1_exp(300.0, L_A=200.0, L_B=100.0)
    rep = evaluate(exp, src)
    assert rep.R >= 0.0  # runs through; feasibility is all this checks


@pytest.mark.parametrize(
    "override",
    [{"mu_z": 0.9}, {"mu_z": 1.0}, {"mu2": 1.0}, {"mu1": 0.99, "mu2": 1.0}],
)
@pytest.mark.parametrize("mode", ["approx", "exact"])
def test_evaluate_large_intensities_give_finite_rate(override, mode):
    # Every intensity up to the limit of 1 gives a finite rate, also on a
    # lossless link, where the arriving intensities reach 1 as well.
    exp = replace(TABLE2_EXP, eta_d=1.0).at_distance(0.0)
    src = SourceParams.symmetric(**{**GOLDEN_SRC, **override})
    for method in ("A", "B"):
        report = evaluate(exp, src, method=method, mode=mode)
        assert math.isfinite(report.R) and report.R >= 0.0


# ---------------------------------------------------------------------------
# Every input that constructs gives a finite rate


_unit = st.floats(min_value=0.0, max_value=1.0)
_open_unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_intensity = st.floats(min_value=-300.0, max_value=0.0).map(lambda e: 10.0**e)  # (0, 1]
# Positive failure probabilities construct from the smallest normal float up.
_level = st.floats(min_value=sys.float_info.min, max_value=1.0)
_eps = st.floats(min_value=sys.float_info.min, max_value=1.0, exclude_max=True)


@st.composite
def _experiments(draw):
    try:
        return ExperimentalParams(
            p_d=draw(_unit), e_d=draw(_unit), eta_d=draw(_unit),
            f=draw(st.floats(min_value=1.0, max_value=1e300)),
            alpha_f=draw(st.floats(min_value=0.0, max_value=1e6)),
            N=draw(st.floats(min_value=1.0, max_value=1e300)),
            L_A=draw(st.floats(min_value=0.0, max_value=1e300)),
            L_B=draw(st.floats(min_value=0.0, max_value=1e300)),
            M_slices=draw(st.integers(min_value=1, max_value=256)),
        )
    except ValueError:
        assume(False)


def _side(draw) -> list[float]:
    # (p_z, eps, p0, p1, mu1, mu2, mu_z) with p1 and mu1 drawn as fractions
    # of their headroom, so that most draws construct.
    p0, mu2 = draw(_open_unit), draw(_intensity)
    return [draw(_open_unit), draw(_open_unit), p0, draw(_open_unit) * (1.0 - p0),
            draw(_open_unit) * mu2, mu2, draw(_intensity)]


@st.composite
def _sources(draw):
    a = _side(draw)
    try:
        if draw(st.booleans()):
            return SourceParams.symmetric(*a)
        # The second party's mu1 follows from the decoy constraint, which
        # evaluate checks before anything else, and its mu2 from a fraction.
        b = _side(draw)
        b[4] = a[4] / constraint_ratio(a[1], b[1], a[6], b[6])
        b[5] = b[4] / draw(_open_unit)
        src = SourceParams(*a, *b)
    except (ValueError, ZeroDivisionError):
        assume(False)
    assume(abs(src.constraint_residual()) <= 1e-9)
    return src


@st.composite
def _budgets(draw):
    levels = {}
    for name in ("xi_default", "xi_e1", "xi_tau", "xi_tau_tilde"):
        levels[name] = draw(_level)
    for name in ("eps_def", "eps_cor", "eps_PA", "eps_hat"):
        levels[name] = draw(_eps)
    return SecurityBudget(**levels)


@settings(max_examples=400, deadline=None)
@given(exp=_experiments(), src=_sources(), budget=_budgets())
def test_every_constructed_input_gives_a_finite_non_negative_rate(exp, src, budget):
    # Exact mode takes any budget; approx mode holds only at its own tail levels.
    approx = replace(budget, xi_tau=SecurityBudget().xi_tau,
                     xi_tau_tilde=SecurityBudget().xi_tau_tilde)
    for method in ("A", "B"):
        for mode, levels in (("exact", budget), ("approx", approx)):
            R = evaluate(exp, src, method=method, mode=mode, budget=levels).R
            assert math.isfinite(R) and R >= 0.0, (method, mode)
