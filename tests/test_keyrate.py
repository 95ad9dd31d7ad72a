import math
from dataclasses import replace

import pytest

from snskit.budget import security_budget
from snskit.channel import SourceParams
from snskit.keyrate import (
    asymmetric_constraint_residual,
    evaluate,
    key_rate,
    plob_bounds,
)
from tests.conftest import GOLDEN_SRC, table1_exp


# ---------------------------------------------------------------------------
# Budget composition


def test_budget_default_totals():
    b = security_budget()
    assert b.eps_e == pytest.approx(3e-13, rel=1e-12)
    assert b.eps_s == pytest.approx(1.502e-10, rel=1e-12)
    # Exact arithmetic composition of the advertised totals.
    want_sec = 2 * 1e-10 + 4 * b.eps_s + 1e-10 + 6e-10 + 2e-10
    assert b.eps_sec == want_sec
    assert b.eps_tol == 1e-10 + want_sec
    assert b.eps_tol == pytest.approx(1.8e-9, rel=5e-3)


def test_budget_zeroed_components():
    b = security_budget(
        xi_e1=1e-300, eps_def=0.0, xi_tau_tilde=1e-300,
        eps_cor=0.0, eps_PA=0.0, eps_hat=0.0, eps_n1_prime=0.0, eps_nk=0.0,
    )
    assert b.eps_tol < 1e-290


def test_budget_xi_override_propagates_to_multi_use_totals():
    b = security_budget(xi_default=1.69e-10)
    assert b.eps_n1_prime == pytest.approx(6 * 1.69e-10, rel=1e-12)
    assert b.eps_nk == pytest.approx(2 * 1.69e-10, rel=1e-12)
    explicit = security_budget(xi_default=1.69e-10, eps_nk=1e-9)
    assert explicit.eps_nk == 1e-9


def test_budget_validation():
    with pytest.raises(ValueError):
        security_budget(xi_default=0.0)
    with pytest.raises(ValueError):
        security_budget(eps_cor=1.0)
    with pytest.raises(ValueError):
        security_budget(not_a_field=0.5)


# ---------------------------------------------------------------------------
# Key-rate formula


def _exp300():
    return table1_exp(300.0)


def test_key_rate_zero_without_survivors():
    assert key_rate(0, 0.01, 1e6, 1e-4, _exp300(), security_budget()) == 0.0


def test_key_rate_zero_at_half_phase_error():
    assert key_rate(1e6, 0.5, 1e6, 1e-4, _exp300(), security_budget()) == 0.0
    # Beyond one half no privacy can survive either.
    assert key_rate(1e6, 0.9, 1e6, 1e-4, _exp300(), security_budget()) == 0.0


def test_key_rate_matches_inline_formula():
    exp, budget = _exp300(), security_budget()
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
    assert key_rate(10, 0.4, 1e9, 0.3, _exp300(), security_budget()) == 0.0


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
    assert asymmetric_constraint_residual(golden_src) == 0.0


def test_constraint_residual_double_intensity():
    src = replace(SourceParams.symmetric(**GOLDEN_SRC), mu1=0.092, mu2=0.3)
    # mu_z, eps symmetric, mu1 = 2*mu1_b: the ratio term is 1, so residual = 1.
    assert asymmetric_constraint_residual(src) == pytest.approx(1.0, rel=1e-12)


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
    exp = table1_exp(300.0).at_distance(300.0, delta=100.0)
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
    exp = table1_exp(300.0).at_distance(300.0, delta=100.0)
    assert evaluate(exp, golden_src).R >= 0.0


def test_evaluate_flags_negative_secret_margin(golden_src):
    # The symmetric golden source on 200/100 km arms passes every bound but
    # leaves a negative secret margin; the zero rate names that cause.
    from snskit.keyrate import VACUOUS_FLAGS

    rep = evaluate(table1_exp(300.0).at_distance(300.0, delta=100.0), golden_src)
    assert rep.R == 0.0 and not rep.secure
    assert rep.flags == ("negative-secret-margin",)
    assert "negative-secret-margin" not in VACUOUS_FLAGS


@pytest.mark.parametrize("override", [{"xi_tau": 1.0}, {"xi_tau_tilde": 1.0}])
def test_evaluate_exact_mode_fluctuation_free_tail_levels(golden_exp, golden_src, override):
    rep = evaluate(golden_exp, golden_src, method="A", mode="exact",
                   budget=security_budget(**override))
    assert math.isfinite(rep.R) and rep.R > 0.0


def test_evaluate_approx_mode_rejects_non_default_tail_level(golden_exp, golden_src):
    with pytest.raises(ValueError, match='mode="exact"'):
        evaluate(golden_exp, golden_src, budget=security_budget(xi_tau=1e-4))


def test_evaluate_asymmetric_arms_with_valid_constraint():
    base = SourceParams.symmetric(**GOLDEN_SRC)
    tweaked = replace(base, eps_b=0.35, mu_z_b=0.45)
    ratio = (tweaked.eps * (1 - tweaked.eps_b) * tweaked.mu_z * math.exp(-tweaked.mu_z)) / (
        tweaked.eps_b * (1 - tweaked.eps) * tweaked.mu_z_b * math.exp(-tweaked.mu_z_b)
    )
    src = replace(tweaked, mu1_b=tweaked.mu1 / ratio)
    exp = table1_exp(300.0).at_distance(300.0, delta=100.0)
    rep = evaluate(exp, src)
    assert rep.R >= 0.0  # runs through; feasibility is all this checks
