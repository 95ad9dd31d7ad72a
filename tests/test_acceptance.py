"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The expensive optimizations run once in session fixtures and are shared by
the criteria that consume them.
"""

import math
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

from snskit.budget import SecurityBudget
from snskit.channel import simulate_aopp_counts
from snskit.keyrate import plob_bounds
from snskit.optimizer import OptimizationProblem, scan
from snskit.stats import TailQuery, binomial_tail, chernoff_expected_bounds
from snskit.tables import TABLE2_PLOB_REFERENCE, compute_table2, compute_table3
from snskit.zigzag import compute_M_bar_s
from tests.conftest import GOLDEN_SRC, table1_exp


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def table2():
    start = time.monotonic()
    rows = compute_table2(seed=1)
    return rows, time.monotonic() - start


@pytest.fixture(scope="session")
def table3():
    start = time.monotonic()
    rows = compute_table3(seed=1)
    return rows, time.monotonic() - start


def test_criterion_1_plob_reproduction():
    start = time.monotonic()
    worst = 0.0
    for L, (ref1, ref2) in TABLE2_PLOB_REFERENCE.items():
        plob1, plob2 = plob_bounds(L, 0.2, 0.3)
        worst = max(worst, abs(plob1 / ref1 - 1.0), abs(plob2 / ref2 - 1.0))
    elapsed = time.monotonic() - start
    _report(
        "criterion 1 (repeater-less bounds, 3 significant figures)",
        worst < 5e-3 and elapsed < 1.0,
        f"worst relative deviation {worst:.2e}, {elapsed:.3f}s",
    )


def test_criterion_2_benchmark_rates_n12(table2):
    rows, elapsed = table2
    deviations = []
    for row in rows:
        deviations.append((row.L_total, "A", row.rate_a / row.ref_a))
        deviations.append((row.L_total, "B", row.rate_b / row.ref_b))
    ok = all(0.85 <= ratio <= 1.15 for _, _, ratio in deviations) and elapsed < 600.0
    # Optimized rates fall with distance and the bounded-difference
    # estimator never loses to the split-numerator one.
    ok &= all(a.rate_a >= b.rate_a and a.rate_b >= b.rate_b for a, b in zip(rows, rows[1:]))
    ok &= all(row.rate_b >= row.rate_a for row in rows)
    detail = ", ".join(f"{m}@{L:.0f}km {r:.3f}" for L, m, r in deviations)
    _report(
        "criterion 2 (N=1e12 benchmark rates within 15%)",
        ok,
        f"{detail}; {elapsed:.0f}s",
    )


def test_criterion_3_ratio_claims(table2):
    rows, _ = table2
    row = next(r for r in rows if r.L_total == 440.0)
    r_vs_practical = row.rate_b / row.plob2
    r_vs_absolute = row.rate_b / row.plob1
    _report(
        "criterion 3 (440 km beats the repeater-less bounds)",
        r_vs_practical >= 40.0 and r_vs_absolute >= 13.0,
        f"R_B/practical = {r_vs_practical:.1f} (>=40), R_B/absolute = {r_vs_absolute:.1f} (>=13)",
    )


def test_criterion_4_published_hardware_rates(table3):
    rows, elapsed = table3
    ratios = []
    for row in rows:
        ratios.extend([row.rate_a / row.ref_a, row.rate_b / row.ref_b])
    ok = all(0.85 <= r <= 1.15 for r in ratios) and elapsed < 300.0
    _report(
        "criterion 4 (published-hardware rates within 15%)",
        ok,
        f"ratios {[f'{r:.3f}' for r in ratios]}; {elapsed:.0f}s",
    )


# Seed-1 Table II/III rates (9 significant digits), frozen from the `tables`
# fingerprint at commit a97b1c3. A search change that gives up more than
# 0.5 % of any of them loses quality the 15 % table bounds would not show.
FROZEN_SEED1_RATES = {
    (250.0, "A"): 9.48861414e-06, (250.0, "B"): 1.01342441e-05,
    (390.0, "A"): 2.00937593e-07, (390.0, "B"): 2.32991985e-07,
    (420.0, "A"): 6.73955406e-08, (420.0, "B"): 8.00616554e-08,
    (440.0, "A"): 2.53089752e-08, (440.0, "B"): 3.16306122e-08,
    (402.0, "A"): 9.89521588e-08, (402.0, "B"): 1.06449554e-07,
    (502.0, "A"): 4.77365779e-08, (502.0, "B"): 5.33380689e-08,
}


def test_optimized_rates_hold_against_frozen_seed1_rates(table2, table3):
    rows = table2[0] + table3[0]
    ratios = {}
    for row in rows:
        ratios[(row.L_total, "A")] = row.rate_a / FROZEN_SEED1_RATES[(row.L_total, "A")]
        ratios[(row.L_total, "B")] = row.rate_b / FROZEN_SEED1_RATES[(row.L_total, "B")]
    worst = min(ratios, key=ratios.get)
    _report(
        "optimizer quality (every seed-1 table rate >= 0.995 of its frozen value)",
        ratios.keys() == FROZEN_SEED1_RATES.keys() and ratios[worst] >= 0.995,
        f"lowest {ratios[worst]:.5f} at {worst[1]}@{worst[0]:.0f}km",
    )


def test_optimized_rates_hold_against_frozen_seed1_rates_at_seeds_1_to_8(table2, table3):
    # A search change can keep seed 1's rows and lose another seed's.
    rows = {1: table2[0] + table3[0]}
    for seed in range(2, 9):
        rows[seed] = compute_table2(seed=seed) + compute_table3(seed=seed)
    worst = (math.inf, "")
    for seed, seed_rows in rows.items():
        for row in seed_rows:
            for method, rate in (("A", row.rate_a), ("B", row.rate_b)):
                ratio = rate / FROZEN_SEED1_RATES[(row.L_total, method)]
                worst = min(worst, (ratio, f"{method}@{row.L_total:.0f}km, seed {seed}"))
    _report(
        "optimizer quality (every table rate at seeds 1-8 >= 0.995 of its frozen seed-1 value)",
        worst[0] >= 0.995,
        f"lowest {worst[0]:.5f} at {worst[1]}",
    )


def test_criterion_5_method_b_uplift_n11():
    grid = [250.0, 300.0, 350.0, 400.0]
    prob = OptimizationProblem(exp=table1_exp(250.0, N=1e11), restarts=8, seed=1)
    uplift = [pt.b.rate / pt.a.rate - 1.0 for pt in scan(prob, grid)]
    med = statistics.median(uplift)
    _report(
        "criterion 5 (bounded-difference estimator uplift at N=1e11)",
        0.05 <= med <= 0.35,
        f"median uplift {med:.3f} over {grid}",
    )


def test_criterion_6_budget_ledger():
    b = SecurityBudget()
    composed_sec = 2 * b.eps_hat + 4 * b.eps_s + b.eps_PA + b.eps_n1_prime + b.eps_nk
    exact = b.eps_sec == composed_sec and b.eps_tol == b.eps_cor + composed_sec
    close = abs(b.eps_s / 1.5e-10 - 1.0) < 5e-3 and abs(b.eps_tol / 1.8e-9 - 1.0) < 5e-3
    _report(
        "criterion 6 (failure-probability ledger)",
        exact and close,
        f"eps_s = {b.eps_s:.4e} (~1.5e-10), eps_tol = {b.eps_tol:.4e} (~1.8e-9)",
    )


def test_criterion_7_property_suites():
    start = time.monotonic()

    # Interval inversions land back on xi/2.
    worst_resid = 0.0
    for X in (1.0, 1e2, 1e4, 1e6, 1e8, 1e10):
        for xi in (1e-14, 1e-10, 1e-6, 1e-2):
            res = chernoff_expected_bounds(X, xi)
            for t in (res.lower, res.upper):
                if t <= 0.0:
                    continue
                d = (t - X) / X
                log_resid = -X * (d - math.log1p(d)) if abs(d) < 0.5 else -(
                    (t - X) + X * math.log(X / t)
                )
                worst_resid = max(worst_resid, abs(math.expm1(log_resid - math.log(xi / 2))))
    chernoff_ok = worst_resid < 1e-9

    # Tails against direct summation.
    worst_tail = 0.0
    for n in (5, 12, 30):
        for p in (0.01, 0.4, 0.93):
            for m in range(n + 1):
                direct = math.fsum(
                    math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(m, n + 1)
                )
                worst_tail = max(worst_tail, abs(binomial_tail(TailQuery(n, p, m)) - direct))
    tails_ok = worst_tail < 1e-12

    # Heralded rate against the phase-sampling oracle.
    from snskit.channel import heralded_rate

    rng = np.random.default_rng(5)
    mc_ok = True
    for x, y in [(1e-4, 1e-4), (1e-2, 1e-2), (1e-2, 0.1), (0.1, 1.0), (1.0, 1.0)]:
        delta = rng.uniform(0.0, 2 * math.pi, 10**7)
        inter = math.sqrt(x * y) * np.cos(delta)
        silent_p = (1 - 1e-8) * np.exp(-(0.5 * (x + y) + inter))
        silent_m = (1 - 1e-8) * np.exp(-(0.5 * (x + y) - inter))
        q = silent_p * (1 - silent_m) + silent_m * (1 - silent_p)
        mean, stderr = float(q.mean()), float(q.std(ddof=1)) / math.sqrt(q.size)
        mc_ok &= abs(heralded_rate(x, y, 1e-8) - mean) < 3 * stderr

    # Active pairing against a direct pairing simulation.
    c0, c1, v, d = (int(x) for x in rng.multinomial(100_000, [0.4, 0.35, 0.01, 0.24]))
    n_g, n_tp, n_odd, e_pred = simulate_aopp_counts(c0, c1, v, d)
    zeros = np.array([0] * c0 + [1] * d)
    ones = np.array([1] * c1 + [0] * v)
    rng.shuffle(zeros)
    rng.shuffle(ones)
    pairs = min(zeros.size, ones.size)
    kept = zeros[:pairs] != ones[:pairs]
    keep_prob = 2 * n_tp / pairs
    sigma = math.sqrt(pairs * keep_prob * (1 - keep_prob))
    pairing_ok = abs(int(kept.sum()) - 2 * n_tp) < 3 * sigma

    # Exact-mode tail bracketing is strict.
    n, r, m_bar = 10**6, 9940.0, 10**4
    m_s, e_tau, _ = compute_M_bar_s(n, r, m_bar, "exact", SecurityBudget())
    big_e = e_tau * (1.0 - e_tau)
    shift = round(m_s - r)
    trials = math.ceil(n - r)
    bracket_ok = (
        binomial_tail(TailQuery(trials, big_e, shift)) <= 1e-10
        < binomial_tail(TailQuery(trials, big_e, shift - 1))
    )

    elapsed = time.monotonic() - start
    _report(
        "criterion 7 (oracle property suites)",
        chernoff_ok and tails_ok and mc_ok and pairing_ok and bracket_ok and elapsed < 300.0,
        f"chernoff {worst_resid:.1e}, tails {worst_tail:.1e}, mc {mc_ok}, "
        f"pairing {pairing_ok}, bracket {bracket_ok}; {elapsed:.0f}s",
    )


def test_criterion_8_deterministic_csv(tmp_path):
    config = tmp_path / "det.cfg"
    config.write_text(
        "exp.p_d = 1.0e-8\nexp.e_d = 0.03\nexp.eta_d = 0.30\nexp.f = 1.1\n"
        "exp.alpha_f = 0.2\nexp.N = 1.0e12\nexp.L_A = 150\nexp.L_B = 150\n"
        f"src.p_z = {GOLDEN_SRC['p_z']}\nsrc.eps = {GOLDEN_SRC['eps']}\n"
        f"src.p0 = {GOLDEN_SRC['p0']}\nsrc.p1 = {GOLDEN_SRC['p1']}\n"
        f"src.mu1 = {GOLDEN_SRC['mu1']}\nsrc.mu2 = {GOLDEN_SRC['mu2']}\n"
        f"src.mu_z = {GOLDEN_SRC['mu_z']}\n"
        "opt.distances = 290,310\nopt.restarts = 2\nopt.max_evals = 150\nopt.seed = 9\n",
        encoding="utf-8",
    )
    outputs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        cp = subprocess.run(
            [sys.executable, "-m", "snskit", "scan", "--config", str(config), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert cp.returncode == 0, cp.stderr
        outputs.append(out.read_bytes())
    _report(
        "criterion 8 (byte-identical CSV per config and seed)",
        outputs[0] == outputs[1] and len(outputs[0]) > 0,
        f"{len(outputs[0])} bytes, identical = {outputs[0] == outputs[1]}",
    )
