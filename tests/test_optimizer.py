import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from snskit import optimizer
from snskit.budget import SecurityBudget
from snskit.channel import SourceParams
from snskit.keyrate import evaluate
from snskit.optimizer import OptimizationProblem, _better, _Space, optimize, scan
from snskit.tables import TABLE2_EXP
from tests.conftest import GOLDEN_SRC, table1_exp


def _small_problem(**overrides) -> OptimizationProblem:
    kwargs = dict(
        exp=table1_exp(300.0),
        restarts=2,
        max_evals=150,
        seed=11,
        x0=SourceParams.symmetric(**GOLDEN_SRC),
    )
    kwargs.update(overrides)
    return OptimizationProblem(**kwargs)


def _recorded_optimize(monkeypatch, problem: OptimizationProblem):
    """Run optimize and return it with every (source, rate) evaluated."""
    probes: list[tuple[SourceParams, float]] = []

    def recording(*args, **kwargs):
        report = evaluate(*args, **kwargs)
        probes.append((report.src, report.R))
        return report

    monkeypatch.setattr(optimizer, "evaluate", recording)
    return optimize(problem), probes


def test_space_round_trip():
    problem = _small_problem()
    space = _Space(problem)
    src = SourceParams.symmetric(**GOLDEN_SRC)
    back = space.decode(space.encode(src))
    for name in ("p_z", "eps", "p0", "p1", "mu1", "mu2", "mu_z"):
        assert getattr(back, name) == pytest.approx(getattr(src, name), rel=1e-9)


def test_space_decode_always_feasible():
    import numpy as np

    for mode in ("symmetric", "asymmetric"):
        problem = _small_problem(mode=mode)
        space = _Space(problem)
        rng = np.random.default_rng(0)
        for _ in range(200):
            src = space.decode(rng.uniform(-6, 6, size=space.dim))
            if src is None:  # asymmetric elimination can leave the box
                assert mode == "asymmetric"
                continue
            assert 0.0 < src.mu1 < src.mu2
            assert src.p0 + src.p1 <= 1.0
            if mode == "asymmetric":
                assert abs(src.constraint_residual()) < 1e-9


@pytest.mark.parametrize(
    "field,value", [("method", "C"), ("zigzag_mode", "fast"), ("mode", "sym")]
)
def test_problem_rejects_an_unknown_setting_at_construction(field, value):
    with pytest.raises(ValueError, match=f"{field} must be .*got {value!r}"):
        _small_problem(**{field: value})


def test_problem_rejects_an_approx_budget_at_construction():
    # The Gaussian constants hold only at the default tail levels, so the
    # search fails when it is built, not at its first evaluation.
    budget = SecurityBudget(xi_tau=1e-3)
    with pytest.raises(ValueError, match="approx mode's Gaussian quantiles"):
        _small_problem(security=budget)
    assert _small_problem(security=budget, zigzag_mode="exact").security == budget


def test_single_evaluation_returns_start_point():
    problem = _small_problem(restarts=1, max_evals=1)
    out = optimize(problem)
    want = evaluate(problem.exp, problem.x0, method="A").R
    assert out.rate == pytest.approx(want, rel=1e-12)
    assert out.evaluations >= 1


def test_optimize_deterministic_per_seed(monkeypatch):
    a, probes_a = _recorded_optimize(monkeypatch, _small_problem())
    b, probes_b = _recorded_optimize(monkeypatch, _small_problem())
    assert a.rate == b.rate
    assert a.restarts == b.restarts
    assert probes_a == probes_b  # every evaluation, in order
    # A different seed draws different restart points (the warm start is
    # shared, so the first record's start point is too).
    c = optimize(_small_problem(seed=12))
    assert a.restarts[0].start == c.restarts[0].start
    assert a.restarts[1].start != c.restarts[1].start
    assert a.restarts[1] != c.restarts[1]


def test_optimize_best_dominates_every_evaluation(monkeypatch):
    out, probes = _recorded_optimize(monkeypatch, _small_problem())
    assert out.evaluations == len(probes)
    assert out.rate == max(r for _, r in probes)
    best_eval = evaluate(table1_exp(300.0), out.params, method="A").R
    assert best_eval == pytest.approx(out.rate, rel=1e-12)


def test_optimize_records_running_best_per_restart(monkeypatch):
    problem = _small_problem()
    dim = _Space(problem).dim
    # The leader's refinement runs after every restart's coarse phase, so
    # each probe is filed under the start of the restart that made it.
    probes: list[tuple[SourceParams, float]] = []
    mine_of: dict = {}
    current: list = []
    real_run, real_refine = optimizer._run_restart, optimizer._refine

    def run(problem, start):
        current[:] = [tuple(start)]
        return real_run(problem, start)

    def refine(record, simplex, objective):
        current[:] = [record.start]
        return real_refine(record, simplex, objective)

    def recording(*args, **kwargs):
        report = evaluate(*args, **kwargs)
        probes.append((report.src, report.R))
        mine_of.setdefault(current[0], []).append(probes[-1])
        return report

    monkeypatch.setattr(optimizer, "evaluate", recording)
    monkeypatch.setattr(optimizer, "_run_restart", run)
    monkeypatch.setattr(optimizer, "_refine", refine)
    out = optimize(problem)
    assert len(out.restarts) == 2
    # The warm start's simplex holds a positive rate, so it is never
    # flagged; the seed-11 restart starts on the plateau.
    assert [rec.plateau for rec in out.restarts] == [False, True]
    assert out.restarts[0].rate > 0.0
    first = 0
    for rec in out.restarts:
        mine = mine_of.get(rec.start, [])
        assert len(mine) == rec.evaluations
        first += rec.evaluations
        assert rec.nfev >= rec.evaluations  # nfev also counts infeasible corners
        assert rec.rate == max(r for _, r in mine)
        if rec.plateau:  # stopped after its flat initial simplex
            assert rec.status == -1
            assert rec.nfev == dim + 1
            assert rec.evaluations <= dim + 1
            assert rec.rate == 0.0 and rec.params is None
        else:
            assert rec.status in (0, 1, 3)
            assert (rec.params, rec.rate) in mine
    assert first == len(probes) == out.evaluations
    assert out.rate == max(rec.rate for rec in out.restarts) > 0.0


def test_only_the_leading_restart_is_refined():
    problem = OptimizationProblem(exp=TABLE2_EXP.at_distance(250.0), method="B", seed=1)
    out = optimize(problem)
    coarse = [optimizer._run_restart(problem, start)[0] for start in optimizer._starts(problem)]
    refined = [i for i, (a, b) in enumerate(zip(coarse, out.restarts)) if a != b]
    assert len(refined) == 1
    lead, = refined
    assert coarse[lead].status == 2 and out.restarts[lead].status in (0, 3)
    assert out.restarts[lead].nfev > coarse[lead].nfev
    assert out.restarts[lead].evaluations > coarse[lead].evaluations
    # The leader is the best converged restart; every other one stays at
    # the coarse stop with its coarse record.
    others = [rec for i, rec in enumerate(coarse) if i != lead]
    assert all(rec.status == 2 for rec in others)
    assert all(rec.rate < coarse[lead].rate for rec in others)
    assert out.rate == out.restarts[lead].rate >= coarse[lead].rate


def test_seed1_table2_stays_within_its_evaluation_count(monkeypatch):
    # Pins the restart economy: the seed-1 Table II made 8,900 evaluations
    # when every restart ran to _RTOL, 6,114 with only the leader refined,
    # 4,323 once method B ran one restart from method A's optimum in place
    # of its own 8-restart search, and 2,844 since the leader's refinement
    # stops at its first shrink.
    from snskit.tables import compute_table2

    counts: list[int] = []
    calls = 0
    real_optimize, real_evaluate = optimizer.optimize, optimizer.evaluate

    def counting(problem):
        out = real_optimize(problem)
        counts.append(out.evaluations)
        return out

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(optimizer, "optimize", counting)
    monkeypatch.setattr(optimizer, "evaluate", counted)
    compute_table2(seed=1)
    assert len(counts) == 8  # two methods at four distances
    assert sum(counts) == calls <= 2844


def test_seed1_table2_optimizes_method_a_then_method_b(monkeypatch):
    # The order the benchmark's tables fingerprint records.
    from snskit.tables import compute_table2

    calls: list[tuple[str, float]] = []
    real_optimize = optimizer.optimize

    def recording(problem):
        calls.append((problem.method, problem.exp.L_total))
        return real_optimize(problem)

    monkeypatch.setattr(optimizer, "optimize", recording)
    compute_table2(seed=1)
    distances = [250.0, 390.0, 420.0, 440.0]
    assert calls == [("A", L) for L in distances] + [("B", L) for L in distances]


def test_cold_method_b_at_440km_stops_every_restart_on_the_plateau():
    out = optimize(OptimizationProblem(exp=TABLE2_EXP.at_distance(440.0), method="B", seed=1))
    assert out.flags == ("zero-rate-box",)
    assert out.params is None and out.rate == 0.0
    assert len(out.restarts) == 8
    for rec in out.restarts:
        assert rec.plateau and rec.status == -1
        assert rec.nfev == 8 and rec.evaluations == 8
        assert rec.params is None and rec.rate == 0.0
    assert out.evaluations == 64


def test_cold_method_a_at_440km_keeps_its_rate():
    out = optimize(OptimizationProblem(exp=TABLE2_EXP.at_distance(440.0), method="A", seed=1))
    assert out.rate == 2.524187173491602e-08  # frozen since the shrink stop
    assert out.flags == ()
    assert not out.restarts[0].plateau
    assert sum(rec.plateau for rec in out.restarts) == 7


def test_plateau_stop_needs_a_call_past_the_initial_simplex():
    # With the cap at dim + 1 calls the cap stops the simplex first, so
    # nothing is flagged.
    dim = _Space(_small_problem()).dim
    flat = optimize(_small_problem(max_evals=dim + 1)).restarts[1]
    assert not flat.plateau
    assert (flat.status, flat.nfev, flat.rate, flat.params) == (1, dim + 1, 0.0, None)


def test_relative_stop_cuts_the_tight_run_short(monkeypatch):
    # -ln R leaves every simplex move as it was, so the default stop only
    # ends the same sequence of evaluations earlier than a tight one.  This
    # restart reaches _RTOL before any contraction fails at a spread within
    # _COARSE_RTOL, where both runs would stop at the same shrink.
    problem, start = _oracle_restart("reaches-rtol")
    objective, vertices = _restart_inputs(monkeypatch, problem, start)
    default: list = []
    _, status = _straight(_recording(objective, default), vertices, problem.max_evals)
    monkeypatch.setattr(optimizer, "_RTOL", 1e-12)
    tight: list = []
    _straight(_recording(objective, tight), vertices, problem.max_evals)
    assert status == 0
    assert len(default) < len(tight)
    assert _bits(tight[:len(default)]) == _bits(default)
    assert objective.rate > 0.0


def test_objective_ranks_every_positive_rate_above_zero_and_infeasible(monkeypatch):
    import numpy as np

    problem = _small_problem(mode="asymmetric", restarts=1, max_evals=20)
    objective, _ = _restart_inputs(monkeypatch, problem, optimizer._starts(problem)[0])

    space = _Space(problem)
    rng = np.random.default_rng(0)
    points = (rng.uniform(-6, 6, size=space.dim) for _ in range(1000))
    infeasible = next(t for t in points if space.decode(t) is None)
    feasible = np.asarray(space.encode(problem.x0))

    def value_at(rate: float) -> float:
        monkeypatch.setattr(optimizer, "evaluate", lambda *a, **k: SimpleNamespace(R=rate))
        return objective(feasible)

    floor = value_at(0.0)
    assert objective(infeasible) == floor
    rates = [5e-324, 1e-300, 1e-12, 2.65e-6, 1.0]
    values = [value_at(r) for r in rates]
    assert all(v < floor for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))  # a higher rate ranks higher


class _Captured(Exception):
    """Ends a restart once its inputs are captured."""


def _restart_inputs(monkeypatch, problem: OptimizationProblem, start: list[float]):
    """The objective and initial vertices `_run_restart` hands the simplex."""
    captured = []

    def capturing(objective, vertices, max_evals):
        captured.append((objective, vertices))
        raise _Captured  # skip the descent: only its inputs are needed

    with monkeypatch.context() as m:
        m.setattr(optimizer, "_initial_simplex", capturing)
        with pytest.raises(_Captured):
            optimizer._run_restart(problem, start)
    (objective, vertices), = captured
    return objective, vertices


def _straight(objective, vertices: list, max_evals: int):
    """One uninterrupted simplex run to `_RTOL`: (final simplex, status)."""
    simplex = optimizer._initial_simplex(objective, vertices, max_evals)
    status = optimizer._nelder_mead(objective, simplex, max_evals, optimizer._RTOL)
    return simplex, status


def _recording(objective, calls: list):
    def recorded(x):
        value = objective(x)
        calls.append(([float(v) for v in x], value))
        return value

    return recorded


def _bits(calls: list) -> list:
    return [[v.hex() for v in x] for x, _ in calls]


def _against_scipy(monkeypatch, objective, vertices: list, max_evals: int):
    """Run the simplex and scipy's Nelder-Mead on one objective from one
    initial simplex.

    The two part only where a sort meets tied values: the simplex sends ties
    to the lexicographically smaller vertex, scipy to numpy's argsort.  So
    this asserts that both evaluate the same points bit for bit up to the
    first sort that meets a tie.  When no sort before the last call does, it
    also asserts that they report the same call count and status, or, where
    the simplex stopped at a shrink (status 3), that scipy's next calls are
    that shrink.  Returns the (point, value) calls, the status and the
    number of calls compared.
    """
    import numpy as np
    from scipy.optimize import minimize

    tied_at: list[int] = []  # objective calls made before each sort that meets a tie
    real_sort = optimizer._Simplex.sort

    def sort(self):
        if len(set(self.values)) < len(self.values):
            tied_at.append(self.nfev)
        real_sort(self)

    ours: list = []
    theirs: list = []
    with monkeypatch.context() as m:
        m.setattr(optimizer._Simplex, "sort", sort)
        simplex, status = _straight(_recording(objective, ours), vertices, max_evals)
    res = minimize(
        _recording(objective, theirs), np.asarray(vertices[0]), method="Nelder-Mead",
        options={
            "maxfev": max_evals,
            "xatol": math.inf,
            "fatol": optimizer._RTOL,
            "initial_simplex": np.asarray(vertices),
        },
    )
    compared = min(tied_at, default=len(ours))
    assert _bits(ours[:compared]) == _bits(theirs[:compared])
    if compared == len(ours) and status == 3:
        # scipy shrinks the simplex where ours stopped: its next n calls are
        # the vertices v0 + (v - v0) / 2.
        v0, *rest = simplex.vertices
        shrunk = [[a + 0.5 * (b - a) for a, b in zip(v0, v)] for v in rest]
        assert _bits(theirs[len(ours):len(ours) + len(rest)]) == _bits((x, None) for x in shrunk)
    elif compared == len(ours):
        assert simplex.nfev == res.nfev == len(ours) == len(theirs)
        assert status == res.status
    return ours, status, compared


# The restarts the simplex is checked on, each as (problem, restart index).
_ORACLE_RESTARTS = {
    # Stops at its first failed contraction within _COARSE_RTOL, after 46 calls.
    "symmetric": (lambda: _small_problem(restarts=1, max_evals=1000), 0),
    # Reaches _RTOL before any contraction fails within _COARSE_RTOL; each
    # of its shrinks is taken at a wider spread.
    "reaches-rtol": (lambda: _small_problem(method="B", seed=3, restarts=5, max_evals=1000), 4),
    # A 13-dim restart whose initial simplex holds 13 tied zero-rate
    # vertices and which meets infeasible corners during its descent.
    "asymmetric": (lambda: OptimizationProblem(
        exp=table1_exp(250.0, L_A=175.0, L_B=75.0), mode="asymmetric",
        max_evals=120, seed=3,
    ), 6),
    # The default start on 150/50 km arms: a 13-dim descent that meets an
    # infeasible corner with no tie in any sort.
    "asymmetric-untied": (lambda: OptimizationProblem(
        exp=table1_exp(200.0, L_A=150.0, L_B=50.0), mode="asymmetric", max_evals=120,
    ), 0),
    # The first restart of the cold seed-1 440 km method-A optimize: its
    # initial simplex holds tied zero-rate vertices beside positive ones,
    # and near its end an outside contraction ties the reflected value.
    "tied": (lambda: OptimizationProblem(
        exp=TABLE2_EXP.at_distance(440.0), method="A", seed=1,
    ), 0),
    "cap-in-initial-simplex": (lambda: _small_problem(max_evals=5), 0),
    # Its first shrink starts after call 239, at a spread of 1.7e-3.
    "cap-in-shrink": (lambda: _small_problem(seed=36, max_evals=243), 1),
}


def _oracle_restart(name: str) -> tuple[OptimizationProblem, list[float]]:
    make, index = _ORACLE_RESTARTS[name]
    problem = make()
    return problem, optimizer._starts(problem)[index]


def _oracle_against_scipy(monkeypatch, name: str):
    """`_against_scipy` on one oracle restart: its problem, calls, status and
    the number of calls compared."""
    problem, start = _oracle_restart(name)
    objective, vertices = _restart_inputs(monkeypatch, problem, start)
    return problem, *_against_scipy(monkeypatch, objective, vertices, problem.max_evals)


def test_simplex_matches_scipy_on_a_symmetric_restart(monkeypatch):
    _, calls, status, compared = _oracle_against_scipy(monkeypatch, "symmetric")
    assert compared == len(calls)  # no sort meets a tie
    assert (len(calls), status) == (46, 3)


def test_simplex_matches_scipy_through_infeasible_asymmetric_corners(monkeypatch):
    problem, calls, status, compared = _oracle_against_scipy(monkeypatch, "asymmetric-untied")
    space = _Space(problem)
    assert status == 1 and space.dim == 13
    infeasible = [i for i, (x, _) in enumerate(calls) if space.decode(x) is None]
    assert infeasible and min(infeasible) > space.dim  # met during the descent
    assert min(value for _, value in calls) < optimizer._NO_RATE
    assert compared == len(calls)  # no sort meets a tie


def test_simplex_matches_scipy_when_the_cap_cuts_the_initial_simplex(monkeypatch):
    _, calls, status, compared = _oracle_against_scipy(monkeypatch, "cap-in-initial-simplex")
    # The unevaluated vertices tie at inf, but only in the sort after the last call.
    assert compared == len(calls)
    assert (len(calls), status) == (5, 1)


def test_simplex_matches_scipy_when_the_cap_cuts_a_shrink(monkeypatch):
    _, calls, status, compared = _oracle_against_scipy(monkeypatch, "cap-in-shrink")
    assert compared == len(calls)  # no sort meets a tie
    assert (len(calls), status) == (243, 1)
    # The last four calls are shrink vertices v0 + (v - v0) / 2: v0 is the
    # best point so far and each v an earlier vertex, so 2q - v0 returns to
    # an earlier point.
    before = calls[:-4]
    best = min(before, key=lambda call: call[1])[0]
    for q, _ in calls[-4:]:
        back = [2.0 * a - b for a, b in zip(q, best)]
        assert any(
            all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12) for a, b in zip(back, x))
            for x, _ in before
        )


# A strictly convex quadratic with its minimum 1 at (0.1, -0.2, 0.3), and
# an initial simplex around the origin.
def _quadratic(x) -> float:
    weights, centre = (100.0, 200.0, 300.0), (0.1, -0.2, 0.3)
    return 1.0 + sum(w * (a - c) ** 2 for w, a, c in zip(weights, x, centre))


_QUADRATIC_SIMPLEX = [[0.0, 0.0, 0.0], [0.25, 0.0, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 0.25]]


def test_simplex_runs_a_strictly_convex_quadratic_to_rtol_like_scipy(monkeypatch):
    # Nelder-Mead never shrinks on a strictly convex function, so the shrink
    # stop never fires, and the run ends at _RTOL call for call with scipy's.
    calls, status, compared = _against_scipy(monkeypatch, _quadratic, _QUADRATIC_SIMPLEX, 1000)
    assert compared == len(calls) > 50 and status == 0


def test_rounded_quadratic_stops_at_its_first_failed_contraction_within_coarse_rtol(monkeypatch):
    # Rounded to 1e-4 steps, the quadratic's values stop following its
    # curvature, and a contraction fails.
    def rounded(x):
        return round(_quadratic(x) / 1e-4) * 1e-4

    ours: list = []
    simplex, status = _straight(_recording(rounded, ours), _QUADRATIC_SIMPLEX, 1000)
    assert status == 3
    assert optimizer._RTOL < simplex.values[-1] - simplex.values[0] <= optimizer._COARSE_RTOL

    # With the stop switched off the simplex makes the same calls, then
    # shrinks.  A step of n + 2 calls is a shrink (a reflection, a failed
    # contraction and n vertices); the first one at a spread within
    # _COARSE_RTOL is where the stop fired.
    at_sort: list = []  # (calls made, spread) after each sort
    real_sort = optimizer._Simplex.sort

    def sort(self):
        real_sort(self)
        at_sort.append((self.nfev, self.values[-1] - self.values[0]))

    coarse = optimizer._COARSE_RTOL
    monkeypatch.setattr(optimizer._Simplex, "sort", sort)
    monkeypatch.setattr(optimizer, "_COARSE_RTOL", -math.inf)
    free: list = []
    _straight(_recording(rounded, free), _QUADRATIC_SIMPLEX, 1000)
    n = len(_QUADRATIC_SIMPLEX) - 1
    shrinks = [(a, spread) for (a, spread), (b, _) in zip(at_sort, at_sort[1:]) if b - a == n + 2]
    first = next(a for a, spread in shrinks if spread <= coarse)
    assert len(ours) == first + 2
    assert _bits(free[:len(ours)]) == _bits(ours)


def test_tied_vertices_sort_in_lexicographic_order():
    simplex = optimizer._Simplex(
        [[1.0, 2.0], [0.5, 9.0], [1.0, -1.0], [0.0, 0.0], [1.0, -1.5]],
        [7.0, 7.0, 3.0, 7.0, 7.0],
    )
    simplex.sort()
    assert simplex.values == [3.0, 7.0, 7.0, 7.0, 7.0]
    assert simplex.vertices == [[1.0, -1.0], [0.0, 0.0], [0.5, 9.0], [1.0, -1.5], [1.0, 2.0]]


@pytest.mark.parametrize("name", ["tied", "asymmetric"])
def test_permuting_tied_vertices_leaves_the_descent_unchanged(monkeypatch, name):
    # Both initial simplices hold tied zero-rate vertices beside a positive one.
    problem, start = _oracle_restart(name)
    objective, vertices = _restart_inputs(monkeypatch, problem, start)
    n = len(vertices)
    first: list = []
    _straight(_recording(objective, first), vertices, problem.max_evals)
    values = [value for _, value in first[:n]]
    tied = [i for i, value in enumerate(values) if values.count(value) > 1]
    assert len(tied) >= 2 and min(values) < optimizer._NO_RATE
    permuted = list(vertices)
    for i, j in zip(tied, reversed(tied)):  # reverse the order of the tied vertices
        permuted[i] = vertices[j]

    def descent(vertices: list) -> list:
        calls: list = []
        _straight(_recording(objective, calls), vertices, problem.max_evals)
        assert sorted(_bits(calls[:n])) == sorted(_bits(first[:n]))  # the same initial points
        return calls[n:]

    again = descent(permuted)
    assert again and _bits(again) == _bits(first[n:])

    # Sorted by value alone, the tied vertices keep their input order, and
    # the permutation changes the descent.
    def by_value(self):
        order = sorted(range(len(self.values)), key=self.values.__getitem__)
        self.vertices[:] = [self.vertices[i] for i in order]
        self.values[:] = [self.values[i] for i in order]

    monkeypatch.setattr(optimizer._Simplex, "sort", by_value)
    assert _bits(descent(permuted)) != _bits(descent(vertices))


@pytest.mark.parametrize("name", list(_ORACLE_RESTARTS))
def test_coarse_stop_and_resume_equal_one_straight_run(monkeypatch, name):
    # Neither a simplex move nor the shrink stop reads the tolerance, so a
    # restart stopped at _COARSE_RTOL and resumed to _RTOL calls the
    # objective exactly where one run to _RTOL does.
    problem, start = _oracle_restart(name)
    objective, vertices = _restart_inputs(monkeypatch, problem, start)
    straight: list = []
    simplex, status = _straight(_recording(objective, straight), vertices, problem.max_evals)
    nfev = simplex.nfev

    calls: list = []

    class Recording(optimizer._Objective):
        def __call__(self, t):
            return _recording(super().__call__, calls)(t)

    monkeypatch.setattr(optimizer, "_Objective", Recording)
    record, simplex, objective = optimizer._run_restart(problem, start)
    if status in (0, 3):  # the straight run went on past the coarse stop
        assert record.status == 2 and record.nfev < nfev
    if record.status == 2:
        record = optimizer._refine(record, simplex, objective)
    assert _bits(calls) == _bits(straight)
    assert (record.nfev, record.status) == (nfev, status) == (len(calls), status)


# Tie-break order the optimizer's frozen results rest on: every first-party
# field, then every second-party field.
_TIE_BREAK_FIELDS = (
    "p_z", "eps", "p0", "p1", "mu1", "mu2", "mu_z",
    "p_z_b", "eps_b", "p0_b", "p1_b", "mu1_b", "mu2_b", "mu_z_b",
)


def test_source_order_is_the_tie_break_order():
    # Sources that each move one field off a common base sort by the
    # earliest field in the order, so the sort pins the field priority.
    base = SourceParams.symmetric(**GOLDEN_SRC)
    sources = [base]
    for name in _TIE_BREAK_FIELDS:
        for scale in (0.95, 1.05):
            sources.append(replace(base, **{name: getattr(base, name) * scale}))

    def key(src):
        return tuple(getattr(src, name) for name in _TIE_BREAK_FIELDS)

    assert [key(s) for s in sorted(sources)] == sorted(key(s) for s in sources)


def test_better_breaks_positive_ties_toward_smaller_source():
    small = SourceParams.symmetric(**GOLDEN_SRC)
    large = replace(small, mu_z_b=0.6)  # differs only in the last field
    assert small < large
    assert _better(1e-6, small, 1e-6, large)
    assert not _better(1e-6, large, 1e-6, small)
    assert not _better(1e-6, small, 1e-6, small)
    # A higher rate wins whatever the order; a lower one never does.
    assert _better(2e-6, large, 1e-6, small)
    assert not _better(1e-6, small, 2e-6, large)
    # Zero rates carry no tie-break, and nothing ties with an empty best.
    assert not _better(0.0, small, 0.0, large)
    assert not _better(0.0, small, 0.0, None)


def test_optimize_improves_on_start():
    problem = _small_problem(restarts=2, max_evals=400)
    start_rate = evaluate(problem.exp, problem.x0, method="A").R
    out = optimize(problem)
    assert out.rate >= start_rate


def test_optimize_params_satisfy_invariants():
    out = optimize(_small_problem(mode="asymmetric", restarts=2, max_evals=200))
    src = out.params
    assert src is not None
    assert 0.0 < src.mu1 < src.mu2 and 0.0 < src.mu1_b < src.mu2_b
    assert src.p0 + src.p1 <= 1.0 and src.p0_b + src.p1_b <= 1.0
    assert abs(src.constraint_residual()) < 1e-9


def test_scan_single_distance_equals_optimize():
    problem = _small_problem()
    pts = scan(problem, [300.0])
    assert len(pts) == 1
    # Whole results, restart records included: nothing is copied or dropped.
    assert pts[0].a == optimize(problem)
    assert pts[0].b == optimize(replace(problem, method="B", x0=pts[0].a.params, restarts=1))
    assert pts[0].plob1 > pts[0].plob2


def test_scan_polishes_method_a_optimum_with_one_method_b_restart():
    problem = _small_problem(max_evals=300)
    pts = scan(problem, [300.0, 320.0])
    for pt in pts:
        exp_problem = replace(problem, exp=problem.exp.at_distance(pt.L_total))
        assert pt.a.params is not None and pt.b.params is not None
        rec, = pt.b.restarts
        assert rec.start == tuple(_Space(exp_problem).encode(pt.a.params))


def _zero_result() -> optimizer.OptimizeResult:
    return optimizer.OptimizeResult(None, 0.0, ())


def _count_evaluations_per_distance(monkeypatch) -> dict:
    """Count optimizer evaluate calls by total distance."""
    calls: dict = {}
    real_evaluate = optimizer.evaluate

    def counted(exp, *args, **kwargs):
        calls[exp.L_total] = calls.get(exp.L_total, 0) + 1
        return real_evaluate(exp, *args, **kwargs)

    monkeypatch.setattr(optimizer, "evaluate", counted)
    return calls


def test_scan_falls_back_to_method_b_search_when_the_polish_finds_no_source(monkeypatch):
    real_optimize = optimizer.optimize

    def polish_finds_nothing(problem):
        if problem.method == "B" and problem.restarts == 1:
            return _zero_result()
        return real_optimize(problem)

    calls = _count_evaluations_per_distance(monkeypatch)
    monkeypatch.setattr(optimizer, "optimize", polish_finds_nothing)
    problem = _small_problem()
    first, second = scan(problem, [300.0, 320.0])
    for pt in (first, second):
        assert pt.a.evaluations + pt.b.evaluations == calls[pt.L_total]
        assert pt.b.others == (_zero_result(),)  # the failed polish
    # B's own search: all restarts, warm-started from B's previous optimum.
    assert replace(first.b, others=()) == real_optimize(replace(problem, method="B"))
    assert replace(second.b, others=()) == real_optimize(
        replace(problem, method="B", exp=problem.exp.at_distance(320.0), x0=first.b.params)
    )
    assert first.b.flags == second.b.flags == ()
    assert len(first.b.restarts) == len(second.b.restarts) == problem.restarts


def test_scan_runs_method_b_search_where_method_a_finds_no_source(monkeypatch):
    real_optimize = optimizer.optimize
    calls = []

    def a_finds_nothing(problem):
        calls.append((problem.method, problem.restarts, problem.x0))
        return _zero_result() if problem.method == "A" else real_optimize(problem)

    evaluations = _count_evaluations_per_distance(monkeypatch)
    monkeypatch.setattr(optimizer, "optimize", a_finds_nothing)
    problem = _small_problem()
    pt, = scan(problem, [300.0])
    assert pt.a.evaluations + pt.b.evaluations == evaluations[300.0]
    assert pt.b == real_optimize(replace(problem, method="B"))
    assert len(pt.b.restarts) == problem.restarts
    # No polish of A's missing optimum; then A is retried from B's optimum.
    assert calls == [("A", 2, problem.x0), ("B", 2, problem.x0), ("A", 2, pt.b.params)]
    assert pt.a.flags == ("zero-rate-box",)
    # B is the point's own b, not one of A's others; the chain's A is.
    assert pt.a.others == (_zero_result(),)


def _spent(evaluations: int, params=None) -> optimizer.OptimizeResult:
    """A search result that made ``evaluations`` evaluations in one restart."""
    record = optimizer.RestartRecord((0.0,), evaluations, evaluations, 2, 0.0, params)
    return optimizer.OptimizeResult(params, 0.0, (record,))


@pytest.mark.parametrize("other_finds", [False, True])
def test_retry_from_other_counts_every_search_it_ran(monkeypatch, other_finds):
    src = SourceParams.symmetric(**GOLDEN_SRC)
    searched = []

    def fake_optimize(problem):
        searched.append((problem.method, problem.x0))
        if problem.method == "A":
            return _spent(20, src if other_finds else None)
        return _spent(300, src)

    monkeypatch.setattr(optimizer, "optimize", fake_optimize)
    problem = _small_problem(method="B", x0=None)
    cold = _spent(7)
    out = optimizer.retry_from_other(problem, cold)
    if other_finds:
        # Method B again, from method A's optimum; both earlier searches in others.
        assert searched == [("A", None), ("B", src)]
        assert out.others == (cold, _spent(20, src))
        assert out.evaluations == 7 + 20 + 300
        # A result with a source is returned as it is, with no search.
        assert optimizer.retry_from_other(problem, out) is out and len(searched) == 2
    else:
        # The caller's own result, with method A's fruitless search in others.
        assert searched == [("A", None)]
        assert replace(out, others=()) == cold
        assert out.others == (_spent(20),)
        assert out.evaluations == 7 + 20


def test_scan_ignores_problem_method():
    problem = _small_problem(restarts=1, max_evals=60)
    assert scan(problem, [300.0]) == scan(replace(problem, method="B"), [300.0])


def test_scan_warm_start_not_worse_than_cold():
    problem = _small_problem(restarts=2, max_evals=300)
    pts = scan(problem, [300.0, 320.0])
    for method in ("A", "B"):
        cold = optimize(
            _small_problem(restarts=2, max_evals=300, exp=table1_exp(320.0), method=method)
        )
        first, second = (getattr(pt, method.lower()) for pt in pts)
        assert second.rate >= cold.rate * 0.99
        # Re-optimized rates decay with distance.
        assert first.rate >= second.rate > 0.0


def test_scan_asymmetric_keeps_arm_offset():
    problem = _small_problem(
        exp=table1_exp(300.0, L_A=200.0, L_B=100.0), mode="asymmetric", restarts=1, max_evals=60
    )
    pts = scan(problem, [300.0])
    assert pts[0].L_total == 300.0
    # plob values correspond to the total distance regardless of the split
    assert pts[0].plob1 == pytest.approx(1.4427e-6, rel=1e-3)


def test_scan_asymmetric_positive_rates_over_range():
    # Arm offset of 100 km, warm-started chains at the default restart count:
    # both methods' rates stay positive across the mid-range distances.
    problem = OptimizationProblem(
        exp=table1_exp(250.0, L_A=175.0, L_B=75.0), mode="asymmetric", restarts=8,
        max_evals=2000, seed=3,
    )
    pts = scan(problem, [250.0, 300.0, 350.0])
    results = [out for pt in pts for out in (pt.a, pt.b)]
    assert all(out.rate > 0.0 for out in results)
    assert all(out.params is not None for out in results)


def test_scan_retries_a_zero_method_from_the_other_methods_optimum():
    # Cold, method B plateaus at 440 km (the plateau test pins it); the
    # scan re-optimizes it from method A's optimum there.
    pt, = scan(OptimizationProblem(exp=TABLE2_EXP.at_distance(440.0), seed=1), [440.0])
    assert pt.a.rate > 0.0
    assert pt.b.rate >= 0.95 * 3.26e-8  # published Table II rate


def test_asymmetric_scan_keeps_its_method_b_rates():
    # The scan of the asymmetric benchmark config: default hardware on
    # 150/100 km arms, seed 1.  Frozen R_B from before method B polished
    # method A's optimum.
    problem = OptimizationProblem(
        exp=table1_exp(250.0, L_A=150.0, L_B=100.0), mode="asymmetric", seed=1
    )
    frozen = {250.0: 7.72841586e-06, 300.0: 2.1789544e-06}
    for pt in scan(problem, list(frozen)):
        assert pt.b.rate >= 0.995 * frozen[pt.L_total]


def test_import_loads_no_scipy():
    # Nor numpy, nor a process pool's modules: restarts run in the calling
    # process.
    roots = ("scipy", "numpy", "multiprocessing", "concurrent.futures")
    code = ("import sys, snskit; "
            f"print(sorted(m for m in sys.modules if m.startswith({roots!r})))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# Modules a search must not load: the restart starts come from an in-package
# PCG64, not numpy.random, which would bring hashlib and secrets with it, the
# simplex sorts in Python, and an approx evaluation needs neither scipy nor
# numpy.
_SEARCH_FREE_MODULES = (
    "numpy", "scipy", "scipy.optimize", "numpy.random", "numpy.polynomial", "hashlib", "secrets",
)


def test_optimize_and_cli_scan_load_no_scipy_optimize(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "exp.p_d = 1.0e-8\nexp.e_d = 0.03\nexp.eta_d = 0.30\nexp.f = 1.1\n"
        "exp.alpha_f = 0.2\nexp.N = 1.0e12\nexp.L_A = 150\nexp.L_B = 150\n"
        "opt.distances = 300\nopt.restarts = 2\nopt.max_evals = 30\n",
        encoding="utf-8",
    )
    csv = tmp_path / "scan.csv"
    argv = ["scan", "--config", str(cfg), "--out", str(csv)]
    code = (
        "import sys, snskit\n"
        "from snskit import cli\n"
        "from snskit.optimizer import OptimizationProblem, optimize\n"
        "from snskit.tables import TABLE2_EXP\n"
        "exp = TABLE2_EXP.at_distance(300.0)\n"
        "optimize(OptimizationProblem(exp=exp, restarts=2, max_evals=30))\n"
        f"assert cli.main({argv!r}) == 0\n"
        f"print(sorted(set({_SEARCH_FREE_MODULES!r}) & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip() == "[]"
    assert csv.read_text().count("\n") == 2  # header and one row


# Prepended to a fresh interpreter's code: a meta-path finder that refuses
# every numpy and scipy module, as in an install without either library.
_REFUSE_NUMPY_AND_SCIPY = (
    "import sys\n"
    "class Refuse:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.partition('.')[0] in ('numpy', 'scipy'):\n"
    "            raise ImportError(f'{name} is refused')\n"
    "sys.meta_path.insert(0, Refuse())\n"
)


def test_tables_and_an_exact_evaluation_run_without_numpy_or_scipy():
    golden = Path(__file__).resolve().parent / "data" / "tables_seed1.txt"
    code = _REFUSE_NUMPY_AND_SCIPY + (
        "import math\n"
        "from snskit import cli\n"
        "from snskit.channel import SourceParams\n"
        "from snskit.keyrate import evaluate\n"
        "from snskit.tables import TABLE2_EXP\n"
        "assert cli.main(['tables', '--seed', '1']) == 0\n"
        f"src = SourceParams.symmetric(**{GOLDEN_SRC!r})\n"
        "report = evaluate(TABLE2_EXP.at_distance(300.0), src, method='B', mode='exact')\n"
        "assert 0.0 < report.R < math.inf and report.flags == (), report\n"
        "assert not [m for m in sys.modules if m.partition('.')[0] in ('numpy', 'scipy')]\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                         timeout=120)
    assert out.stdout == golden.read_bytes()


# Seeds for the PCG64 port: small ones, and ones of two to seven 32-bit words.
_PCG_SEEDS = [*range(60), 2**32 + 5, 2**64, 2**70 + 3, 2**128 + 7, 2**200 + 11, 123456789]


@pytest.mark.parametrize("dim", [7, 13])
def test_pcg64_port_draws_numpy_default_rng_uniform_bit_for_bit(dim):
    import numpy as np

    for seed in _PCG_SEEDS:
        port, oracle = optimizer._Pcg64(seed), np.random.default_rng(seed)
        for draw in range(4):  # successive draws continue one stream
            expected = oracle.uniform(-2.0, 2.0, size=dim).tolist()
            assert port.uniform(-2.0, 2.0, dim) == expected, (seed, draw)


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
@pytest.mark.parametrize("warm", [False, True])
def test_starts_are_numpys_restart_draws(mode, warm):
    import numpy as np

    problem = _small_problem(mode=mode, restarts=8, seed=2**70 + 3,
                             x0=SourceParams.symmetric(**GOLDEN_SRC) if warm else None)
    space = _Space(problem)
    rng = np.random.default_rng(problem.seed)
    expected = [space.encode(problem.x0) if warm else space.default_start()]
    expected += [rng.uniform(-2.0, 2.0, size=space.dim).tolist() for _ in range(7)]
    assert optimizer._starts(problem) == expected


@pytest.mark.parametrize("seed", [-1, 2.0, 1.5, True, "1", None])
def test_problem_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
        _small_problem(seed=seed)


@pytest.mark.parametrize(
    "field,value",
    [("restarts", 2.5), ("restarts", 2.0), ("restarts", True), ("restarts", 0),
     ("max_evals", 10.5), ("max_evals", "10"), ("max_evals", -1)],
)
def test_problem_rejects_counts_that_are_not_positive_integers(field, value):
    # A float restarts failed in range() inside optimize; max_evals = 10.5 ran
    # as a cap of 11.
    with pytest.raises(ValueError, match=f"{field} must be a positive integer, got {value!r}"):
        _small_problem(**{field: value})


def test_problem_accepts_numpy_integer_counts():
    import numpy as np

    problem = _small_problem(restarts=np.int64(1), max_evals=np.int32(5))
    assert len(optimize(problem).restarts) == 1


@pytest.mark.parametrize("field,value", [("p_z_b", 0.9), ("mu1_b", 0.05), ("mu_z_b", 0.3)])
def test_symmetric_search_rejects_a_one_sided_source(field, value):
    src = replace(SourceParams.symmetric(**GOLDEN_SRC), **{field: value})
    with pytest.raises(ValueError, match=f"symmetric source, but {field} = {value} differs"):
        optimize(_small_problem(x0=src))
    # An asymmetric search takes it as a warm start.
    assert optimize(_small_problem(mode="asymmetric", x0=src, restarts=1, max_evals=5)).restarts
