"""Derivative-free search for the source parameters that maximize the rate.

The search runs a reflection/expansion/contraction simplex in a transformed
space: probabilities move along a logit-mapped box, intensities along a
log-mapped box, and the two ordering constraints (p0 + p1 <= 1, mu1 < mu2)
hold by construction because p1 and mu1 are parameterized as fractions of
their headroom.  In asymmetric mode the second party's mu1 is eliminated
through the source constraint, so every probed point satisfies it exactly.

Each optimization draws a seeded set of restart points, runs the simplex
from each, and keeps the best evaluation ever made, which makes results
deterministic per seed and independent of how restarts are scheduled.
Each restart reports one compact record, not its evaluations.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .budget import SecurityBudget, security_budget
from .channel import ExperimentalParams, SourceParams
from .keyrate import evaluate, plob_bounds

__all__ = [
    "OptimizationProblem",
    "OptimizeResult",
    "RestartRecord",
    "ScanPoint",
    "optimize",
    "scan",
]

_SIMPLEX_STEP = 0.25  # initial simplex edge in transformed coordinates
_XATOL = 1e-6  # simplex diameter at which a restart stops

# A mid-band starting point that lands in the positive-rate basin across the
# distances of interest; restarts explore around it.
_DEFAULT_GUESS = {
    "p_z": 0.7, "eps": 0.25, "p0": 0.6, "p1": 0.3,
    "mu1": 0.05, "mu2": 0.4, "mu_z": 0.4,
}


@dataclass(frozen=True)
class OptimizationProblem:
    """One optimization instance.

    mode         "symmetric" ties both parties' sources; "asymmetric" frees
                 them, minus the constraint-eliminated mu1_b
    method       phase-error estimator passed through to the evaluation
    zigzag_mode  "approx" or "exact" pairing-stage accounting
    max_evals    evaluation cap per restart
    x0           optional warm-start source vector
    """

    exp: ExperimentalParams
    mode: str = "symmetric"
    method: str = "A"
    zigzag_mode: str = "approx"
    security: SecurityBudget | None = None
    restarts: int = 8
    max_evals: int = 5000
    seed: int = 0
    x0: SourceParams | None = None
    mu_lo: float = 1e-4
    mu_hi: float = 1.0
    p_lo: float = 1e-4
    p_hi: float = 1.0 - 1e-4

    def __post_init__(self) -> None:
        if self.mode not in ("symmetric", "asymmetric"):
            raise ValueError(f"mode must be 'symmetric' or 'asymmetric', got {self.mode!r}")
        if self.restarts < 1 or self.max_evals < 1:
            raise ValueError("restarts and max_evals must be positive")
        if not (0.0 < self.mu_lo < self.mu_hi):
            raise ValueError("intensity box must satisfy 0 < mu_lo < mu_hi")
        if not (0.0 < self.p_lo < self.p_hi < 1.0):
            raise ValueError("probability box must satisfy 0 < p_lo < p_hi < 1")


@dataclass(frozen=True)
class RestartRecord:
    """What one simplex restart did.

    start        starting point in the transformed search coordinates
    nfev         objective calls scipy counted, infeasible corners included
    evaluations  key-rate evaluations made (feasible points only)
    status       scipy's exit status (0 converged, 1 evaluation cap, 2 iteration cap)
    rate         best rate the restart evaluated (0.0 if none was positive)
    params       source of that rate, or None
    """

    start: tuple[float, ...]
    nfev: int
    evaluations: int
    status: int
    rate: float
    params: SourceParams | None


@dataclass(frozen=True)
class OptimizeResult:
    params: SourceParams | None
    rate: float
    restarts: tuple[RestartRecord, ...]
    evaluations: int
    flags: tuple[str, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class ScanPoint:
    L_total: float
    rate: float
    plob1: float
    plob2: float
    params: SourceParams | None


def _expit(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _logit(q: float) -> float:
    q = min(max(q, 1e-12), 1.0 - 1e-12)
    return math.log(q / (1.0 - q))


class _Space:
    """Bijection between the search vector and SourceParams."""

    def __init__(self, problem: OptimizationProblem):
        self.problem = problem
        self.dim = 7 if problem.mode == "symmetric" else 13

    def _p(self, t: float) -> float:
        pr = self.problem
        return pr.p_lo + (pr.p_hi - pr.p_lo) * _expit(t)

    def _t_of_p(self, p: float) -> float:
        pr = self.problem
        return _logit((p - pr.p_lo) / (pr.p_hi - pr.p_lo))

    def _mu(self, t: float) -> float:
        pr = self.problem
        return pr.mu_lo * (pr.mu_hi / pr.mu_lo) ** _expit(t)

    def _t_of_mu(self, mu: float) -> float:
        pr = self.problem
        return _logit(math.log(mu / pr.mu_lo) / math.log(pr.mu_hi / pr.mu_lo))

    def _side(self, t: "list[float]") -> tuple[float, ...]:
        # (p_z, eps, p0, p1, mu1, mu2, mu_z) from 7 coordinates
        p_z, eps, p0 = self._p(t[0]), self._p(t[1]), self._p(t[2])
        p1 = self._p(t[3]) * (1.0 - p0)
        mu2 = self._mu(t[5])
        mu1 = self._p(t[4]) * mu2
        mu_z = self._mu(t[6])
        return p_z, eps, p0, p1, mu1, mu2, mu_z

    def decode(self, t) -> SourceParams | None:
        t = list(t)
        a = self._side(t[:7])
        if self.problem.mode == "symmetric":
            return SourceParams.symmetric(*a)
        p_z_b, eps_b, p0_b = self._p(t[7]), self._p(t[8]), self._p(t[9])
        p1_b = self._p(t[10]) * (1.0 - p0_b)
        mu2_b = self._mu(t[11])
        mu_z_b = self._mu(t[12])
        p_z, eps, p0, p1, mu1, mu2, mu_z = a
        # Constraint elimination: the residual is linear in 1/mu1_b, so the
        # feasible mu1_b follows in closed form.
        ratio = (eps * (1.0 - eps_b) * mu_z * math.exp(-mu_z)) / (
            eps_b * (1.0 - eps) * mu_z_b * math.exp(-mu_z_b)
        )
        mu1_b = mu1 / ratio
        if not (0.0 < mu1_b < mu2_b):
            return None
        try:
            return SourceParams(
                p_z, eps, p0, p1, mu1, mu2, mu_z,
                p_z_b, eps_b, p0_b, p1_b, mu1_b, mu2_b, mu_z_b,
            )
        except ValueError:
            return None

    def encode(self, src: SourceParams) -> list[float]:
        t = [
            self._t_of_p(src.p_z),
            self._t_of_p(src.eps),
            self._t_of_p(src.p0),
            self._t_of_p(min(src.p1 / (1.0 - src.p0), self.problem.p_hi)),
            self._t_of_p(min(src.mu1 / src.mu2, self.problem.p_hi)),
            self._t_of_mu(src.mu2),
            self._t_of_mu(src.mu_z),
        ]
        if self.problem.mode == "asymmetric":
            t += [
                self._t_of_p(src.p_z_b),
                self._t_of_p(src.eps_b),
                self._t_of_p(src.p0_b),
                self._t_of_p(min(src.p1_b / (1.0 - src.p0_b), self.problem.p_hi)),
                self._t_of_mu(src.mu2_b),
                self._t_of_mu(src.mu_z_b),
            ]
        return t

    def default_start(self) -> list[float]:
        g = _DEFAULT_GUESS
        start = SourceParams.symmetric(**g)
        t = self.encode(start)
        if self.problem.mode == "symmetric":
            return t
        # Second party's coordinates: copy the mid-band guess, but scale the
        # intensities by the arm transmittance ratio so the arriving light
        # is roughly balanced; that puts the start inside the feasible basin
        # for strongly unequal arms.
        exp = self.problem.exp
        ratio = 10.0 ** (-exp.alpha_f * (exp.L_A - exp.L_B) / 10.0)
        lo, hi = self.problem.mu_lo, self.problem.mu_hi
        mu2_b = min(max(g["mu2"] * ratio, lo * 1.01), hi * 0.99)
        mu_z_b = min(max(g["mu_z"] * ratio, lo * 1.01), hi * 0.99)
        t[-2] = self._t_of_mu(mu2_b)
        t[-1] = self._t_of_mu(mu_z_b)
        return t


def _better(rate: float, src: SourceParams, best_rate: float,
            best_src: SourceParams | None) -> bool:
    """Higher rate wins; equal positive rates go to the smaller parameter vector."""
    return rate > best_rate or (
        rate == best_rate and best_src is not None and rate > 0.0
        and _key(src) < _key(best_src)
    )


def _run_restart(problem: OptimizationProblem, start: list[float]) -> RestartRecord:
    """One simplex descent, keeping only its running best."""
    from scipy.optimize import minimize  # deferred: import snskit skips scipy.optimize

    space = _Space(problem)
    budget = problem.security if problem.security is not None else security_budget()
    plob1, _ = plob_bounds(problem.exp.L_total, problem.exp.alpha_f, problem.exp.eta_d)
    scale = plob1 if plob1 > 0 else 1.0
    evaluations = 0
    best_src: SourceParams | None = None
    best_rate = 0.0

    def objective(t: np.ndarray) -> float:
        nonlocal evaluations, best_src, best_rate
        src = space.decode(t)
        if src is None:
            return 1.0  # infeasible corner; any rate beats it
        rate = evaluate(
            problem.exp, src, method=problem.method,
            mode=problem.zigzag_mode, budget=budget,
        ).R
        evaluations += 1
        if _better(rate, src, best_rate, best_src):
            best_src, best_rate = src, rate
        return -rate / scale

    x0 = np.asarray(start, dtype=float)
    simplex = np.vstack([x0] + [x0 + _SIMPLEX_STEP * e for e in np.eye(len(x0))])
    res = minimize(
        objective, x0, method="Nelder-Mead",
        options={
            "maxfev": problem.max_evals,
            "xatol": _XATOL,
            "fatol": 1e-10,
            "initial_simplex": simplex,
        },
    )
    return RestartRecord(
        start=tuple(start), nfev=int(res.nfev), evaluations=evaluations,
        status=int(res.status), rate=best_rate, params=best_src,
    )


def _starts(problem: OptimizationProblem) -> list[list[float]]:
    space = _Space(problem)
    rng = np.random.default_rng(problem.seed)
    starts = [space.encode(problem.x0) if problem.x0 is not None else space.default_start()]
    for _ in range(problem.restarts - 1):
        starts.append(rng.uniform(-2.0, 2.0, size=space.dim).tolist())
    return starts


def _worker_count() -> int:
    raw = os.environ.get("SNSKIT_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def optimize(problem: OptimizationProblem) -> OptimizeResult:
    """Maximize the key rate over the free source parameters.

    Deterministic per seed: the restart points are drawn from a seeded
    generator and the result is the best evaluation over all restarts, with
    ties broken toward the lexicographically smaller parameter vector.
    SNSKIT_THREADS > 1 runs restarts in worker processes; the merged result
    does not depend on the worker count.
    """
    starts = _starts(problem)
    workers = _worker_count()
    if workers > 1 and len(starts) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = tuple(pool.map(_run_restart, [problem] * len(starts), starts))
    else:
        records = tuple(_run_restart(problem, start) for start in starts)
    evaluations = sum(rec.evaluations for rec in records)
    best_src: SourceParams | None = None
    best_rate = 0.0
    for rec in records:
        if rec.params is not None and _better(rec.rate, rec.params, best_rate, best_src):
            best_src, best_rate = rec.params, rec.rate
    if best_src is None:
        return OptimizeResult(None, 0.0, records, evaluations, ("zero-rate-box",))
    return OptimizeResult(best_src, best_rate, records, evaluations)


def _key(src: SourceParams) -> tuple:
    return (
        src.p_z, src.eps, src.p0, src.p1, src.mu1, src.mu2, src.mu_z,
        src.p_z_b, src.eps_b, src.p0_b, src.p1_b, src.mu1_b, src.mu2_b, src.mu_z_b,
    )


def scan(
    problem: OptimizationProblem,
    distances: "list[float]",
    delta_L: float = 0.0,
) -> list[ScanPoint]:
    """Optimize at each total distance, warm-starting from the previous one.

    ``delta_L`` keeps L_A - L_B fixed across the scan (asymmetric setups).
    Distances run in the given order so each point can reuse the previous
    optimum as one of its restarts.
    """
    points: list[ScanPoint] = []
    warm = problem.x0
    for L in distances:
        exp_L = problem.exp.at_distance(L, delta_L)
        sub = replace(problem, exp=exp_L, x0=warm)
        out = optimize(sub)
        plob1, plob2 = plob_bounds(exp_L.L_total, exp_L.alpha_f, exp_L.eta_d)
        points.append(ScanPoint(L, out.rate, plob1, plob2, out.params))
        if out.params is not None and out.rate > 0.0:
            warm = out.params
    return points
