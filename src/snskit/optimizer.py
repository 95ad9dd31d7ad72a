"""Derivative-free search for the source parameters that maximize the rate.

The search runs a Nelder-Mead simplex (Nelder & Mead, Comput. J. 7, 308
(1965)) in a transformed space: probabilities move along a logit-mapped
box, intensities along a log-mapped box, and the two ordering constraints
(p0 + p1 <= 1, mu1 < mu2) hold by construction because p1 and mu1 are
parameterized as fractions of their headroom.  In asymmetric mode the
second party's mu1 is eliminated through the source constraint, so every
probed point satisfies it exactly.

Each optimization draws a seeded set of restart points, runs the simplex
from each, and keeps the best evaluation ever made, which makes results
deterministic per seed.  Each restart reports one compact record, not its
evaluations.  The starts are the draws of numpy's
``default_rng(seed).uniform(-2, 2, size=dim)``, reproduced bit for bit by a
standard-library port of its SeedSequence and PCG64 (``_Pcg64``), so a
search needs no numpy.

The simplex minimizes ``-ln R``.  It only compares objective values, so
any strictly decreasing transform of R makes the same moves; this one makes
the stop scale-free, with no tolerance on position.  The search runs in two
phases.  Every restart first stops once the rates at its vertices agree to
``_COARSE_RTOL`` (1e-3) relative.  Then only the leading restart, the best
one that converged with a positive rate, resumes from its saved simplex
until its rates agree to ``_RTOL`` (1e-5).  No simplex move reads the
tolerance, so the leader evaluates exactly the points one uninterrupted
run to ``_RTOL`` would; the other restarts keep their coarse records
(``status == 2``), which is where the evaluations are saved.
R = 0 and infeasible asymmetric corners share one value above every
positive rate's.  So a restart whose whole initial simplex (dim + 1
objective calls, infeasible corners included) reads no positive rate meets
the stop right there: on that flat plateau the simplex has no direction to
descend.  Its record has ``status == -1``, which ``plateau`` reads.

The simplex is a small in-package loop on lists of floats that makes the
moves of scipy's ``minimize(method="Nelder-Mead")``.  It sorts its vertices
in Python, and tied values go to the lexicographically smaller vertex, so a
search gives the same result on every CPU and imports neither numpy nor
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import reduce
from numbers import Integral
from operator import add

from .budget import SecurityBudget
from .channel import _MAX_INTENSITY, ExperimentalParams, SourceParams, constraint_ratio
from .keyrate import evaluate, plob_bounds
from .zigzag import _check_mode

__all__ = [
    "OptimizationProblem",
    "OptimizeResult",
    "RestartRecord",
    "ScanPoint",
    "optimize",
    "retry_from_other",
    "scan",
]

_SIMPLEX_STEP = 0.25  # initial simplex edge in transformed coordinates
_RESTART_SPAN = 2.0  # random restarts draw each coordinate uniformly from [-span, span]
_P_LO, _P_HI = 1e-4, 1.0 - 1e-4  # the search box (see OptimizationProblem)
_MU_LO, _MU_HI = 1e-4, _MAX_INTENSITY  # the box ends where SourceParams does
_COARSE_RTOL = 1e-3  # relative spread of the simplex's rates at which every restart stops
_RTOL = 1e-5  # ... and at which the leading restart, resumed, stops
# Objective of R = 0 and of infeasible corners: above -ln R of any positive
# double (at most 745), so every positive rate ranks above them.
_NO_RATE = 1e3

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
    method       "A" or "B", the phase-error estimator passed to the evaluation
    zigzag_mode  "approx" or "exact" pairing-stage accounting; approx mode
                 needs the default xi_tau and xi_tau_tilde of ``security``
    restarts     starts per ``optimize``: ``x0`` (or a default guess), then
                 restarts - 1 seeded random ones.  A ``scan`` gives method B
                 one restart, from method A's optimum, and all of them only
                 where A or that restart found no source
    max_evals    cap on objective calls per restart, infeasible corners
                 included; the leader's coarse and resumed phases share it
    seed         non-negative integer seeding the random restart starts
    x0           optional warm-start source vector; a symmetric search
                 needs a symmetric one

    Every search runs in one fixed box: probabilities, p1 / (1 - p0) and
    mu1 / mu2 lie in [1e-4, 1 - 1e-4], intensities in [1e-4, 1].
    """

    exp: ExperimentalParams
    mode: str = "symmetric"
    method: str = "A"
    zigzag_mode: str = "approx"
    security: SecurityBudget = SecurityBudget()
    restarts: int = 8
    max_evals: int = 5000
    seed: int = 0
    x0: SourceParams | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("symmetric", "asymmetric"):
            raise ValueError(f"mode must be 'symmetric' or 'asymmetric', got {self.mode!r}")
        if self.method not in ("A", "B"):
            raise ValueError(f"method must be 'A' or 'B', got {self.method!r}")
        if self.zigzag_mode not in ("approx", "exact"):
            raise ValueError(f"zigzag_mode must be 'approx' or 'exact', got {self.zigzag_mode!r}")
        _check_mode(self.zigzag_mode, self.security)
        for name in ("restarts", "max_evals"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class RestartRecord:
    """What one simplex restart did.

    start        starting point in the transformed search coordinates
    nfev         objective calls the simplex made, infeasible corners
                 included (for the leader, over both phases)
    evaluations  key-rate evaluations made (feasible points only; for the
                 leader, over both phases)
    status       0 converged (the rates at all vertices agree to 1e-5
                 relative; only the leader), 1 evaluation cap, 2 stopped
                 where its rates agree to 1e-3 relative and not refined
                 (a restart other than the leader), or -1 on a plateau
    rate         best rate the restart evaluated (0.0 if none was positive)
    params       source of that rate, or None
    """

    start: tuple[float, ...]
    nfev: int
    evaluations: int
    status: int
    rate: float
    params: SourceParams | None

    @property
    def plateau(self) -> bool:
        """No point of the initial simplex had a positive rate, so the flat
        simplex met the stop after dim + 1 calls (status -1, rate 0, no params)."""
        return self.status == -1


@dataclass(frozen=True)
class OptimizeResult:
    """The best evaluation of one ``optimize`` over all its restarts (params
    None and rate 0.0 when none was positive), and one record per restart."""

    params: SourceParams | None
    rate: float
    restarts: tuple[RestartRecord, ...]

    @property
    def evaluations(self) -> int:
        """Key-rate evaluations made over all restarts."""
        return sum(rec.evaluations for rec in self.restarts)

    @property
    def flags(self) -> tuple[str, ...]:
        """("zero-rate-box",) when no restart found a positive rate, else ()."""
        return ("zero-rate-box",) if self.params is None else ()


@dataclass(frozen=True)
class ScanPoint:
    """Method A's (Chernoff) and method B's (McDiarmid) ``optimize`` results
    at one total distance of a ``scan``, and the repeater-less bounds there."""

    L_total: float
    a: OptimizeResult
    b: OptimizeResult
    plob1: float
    plob2: float


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
        return _P_LO + (_P_HI - _P_LO) * _expit(t)

    def _t_of_p(self, p: float) -> float:
        return _logit((p - _P_LO) / (_P_HI - _P_LO))

    def _mu(self, t: float) -> float:
        return _MU_LO * (_MU_HI / _MU_LO) ** _expit(t)

    def _t_of_mu(self, mu: float) -> float:
        return _logit(math.log(mu / _MU_LO) / math.log(_MU_HI / _MU_LO))

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
        mu1_b = mu1 / constraint_ratio(eps, eps_b, mu_z, mu_z_b)
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
        if self.problem.mode == "symmetric" and not src.is_symmetric():
            name = next(f.name for f in fields(src)
                        if f.name.endswith("_b") and getattr(src, f.name) != getattr(src, f.name[:-2]))
            raise ValueError(
                f"a symmetric search needs a symmetric source, but {name} = "
                f"{getattr(src, name)!r} differs from {name[:-2]} = {getattr(src, name[:-2])!r}"
            )
        t = [
            self._t_of_p(src.p_z),
            self._t_of_p(src.eps),
            self._t_of_p(src.p0),
            self._t_of_p(min(src.p1 / (1.0 - src.p0), _P_HI)),
            self._t_of_p(min(src.mu1 / src.mu2, _P_HI)),
            self._t_of_mu(src.mu2),
            self._t_of_mu(src.mu_z),
        ]
        if self.problem.mode == "asymmetric":
            t += [
                self._t_of_p(src.p_z_b),
                self._t_of_p(src.eps_b),
                self._t_of_p(src.p0_b),
                self._t_of_p(min(src.p1_b / (1.0 - src.p0_b), _P_HI)),
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
        mu2_b = min(max(g["mu2"] * ratio, _MU_LO * 1.01), _MU_HI * 0.99)
        mu_z_b = min(max(g["mu_z"] * ratio, _MU_LO * 1.01), _MU_HI * 0.99)
        t[-2] = self._t_of_mu(mu2_b)
        t[-1] = self._t_of_mu(mu_z_b)
        return t


def _better(rate: float, src: SourceParams, best_rate: float,
            best_src: SourceParams | None) -> bool:
    """Higher rate wins; equal positive rates go to the smaller parameter vector."""
    return rate > best_rate or (
        rate == best_rate and best_src is not None and rate > 0.0
        and src < best_src
    )


class _Capped(Exception):
    """The simplex asked for an objective call beyond its cap."""


@dataclass
class _Simplex:
    """A simplex between steps: its vertices sorted by objective value, and
    the objective calls made so far.  ``_nelder_mead`` steps it in place, so
    a later call resumes at the next step without re-evaluating or
    re-sorting."""

    vertices: "list[list[float]]"
    values: "list[float]"
    nfev: int = 0

    def call(self, objective, x: "list[float]", max_evals: int) -> float:
        if self.nfev >= max_evals:
            raise _Capped
        self.nfev += 1
        return objective(x)

    def sort(self) -> None:
        # Tied values go to the lexicographically smaller vertex, a total
        # order that holds on every CPU and Python build.
        values, vertices = self.values, self.vertices
        order = sorted(range(len(values)), key=lambda i: (values[i], vertices[i]))
        vertices[:] = [vertices[i] for i in order]
        values[:] = [values[i] for i in order]


def _initial_simplex(objective, vertices: "list[list[float]]", max_evals: int) -> _Simplex:
    """Evaluate ``vertices`` (dim + 1 of them) up to the cap and sort them."""
    # Copies only the outer list: steps replace vertices, never edit one.
    simplex = _Simplex(list(vertices), [math.inf] * len(vertices))
    try:
        for k, x in enumerate(simplex.vertices):
            simplex.values[k] = simplex.call(objective, x, max_evals)
    except _Capped:
        pass
    simplex.sort()
    return simplex


def _nelder_mead(objective, simplex: _Simplex, max_evals: int, fatol: float) -> int:
    """Minimize ``objective``, stepping ``simplex`` in place.

    Makes scipy's Nelder-Mead moves (``_minimize_neldermead``, default
    coefficients: reflect 1, expand 2, contract 1/2, shrink 1/2) in the same
    floating-point operation order and sorts where scipy does, so it
    evaluates the same points bit for bit wherever no two vertices tie.
    Tied values go to the lexicographically smaller vertex, where scipy's
    order comes from numpy's argsort and may differ.  Stops when the
    objective values at all vertices agree to ``fatol`` (status 0), or when
    the simplex has made ``max_evals`` calls in all (status 1), abandoning a
    step the cap cuts short.  Returns the status.  No move reads ``fatol``,
    only the stop test before each step, so resuming a simplex stopped at a
    looser ``fatol`` evaluates exactly the points one run at the tighter one
    would.
    """
    n = len(simplex.vertices) - 1
    sim, fsim = simplex.vertices, simplex.values

    def f(x: "list[float]") -> float:
        return simplex.call(objective, x, max_evals)

    while simplex.nfev < max_evals:
        if fsim[-1] - fsim[0] <= fatol:  # sorted, so the widest spread
            break
        try:
            # Each coordinate summed left to right; sum() would compensate.
            c = [reduce(add, col) / n for col in zip(*sim[:n])]
            w = sim[-1]
            xr = [2.0 * a - b for a, b in zip(c, w)]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = [3.0 * a - 2.0 * b for a, b in zip(c, w)]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = [1.5 * a - 0.5 * b for a, b in zip(c, w)]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = [0.5 * a + 0.5 * b for a, b in zip(c, w)]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    v0 = sim[0]
                    for j in range(1, n + 1):
                        sim[j] = [a + 0.5 * (b - a) for a, b in zip(v0, sim[j])]
                        fsim[j] = f(sim[j])
        except _Capped:
            pass
        simplex.sort()
    return int(simplex.nfev >= max_evals)


class _Objective:
    """-ln R at a search vector, keeping the count and the best of its evaluations."""

    def __init__(self, problem: OptimizationProblem, evaluations: int = 0,
                 rate: float = 0.0, params: SourceParams | None = None):
        self.problem = problem
        self.space = _Space(problem)
        self.evaluations, self.rate, self.params = evaluations, rate, params

    def __call__(self, t: "list[float]") -> float:
        src = self.space.decode(t)
        if src is None:
            return _NO_RATE  # infeasible corner
        problem = self.problem
        rate = evaluate(
            problem.exp, src, method=problem.method,
            mode=problem.zigzag_mode, budget=problem.security,
        ).R
        self.evaluations += 1
        if _better(rate, src, self.rate, self.params):
            self.params, self.rate = src, rate
        return -math.log(rate) if rate > 0.0 else _NO_RATE


def _run_restart(problem: OptimizationProblem,
                 start: "list[float]") -> tuple[RestartRecord, _Simplex]:
    """One simplex descent on -ln R to ``_COARSE_RTOL``: its record and simplex."""
    objective = _Objective(problem)
    vertices = [list(start)]
    for k in range(len(start)):
        vertex = list(start)
        vertex[k] += _SIMPLEX_STEP
        vertices.append(vertex)
    simplex = _initial_simplex(objective, vertices, problem.max_evals)
    status = _nelder_mead(objective, simplex, problem.max_evals, _COARSE_RTOL)
    if status == 0:
        # Converged; with no positive rate the flat initial simplex met the stop.
        status = -1 if objective.params is None else 2
    record = RestartRecord(
        start=tuple(start), nfev=simplex.nfev, evaluations=objective.evaluations,
        status=status, rate=objective.rate, params=objective.params,
    )
    return record, simplex


def _refine(problem: OptimizationProblem, record: RestartRecord,
            simplex: _Simplex) -> RestartRecord:
    """Resume a restart stopped at ``_COARSE_RTOL`` until it stops at ``_RTOL``."""
    objective = _Objective(problem, record.evaluations, record.rate, record.params)
    status = _nelder_mead(objective, simplex, problem.max_evals, _RTOL)
    return replace(
        record, nfev=simplex.nfev, evaluations=objective.evaluations,
        status=status, rate=objective.rate, params=objective.params,
    )


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# the 128-bit LCG multiplier of PCG64 (M. E. O'Neill, HMC-CS-2014-0905).
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_pool(seed: int) -> "list[int]":
    """The four-word entropy pool of numpy's ``SeedSequence(seed)``."""
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


class _Pcg64:
    """The PCG64 generator (XSL-RR output) of numpy's ``default_rng(seed)``:
    ``uniform`` draws the same doubles bit for bit, without ``numpy.random``."""

    def __init__(self, seed: int) -> None:
        pool = _seed_pool(int(seed))
        hash_const = _INIT_B
        half = []  # SeedSequence.generate_state(4, uint64), as 8 uint32 words
        for i in range(8):
            value = pool[i % 4] ^ hash_const
            hash_const = hash_const * _MULT_B & _MASK32
            value = value * hash_const & _MASK32
            half.append(value ^ value >> 16)
        words = [half[k] | half[k + 1] << 32 for k in range(0, 8, 2)]
        self.inc = (words[2] << 65 | words[3] << 1 | 1) & _MASK128
        self.state = (self.inc + (words[0] << 64 | words[1])) * _PCG_MULT + self.inc & _MASK128

    def next64(self) -> int:
        self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
        rot = self.state >> 122
        x = ((self.state >> 64) ^ self.state) & _MASK64
        return (x >> rot | x << (64 - rot)) & _MASK64

    def uniform(self, low: float, high: float, size: int) -> "list[float]":
        return [low + (high - low) * ((self.next64() >> 11) * 2.0 ** -53) for _ in range(size)]


def _starts(problem: OptimizationProblem) -> list[list[float]]:
    space = _Space(problem)
    rng = _Pcg64(problem.seed)
    starts = [space.encode(problem.x0) if problem.x0 is not None else space.default_start()]
    for _ in range(problem.restarts - 1):
        starts.append(rng.uniform(-_RESTART_SPAN, _RESTART_SPAN, space.dim))
    return starts


def _best(records: "list[RestartRecord]") -> int | None:
    """Index of the record whose rate and source win under ``_better``, or
    None when no record has a source."""
    best = None
    for i, rec in enumerate(records):
        if rec.params is not None and (
            best is None or _better(rec.rate, rec.params, records[best].rate, records[best].params)
        ):
            best = i
    return best


def optimize(problem: OptimizationProblem) -> OptimizeResult:
    """Maximize the key rate over the free source parameters.

    Deterministic per seed: the restart points are drawn from a seeded
    generator, bit for bit the draws of numpy's
    ``default_rng(seed).uniform``, and the result is the best evaluation
    over all restarts, with ties broken toward the lexicographically
    smaller parameter vector.  The simplex breaks ties between vertices
    the same way, toward the smaller search vector, so the result does not
    depend on the CPU or on any library's sort.
    A symmetric search rejects an ``x0`` whose two sides differ.
    """
    coarse = [_run_restart(problem, start) for start in _starts(problem)]
    records = [rec for rec, _ in coarse]
    # Only the best restart that converged with a source goes on to _RTOL.
    converged = [i for i, rec in enumerate(records) if rec.status == 2]
    if converged:
        lead = converged[_best([records[i] for i in converged])]
        records[lead] = _refine(problem, *coarse[lead])
    best = _best(records)
    if best is None:
        return OptimizeResult(None, 0.0, tuple(records))
    return OptimizeResult(records[best].params, records[best].rate, tuple(records))


def retry_from_other(problem: OptimizationProblem, result: OptimizeResult,
                     other: OptimizeResult | None = None) -> OptimizeResult:
    """``result`` of ``optimize(problem)`` if it found a source, else a new
    ``optimize(problem)`` from the other method's optimum (``other``, or a
    fresh search of the other method), or ``result`` when that has none.

    Both estimators share every count, so one's optimum starts the other in
    its positive-rate basin where its own starts plateau at R = 0.
    """
    if result.params is not None:
        return result
    if other is None:
        other = optimize(replace(problem, method="B" if problem.method == "A" else "A"))
    return result if other.params is None else optimize(replace(problem, x0=other.params))


def scan(problem: OptimizationProblem, distances: "list[float]") -> list[ScanPoint]:
    """Optimize both estimators at each total distance.

    Runs method A's chain over ``distances``: each point warm-starts from
    the previous optimum (the first from ``problem.x0``) and keeps the
    L_A - L_B of ``problem.exp``'s arms; ``problem.method`` is not read.
    Method B then runs one restart from A's optimum at each distance, and
    its own search (``problem.restarts`` restarts from its last optimum)
    only where A or that restart found no source, since B >= A does not
    hold at every source.  A zero A is retried from B's optimum.
    """
    exps = [problem.exp.at_distance(L) for L in distances]
    warm, chain = problem.x0, []
    for exp_L in exps:
        chain.append(optimize(replace(problem, method="A", exp=exp_L, x0=warm)))
        warm = chain[-1].params or warm
    warm, points = problem.x0, []
    for L, exp_L, a in zip(distances, exps, chain):
        at_L = replace(problem, method="B", exp=exp_L)
        b = a if a.params is None else optimize(replace(at_L, x0=a.params, restarts=1))
        if b.params is None:
            b = optimize(replace(at_L, x0=warm))
        warm = b.params or warm
        a = retry_from_other(replace(at_L, method="A"), a, b)
        points.append(ScanPoint(L, a, b, *plob_bounds(exp_L.L_total, exp_L.alpha_f, exp_L.eta_d)))
    return points
