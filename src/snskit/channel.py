"""Linear-optics channel and detection model producing "observed" statistics.

Both parties send phase-randomized coherent pulses to a middle measurement
station with two threshold detectors behind a beam splitter.  The model is
fully linear: per-detector click probabilities follow from Poisson statistics
of the arriving intensities plus independent dark counts, and misalignment
mixes a fraction ``e_d`` of each pulse into the wrong output port.

The simulator is deterministic by default: every count is the expected value
of its window, rounded to the nearest integer, which reproduces the smooth
published rate curves.  Passing a seed switches to binomial sampling around
the same expectations; the statistical property tests use that mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import i0

__all__ = [
    "ExperimentalParams",
    "SourceParams",
    "ObservedStats",
    "transmittance",
    "heralded_rate",
    "simulate_decoy_observables",
    "simulate_x1_error",
    "simulate_z_counts",
    "simulate_aopp_counts",
    "simulate",
]

# 64-point Gauss-Legendre rule; the slice integrand is entire, so this is
# converged to machine precision for any slice count >= 2.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL = tuple(zip(_GL_NODES.tolist(), _GL_WEIGHTS.tolist()))


@dataclass(frozen=True)
class ExperimentalParams:
    """Hardware and channel constants of one run.

    p_d       dark-count probability per pulse per detector
    e_d       misalignment error probability
    eta_d     detector efficiency
    f         error-correction inefficiency (>= 1)
    alpha_f   fiber loss in dB/km
    N         total number of pulse pairs sent
    L_A, L_B  arm lengths in km (sender to measurement station)
    M_slices  number of phase slices used for the X-window post-selection
    slice_mode  "average" evaluates the error rate averaged over the accepted
                slice; "ideal" evaluates it at perfect phase alignment
    """

    p_d: float
    e_d: float
    eta_d: float
    f: float
    alpha_f: float
    N: float
    L_A: float
    L_B: float
    M_slices: int = 16
    slice_mode: str = "average"

    def __post_init__(self) -> None:
        for name in ("p_d", "e_d", "eta_d"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        # Every comparison is written to be False for NaN, so NaN fails it.
        if not (1.0 <= self.f < math.inf):
            raise ValueError(f"f must be finite and >= 1, got {self.f}")
        if not (0.0 <= self.alpha_f < math.inf):
            raise ValueError(f"alpha_f must be finite and non-negative, got {self.alpha_f}")
        if not (1.0 <= self.N < math.inf):
            raise ValueError(f"N must be finite and >= 1, got {self.N}")
        if not (0.0 <= self.L_A < math.inf and 0.0 <= self.L_B < math.inf):
            raise ValueError(
                f"arm lengths must be finite and non-negative, got {self.L_A}, {self.L_B}"
            )
        if not (self.M_slices >= 1):
            raise ValueError(f"M_slices must be >= 1, got {self.M_slices}")
        if self.slice_mode not in ("average", "ideal"):
            raise ValueError(f"slice_mode must be 'average' or 'ideal', got {self.slice_mode!r}")

    @property
    def L_total(self) -> float:
        return self.L_A + self.L_B

    def at_distance(self, L_total: float, delta: float = 0.0) -> "ExperimentalParams":
        """Same hardware at a new total distance with L_A - L_B = delta."""
        la = 0.5 * (L_total + delta)
        lb = 0.5 * (L_total - delta)
        return replace(self, L_A=la, L_B=lb)


@dataclass(frozen=True)
class SourceParams:
    """Source settings of both parties; ``_b`` marks the second party (Bob).

    p_z    probability of choosing the signal window
    eps    probability of deciding to send in a signal window
    p0     probability of the vacuum source in a decoy window
    p1     probability of the weaker decoy intensity mu1
    mu1, mu2  decoy intensities (0 < mu1 < mu2)
    mu_z   signal intensity
    """

    p_z: float
    eps: float
    p0: float
    p1: float
    mu1: float
    mu2: float
    mu_z: float
    p_z_b: float
    eps_b: float
    p0_b: float
    p1_b: float
    mu1_b: float
    mu2_b: float
    mu_z_b: float

    def __post_init__(self) -> None:
        for name in ("p_z", "eps", "p0", "p1", "p_z_b", "eps_b", "p0_b", "p1_b"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {v}")
        if self.p0 + self.p1 > 1.0:
            raise ValueError(f"p0 + p1 must be <= 1, got {self.p0 + self.p1}")
        if self.p0_b + self.p1_b > 1.0:
            raise ValueError(f"p0_b + p1_b must be <= 1, got {self.p0_b + self.p1_b}")
        for lo, hi, pair in (
            (self.mu1, self.mu2, "mu1 < mu2"),
            (self.mu1_b, self.mu2_b, "mu1_b < mu2_b"),
        ):
            if not (0.0 < lo < hi < math.inf):
                raise ValueError(
                    f"intensities must satisfy 0 < {pair} < inf, got {lo}, {hi}"
                )
        if not (0.0 < self.mu_z < math.inf and 0.0 < self.mu_z_b < math.inf):
            raise ValueError(
                f"signal intensities must be finite and positive, got {self.mu_z}, {self.mu_z_b}"
            )

    @classmethod
    def symmetric(
        cls,
        p_z: float,
        eps: float,
        p0: float,
        p1: float,
        mu1: float,
        mu2: float,
        mu_z: float,
    ) -> "SourceParams":
        return cls(
            p_z, eps, p0, p1, mu1, mu2, mu_z,
            p_z, eps, p0, p1, mu1, mu2, mu_z,
        )

    def constraint_residual(self) -> float:
        """mu1/mu1_b minus the ratio the decoy analysis requires (0 when met)."""
        num = self.eps * (1.0 - self.eps_b) * self.mu_z * math.exp(-self.mu_z)
        den = self.eps_b * (1.0 - self.eps) * self.mu_z_b * math.exp(-self.mu_z_b)
        return self.mu1 / self.mu1_b - num / den

    def is_symmetric(self) -> bool:
        return (
            self.p_z == self.p_z_b
            and self.eps == self.eps_b
            and self.p0 == self.p0_b
            and self.p1 == self.p1_b
            and self.mu1 == self.mu1_b
            and self.mu2 == self.mu2_b
            and self.mu_z == self.mu_z_b
        )


@dataclass(frozen=True)
class ObservedStats:
    """Every simulated or measured quantity the estimators consume.

    Window labels are two letters, the first for Alice's source and the
    second for Bob's: o = vacuum, x = mu1, y = mu2.  ``N_*`` are pulse-pair
    counts, ``n_*`` one-detector heralded counts, ``S_*`` their ratios.
    """

    N_oo: float
    N_ox: float
    N_xo: float
    N_oy: float
    N_yo: float
    n_oo: int
    n_ox: int
    n_xo: int
    n_oy: int
    n_yo: int
    S_oo: float
    S_ox: float
    S_xo: float
    S_oy: float
    S_yo: float
    N_X1: float
    m_X1: int
    T_X1: float
    n_c0: int
    n_c1: int
    n_v: int
    n_d: int
    n_t: int
    n_g: float
    n_odd: float
    n_t_prime: float
    E_prime: float
    flags: tuple[str, ...] = field(default_factory=tuple)


def transmittance(exp: ExperimentalParams) -> tuple[float, float]:
    """Source-to-click transmittance of each arm, detector efficiency included."""
    eta_a = exp.eta_d * 10.0 ** (-exp.alpha_f * exp.L_A / 10.0)
    eta_b = exp.eta_d * 10.0 ** (-exp.alpha_f * exp.L_B / 10.0)
    return eta_a, eta_b


def _i0_minus_1(z: float) -> float:
    # I0(z) - 1 without cancellation for the small arguments that dominate here.
    if z < 0.1:
        q = 0.25 * z * z
        return q * (1.0 + q * (0.25 + q * (1.0 / 36.0 + q * (1.0 / 576.0 + q / 14400.0))))
    return float(i0(z)) - 1.0


def heralded_rate(x: float, y: float, p_d: float) -> float:
    """Probability that exactly one detector fires, averaged over the phase.

    ``x`` and ``y`` are the intensities arriving at the measurement station
    from the two senders.  With relative phase delta the two detectors see
    (x+y)/2 +- sqrt(x*y)*cos(delta); averaging the one-click probability over
    a uniform delta gives

        2(1-p_d) e^(-(x+y)/2) I0(sqrt(x*y)) - 2(1-p_d)^2 e^(-(x+y)).

    Evaluated here in an algebraically identical form that stays accurate
    when both intensities are far below the dark-count rate.
    """
    if x < 0.0 or y < 0.0:
        raise ValueError(f"intensities must be non-negative, got {x}, {y}")
    if not (0.0 <= p_d <= 1.0):
        raise ValueError(f"dark-count probability must lie in [0, 1], got {p_d}")
    s = x + y
    core = math.expm1(0.5 * s) + math.exp(0.5 * s) * _i0_minus_1(math.sqrt(x * y)) + p_d
    return 2.0 * (1.0 - p_d) * math.exp(-s) * core


def _count(window: float, rate: float, rng: np.random.Generator | None) -> int:
    if window <= 0.0:
        return 0
    if rng is None:
        return min(int(round(window * rate)), int(window))
    return int(rng.binomial(int(round(window)), min(rate, 1.0)))


def simulate_decoy_observables(
    exp: ExperimentalParams,
    src: SourceParams,
    rng: np.random.Generator | None = None,
) -> tuple[dict[str, tuple[float, int, float]], tuple[str, ...]]:
    """Pulse counts, click counts and rates of the five decoy-analysis windows.

    Returns a mapping ``window -> (N, n, S)`` for the windows oo, ox, xo, oy,
    yo, plus warning flags for windows too small to be meaningful.
    """
    eta_a, eta_b = transmittance(exp)
    pz, pzb = src.p_z, src.p_z_b
    n_total = exp.N
    sizes = {
        "oo": ((1.0 - pz) * ((1.0 - pzb) * src.p0 * src.p0_b + pzb * src.p0 * (1.0 - src.eps_b))
               + pz * (1.0 - pzb) * (1.0 - src.eps) * src.p0_b) * n_total,
        "ox": (1.0 - pzb) * src.p1_b * ((1.0 - pz) * src.p0 + pz * (1.0 - src.eps)) * n_total,
        "xo": (1.0 - pz) * src.p1 * ((1.0 - pzb) * src.p0_b + pzb * (1.0 - src.eps_b)) * n_total,
        "oy": (1.0 - pzb) * (1.0 - src.p0_b - src.p1_b)
              * ((1.0 - pz) * src.p0 + pz * (1.0 - src.eps)) * n_total,
        "yo": (1.0 - pz) * (1.0 - src.p0 - src.p1)
              * ((1.0 - pzb) * src.p0_b + pzb * (1.0 - src.eps_b)) * n_total,
    }
    mu_a = {"o": 0.0, "x": src.mu1, "y": src.mu2}
    mu_b = {"o": 0.0, "x": src.mu1_b, "y": src.mu2_b}
    out: dict[str, tuple[float, int, float]] = {}
    flags: list[str] = []
    for w, size in sizes.items():
        rate = heralded_rate(mu_a[w[0]] * eta_a, mu_b[w[1]] * eta_b, exp.p_d)
        n = _count(size, rate, rng)
        if size < 1.0:
            flags.append(f"degenerate-window:{w}")
        out[w] = (size, n, n / size if size > 0.0 else 0.0)
    return out, tuple(flags)


def _wrong_click_probability(delta: float, half: float, amp: float, p_d: float) -> float:
    # Only the destructive-port detector fires.
    mu_right = half + amp * math.cos(delta)
    mu_wrong = half - amp * math.cos(delta)
    silent_right = (1.0 - p_d) * math.exp(-mu_right)
    fire_wrong = 1.0 - (1.0 - p_d) * math.exp(-mu_wrong)
    return fire_wrong * silent_right


def simulate_x1_error(
    exp: ExperimentalParams,
    src: SourceParams,
    rng: np.random.Generator | None = None,
) -> tuple[float, int, float, tuple[str, ...]]:
    """Size, error count and error rate of the phase-matched mu1 windows.

    The accepted phase window is |delta| <= pi/M_slices on either the aligned
    or anti-aligned slice (acceptance fraction 2/M_slices).  Misalignment
    moves a fraction e_d of each pulse into the opposite port, so the port
    intensities are (x+y)/2 +- (1-2 e_d) sqrt(x*y) cos(delta).
    """
    eta_a, eta_b = transmittance(exp)
    x, y = src.mu1 * eta_a, src.mu1_b * eta_b
    size = exp.N * (1.0 - src.p_z) * (1.0 - src.p_z_b) * src.p1 * src.p1_b * (2.0 / exp.M_slices)
    half = 0.5 * (x + y)
    amp = (1.0 - 2.0 * exp.e_d) * math.sqrt(x * y)
    if exp.slice_mode == "ideal":
        rate = _wrong_click_probability(0.0, half, amp, exp.p_d)
    else:
        b = math.pi / exp.M_slices
        # Average over [0, b]; the integrand is even so this equals [-b, b].
        rate = 0.5 * math.fsum(
            w * _wrong_click_probability(0.5 * b * (t + 1.0), half, amp, exp.p_d)
            for t, w in _GL
        )
    m = _count(size, rate, rng)
    flags = ("all-phases-accepted",) if exp.M_slices == 1 else ()
    t_rate = m / size if size > 0.0 else 0.0
    return size, m, t_rate, flags


def simulate_z_counts(
    exp: ExperimentalParams,
    src: SourceParams,
    rng: np.random.Generator | None = None,
) -> tuple[int, int, int, int, int]:
    """Effective-event counts of the four signal-window sending patterns.

    Returns (n_c0, n_c1, n_v, n_d, n_t): only-Bob-sent, only-Alice-sent,
    neither sent, both sent, and their total.
    """
    eta_a, eta_b = transmittance(exp)
    base = exp.N * src.p_z * src.p_z_b
    n_v = _count(base * (1.0 - src.eps) * (1.0 - src.eps_b),
                 heralded_rate(0.0, 0.0, exp.p_d), rng)
    n_c0 = _count(base * (1.0 - src.eps) * src.eps_b,
                  heralded_rate(0.0, src.mu_z_b * eta_b, exp.p_d), rng)
    n_c1 = _count(base * src.eps * (1.0 - src.eps_b),
                  heralded_rate(src.mu_z * eta_a, 0.0, exp.p_d), rng)
    n_d = _count(base * src.eps * src.eps_b,
                 heralded_rate(src.mu_z * eta_a, src.mu_z_b * eta_b, exp.p_d), rng)
    return n_c0, n_c1, n_v, n_d, n_c0 + n_c1 + n_v + n_d


def simulate_aopp_counts(
    n_c0: float, n_c1: float, n_v: float, n_d: float
) -> tuple[float, float, float, float]:
    """Pair counts and error rate after actively pairing 0-bits with 1-bits.

    Bob's 0-bit pool holds the n_c0 + n_d events where he sent, his 1-bit
    pool the n_c1 + n_v events where he did not; each pairing half uses n_g
    pairs, of which n_t_prime survive the odd-parity announcement, with
    bit-flip error rate E_prime among the survivors.  n_odd is the odd-parity
    pair count a fully random grouping of all n_t bits would produce.

    Returns (n_g, n_t_prime, n_odd, E_prime).
    """
    if min(n_c0, n_c1, n_v, n_d) < 0:
        raise ValueError("event counts must be non-negative")
    pool0 = n_c0 + n_d
    pool1 = n_c1 + n_v
    if pool0 <= 0 or pool1 <= 0:
        raise ValueError(
            f"degenerate pairing input: need events in both bit pools, got {pool0}, {pool1}"
        )
    n_t = pool0 + pool1
    n_g = 0.5 * min(pool0, pool1)
    n_t_prime = (n_c0 * n_c1 + n_d * n_v) / (pool0 * pool1) * n_g
    n_odd = pool0 * pool1 / n_t
    err_mass = n_v * n_d
    ok_mass = n_c0 * n_c1
    e_prime = err_mass / (ok_mass + err_mass) if (ok_mass + err_mass) > 0 else 0.0
    return n_g, n_t_prime, n_odd, e_prime


def simulate(
    exp: ExperimentalParams,
    src: SourceParams,
    seed: int | None = None,
) -> ObservedStats:
    """Run the full linear-model simulation and assemble the observed record."""
    rng = np.random.default_rng(seed) if seed is not None else None
    windows, flags = simulate_decoy_observables(exp, src, rng)
    size_x1, m_x1, t_x1, x1_flags = simulate_x1_error(exp, src, rng)
    n_c0, n_c1, n_v, n_d, n_t = simulate_z_counts(exp, src, rng)
    all_flags = list(flags) + list(x1_flags)
    try:
        n_g, n_t_prime, n_odd, e_prime = simulate_aopp_counts(n_c0, n_c1, n_v, n_d)
    except ValueError:
        n_g = n_t_prime = n_odd = e_prime = 0.0
        all_flags.append("aopp-degenerate")
    (N_oo, n_oo, S_oo) = windows["oo"]
    (N_ox, n_ox, S_ox) = windows["ox"]
    (N_xo, n_xo, S_xo) = windows["xo"]
    (N_oy, n_oy, S_oy) = windows["oy"]
    (N_yo, n_yo, S_yo) = windows["yo"]
    return ObservedStats(
        N_oo=N_oo, N_ox=N_ox, N_xo=N_xo, N_oy=N_oy, N_yo=N_yo,
        n_oo=n_oo, n_ox=n_ox, n_xo=n_xo, n_oy=n_oy, n_yo=n_yo,
        S_oo=S_oo, S_ox=S_ox, S_xo=S_xo, S_oy=S_oy, S_yo=S_yo,
        N_X1=size_x1, m_X1=m_x1, T_X1=t_x1,
        n_c0=n_c0, n_c1=n_c1, n_v=n_v, n_d=n_d, n_t=n_t,
        n_g=n_g, n_odd=n_odd, n_t_prime=n_t_prime, E_prime=e_prime,
        flags=tuple(all_flags),
    )
