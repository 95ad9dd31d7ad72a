"""Linear-optics channel and detection model producing "observed" statistics.

Both parties send phase-randomized coherent pulses to a middle measurement
station with two threshold detectors behind a beam splitter.  The model is
fully linear: per-detector click probabilities follow from Poisson statistics
of the arriving intensities plus independent dark counts, and misalignment
mixes a fraction ``e_d`` of each pulse into the wrong output port.

The simulator is deterministic: every count is the expected value of its
window, rounded to the nearest integer, which reproduces the smooth
published rate curves.  ``simulate`` computes every window of one run in a
single pass: the decoy windows, the phase-matched X1 windows and the four
signal-window sending patterns.  A caller that wants sampled counts draws
them itself from the window sizes and expected counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from numbers import Integral

__all__ = [
    "ExperimentalParams",
    "SourceParams",
    "ObservedStats",
    "constraint_ratio",
    "transmittance",
    "heralded_rate",
    "simulate_aopp_counts",
    "simulate",
]

# Largest intensity a source may set, and the top of the optimizer's search
# box.  Behind a transmittance of at most 1 every arriving intensity is then
# at most 1 too, so the I0 series of heralded_rate and the slice series of
# _slice_mean_excess_terms converge within 22 terms.
_MAX_INTENSITY = 1.0
_SERIES_RTOL = 1e-18  # a term this far below the running sum ends a series


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
    M_slices  number of phase slices used for the X-window post-selection;
              the error rate is averaged over the accepted slice
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
        # A finite sum keeps L_total, which plob_bounds checks, finite too.
        if not (0.0 <= self.L_A and 0.0 <= self.L_B and self.L_A + self.L_B < math.inf):
            raise ValueError(
                f"arm lengths must be finite and non-negative, got {self.L_A}, {self.L_B}"
            )
        m = self.M_slices
        if isinstance(m, bool) or not isinstance(m, Integral) or m < 1:
            raise ValueError(f"M_slices must be an integer >= 1, got {m!r}")

    @property
    def L_total(self) -> float:
        return self.L_A + self.L_B

    def at_distance(self, L_total: float) -> "ExperimentalParams":
        """Same hardware and arm offset L_A - L_B at a new total distance."""
        delta = self.L_A - self.L_B
        la = 0.5 * (L_total + delta)
        lb = 0.5 * (L_total - delta)
        return replace(self, L_A=la, L_B=lb)


@dataclass(frozen=True, order=True)
class SourceParams:
    """Source settings of both parties; ``_b`` marks the second party (Bob).

    p_z    probability of choosing the signal window
    eps    probability of deciding to send in a signal window
    p0     probability of the vacuum source in a decoy window
    p1     probability of the weaker decoy intensity mu1
    mu1, mu2  decoy intensities (0 < mu1 < mu2 <= 1)
    mu_z   signal intensity (0 < mu_z <= 1)

    Sources order lexicographically in field order; the optimizer breaks
    ties between equal rates toward the smaller one.
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
        if not (0.0 < self.p_z < 1.0 and 0.0 < self.eps < 1.0 and 0.0 < self.p0 < 1.0
                and 0.0 < self.p1 < 1.0 and 0.0 < self.p_z_b < 1.0 and 0.0 < self.eps_b < 1.0
                and 0.0 < self.p0_b < 1.0 and 0.0 < self.p1_b < 1.0):
            # Only on failure: name the first field out of range.
            for name in ("p_z", "eps", "p0", "p1", "p_z_b", "eps_b", "p0_b", "p1_b"):
                v = getattr(self, name)
                if not (0.0 < v < 1.0):
                    raise ValueError(f"{name} must lie in (0, 1), got {v}")
        if self.p0 + self.p1 > 1.0:
            raise ValueError(f"p0 + p1 must be <= 1, got {self.p0 + self.p1}")
        if self.p0_b + self.p1_b > 1.0:
            raise ValueError(f"p0_b + p1_b must be <= 1, got {self.p0_b + self.p1_b}")
        # Comparisons are written to be False for NaN, so NaN fails them.
        for lo, hi, pair in (
            (self.mu1, self.mu2, "mu1 < mu2"),
            (self.mu1_b, self.mu2_b, "mu1_b < mu2_b"),
        ):
            if not (0.0 < lo < hi <= _MAX_INTENSITY):
                raise ValueError(
                    f"intensities must satisfy 0 < {pair} <= {_MAX_INTENSITY:g}, got {lo}, {hi}"
                )
        if not (0.0 < self.mu_z <= _MAX_INTENSITY and 0.0 < self.mu_z_b <= _MAX_INTENSITY):
            raise ValueError(
                f"signal intensities must lie in (0, {_MAX_INTENSITY:g}], "
                f"got {self.mu_z}, {self.mu_z_b}"
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
        return self.mu1 / self.mu1_b - constraint_ratio(
            self.eps, self.eps_b, self.mu_z, self.mu_z_b
        )

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
    counts and ``n_*`` one-detector heralded counts; N_X1 and m_X1 are the
    size and wrong-click count of the phase-matched mu1 windows, and
    n_c0, n_c1, n_v, n_d the signal-window counts where only Bob, only
    Alice, neither and both sent (see ``simulate``).  The pairing outcomes
    n_g, n_odd, n_t_prime and E_prime are stored, although ``simulate``
    derives them from the four signal-window counts through
    simulate_aopp_counts.  Nothing else derived is stored: an
    estimator divides a count by its window size, and n_t sums the
    signal-window counts.
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
    N_X1: float
    m_X1: int
    n_c0: int
    n_c1: int
    n_v: int
    n_d: int
    n_g: float
    n_odd: float
    n_t_prime: float
    E_prime: float
    flags: tuple[str, ...] = field(default_factory=tuple)

    @property
    def n_t(self) -> int:
        """Effective events in the signal windows, all four patterns."""
        return self.n_c0 + self.n_c1 + self.n_v + self.n_d


def constraint_ratio(eps: float, eps_b: float, mu_z: float, mu_z_b: float) -> float:
    """The mu1/mu1_b ratio the asymmetric decoy analysis requires:
    eps(1-eps_b) mu_z e^(-mu_z) / (eps_b (1-eps) mu_z_b e^(-mu_z_b))."""
    return (eps * (1.0 - eps_b) * mu_z * math.exp(-mu_z)) / (
        eps_b * (1.0 - eps) * mu_z_b * math.exp(-mu_z_b)
    )


def transmittance(exp: ExperimentalParams) -> tuple[float, float]:
    """Source-to-click transmittance of each arm, detector efficiency included."""
    eta_a = exp.eta_d * 10.0 ** (-exp.alpha_f * exp.L_A / 10.0)
    eta_b = exp.eta_d * 10.0 ** (-exp.alpha_f * exp.L_B / 10.0)
    return eta_a, eta_b


def _i0_minus_1(z: float) -> float:
    # I0(z) - 1 = sum_k (z^2/4)^k / (k!)^2 over k >= 1: positive terms, about
    # ten of them at z = 1.
    q = 0.25 * z * z
    term = total = q
    k = 1
    while term > _SERIES_RTOL * total:
        k += 1
        term *= q / (k * k)
        total += term
    return total


def heralded_rate(x: float, y: float, p_d: float) -> float:
    """Probability that exactly one detector fires, averaged over the phase.

    ``x`` and ``y`` are the intensities arriving at the measurement station
    from the two senders.  With relative phase delta the two detectors see
    (x+y)/2 +- sqrt(x*y)*cos(delta); averaging the one-click probability over
    a uniform delta gives

        2(1-p_d) e^(-(x+y)/2) I0(sqrt(x*y)) - 2(1-p_d)^2 e^(-(x+y)).

    Evaluated here in an algebraically identical form that stays accurate
    when both intensities are far below the dark-count rate.  Each intensity
    must lie in [0, 1], the most a source of at most _MAX_INTENSITY delivers
    through a transmittance of at most 1.
    """
    # Comparisons are written to be False for NaN, so NaN fails them.
    if not (0.0 <= x <= _MAX_INTENSITY and 0.0 <= y <= _MAX_INTENSITY):
        raise ValueError(
            f"arriving intensities must lie in [0, {_MAX_INTENSITY:g}], got {x}, {y}"
        )
    if not (0.0 <= p_d <= 1.0):
        raise ValueError(f"dark-count probability must lie in [0, 1], got {p_d}")
    return _click_probability(x, y, p_d)


def _click_probability(x: float, y: float, p_d: float) -> float:
    # heralded_rate without its range checks, for simulate: validated
    # parameters keep every arriving intensity within them.
    s = x + y
    core = math.expm1(0.5 * s) + math.exp(0.5 * s) * _i0_minus_1(math.sqrt(x * y)) + p_d
    return 2.0 * (1.0 - p_d) * math.exp(-s) * core


def _one_sided_click_probability(x: float, p_d: float) -> float:
    # _click_probability with no light from one side, where the I0 term is 0.
    return 2.0 * (1.0 - p_d) * math.exp(-x) * (math.expm1(0.5 * x) + p_d)


def _count(window: float, rate: float) -> int:
    if window <= 0.0:
        return 0
    return min(round(window * rate), int(window))


@lru_cache(maxsize=None)
def _slice_constants(m_slices: int) -> tuple[float, float, float]:
    """cos(b), 1 - sin(b)/b and 1 - cos(b) for the slice half-width b = pi/M."""
    b = math.pi / m_slices
    if b < 1.0:
        # 1 - sin(b)/b = sum_n (-1)^(n+1) b^(2n)/(2n+1)!, free of the
        # cancellation the direct form suffers for small b.
        b2 = b * b
        term = one_minus_sinc = b2 / 6.0
        n = 1
        while abs(term) > _SERIES_RTOL * one_minus_sinc:
            n += 1
            term *= -b2 / ((2 * n) * (2 * n + 1))
            one_minus_sinc += term
    else:
        one_minus_sinc = 1.0 - math.sin(b) / b
    sin_half = math.sin(0.5 * b)
    return math.cos(b), one_minus_sinc, 2.0 * sin_half * sin_half


def _slice_mean_excess_terms(amp: float, m_slices: int):
    """Terms of the slice mean of e^(-amp cos delta) - e^(-amp) over [0, pi/M].

    The series is sum_k -(-amp)^k/k! E_k, where E_k = 1 - C_k and C_k is the
    slice mean of cos^k delta.  It is taken around e^(-amp) rather than 1:
    the caller adds e^(-amp) - e^(-half) next, and with matched arms and
    e_d = 0 (half = amp) a series around 1 cancels against it to three
    digits at 64 slices.  The recurrence of C_k gives

        E_0 = 0,  E_1 = 1 - sin(b)/b,
        E_k = (1 - cos^(k-1)(b) sin(b)/b)/k + (k-1)/k E_(k-2),

    and 1 - cos^(k-1)(b) sin(b)/b = s + (1 - s) t_k with s = 1 - sin(b)/b and
    t_k = 1 - cos^(k-1)(b), so for M >= 2 every piece is a sum of
    non-negative parts.  Terms stop once one falls below _SERIES_RTOL of the
    running sum: 5 terms at |amp| = 1e-5, 22 at |amp| = 1.
    """
    cos_b, one_minus_sinc, one_minus_cos = _slice_constants(m_slices)
    e_prev, e_cur = 0.0, one_minus_sinc  # E_(k-1), E_k at k = 1
    t, power = 0.0, 1.0  # 1 - cos^(k-1)(b), cos^(k-1)(b) at k = 1
    coef = amp  # -(-amp)^k/k!
    total = term = amp * one_minus_sinc
    yield term
    k = 1
    while abs(term) > _SERIES_RTOL * abs(total):
        k += 1
        t += one_minus_cos * power
        power *= cos_b
        edge = one_minus_sinc + (1.0 - one_minus_sinc) * t
        e_prev, e_cur = e_cur, edge / k + (k - 1) / k * e_prev
        coef *= -amp / k
        term = coef * e_cur
        total += term
        yield term


def _x1_error_probability(x: float, y: float, exp: ExperimentalParams) -> float:
    """Wrong-click probability of a matched window with arriving intensities x, y.

    The accepted phase window is |delta| <= pi/M_slices on either the aligned
    or anti-aligned slice (acceptance fraction 2/M_slices).  Misalignment
    moves a fraction e_d of each pulse into the opposite port, so the port
    intensities are half +- amp cos(delta) with half = (x+y)/2 and
    amp = (1-2 e_d) sqrt(x*y).  The wrong-click probability at phase delta
    factors as (1-p_d) e^(-half) [e^(-amp cos delta) - (1-p_d) e^(-half)],
    so its average over the slice is

        (1-p_d) e^(-half) [(A - e^(-amp)) - e^(-amp) expm1(-(half-amp)) + p_d e^(-half)]

    with A the slice mean of e^(-amp cos delta).  Every source has
    |amp| <= 1 (intensities up to _MAX_INTENSITY), so A - e^(-amp) is a
    power series of at most 22 terms (_slice_mean_excess_terms), and
    half - amp = (sqrt x - sqrt y)^2/2 + 2 e_d sqrt(x*y) is formed without
    cancellation; for e_d <= 1/2 the three bracket terms are then all
    non-negative.
    """
    half = 0.5 * (x + y)
    root_xy = math.sqrt(x * y)
    amp = (1.0 - 2.0 * exp.e_d) * root_xy
    excess = 0.0
    for term in _slice_mean_excess_terms(amp, exp.M_slices):
        excess += term  # left to right; sum() compensates from Python 3.12
    gap = 0.5 * (math.sqrt(x) - math.sqrt(y)) ** 2 + 2.0 * exp.e_d * root_xy  # half - amp
    e_half = math.exp(-half)
    bracket = excess - math.exp(-amp) * math.expm1(-gap) + exp.p_d * e_half
    return (1.0 - exp.p_d) * e_half * bracket


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


def simulate(exp: ExperimentalParams, src: SourceParams) -> ObservedStats:
    """Run the full linear-model simulation and assemble the observed record.

    Decoy windows (oo, ox, xo, oy, yo): each side sends the vacuum, mu1 or
    mu2; a side counts as vacuum in a signal window where it decided not to
    send.  Windows under one pulse pair are flagged ``degenerate-window:<w>``.

    X1 windows: the mu1-mu1 pairs whose phases fall in the accepted slice,
    2/M_slices of them; M_slices = 1 accepts every phase and is flagged.

    Signal windows: n_c0, n_c1, n_v and n_d count the effective events where
    only Bob sent, only Alice sent, neither sent and both sent.  Pairing
    them (simulate_aopp_counts) gives n_g, n_odd, n_t_prime and E_prime, or
    zeros and the ``aopp-degenerate`` flag when a bit pool is empty.
    """
    eta_a, eta_b = transmittance(exp)
    p_d, n_total = exp.p_d, exp.N
    pz, pzb = src.p_z, src.p_z_b
    dark = _one_sided_click_probability(0.0, p_d)  # no light arrives
    # Share of pulses in which Alice (Bob) sends the vacuum outside the signal
    # windows, or decides not to send inside them.
    vac_a = (1.0 - pz) * src.p0 + pz * (1.0 - src.eps)
    vac_b = (1.0 - pzb) * src.p0_b + pzb * (1.0 - src.eps_b)

    N_oo = ((1.0 - pz) * ((1.0 - pzb) * src.p0 * src.p0_b + pzb * src.p0 * (1.0 - src.eps_b))
            + pz * (1.0 - pzb) * (1.0 - src.eps) * src.p0_b) * n_total
    N_ox = (1.0 - pzb) * src.p1_b * vac_a * n_total
    N_xo = (1.0 - pz) * src.p1 * vac_b * n_total
    N_oy = (1.0 - pzb) * (1.0 - src.p0_b - src.p1_b) * vac_a * n_total
    N_yo = (1.0 - pz) * (1.0 - src.p0 - src.p1) * vac_b * n_total
    n_oo = _count(N_oo, dark)
    n_ox = _count(N_ox, _one_sided_click_probability(src.mu1_b * eta_b, p_d))
    n_xo = _count(N_xo, _one_sided_click_probability(src.mu1 * eta_a, p_d))
    n_oy = _count(N_oy, _one_sided_click_probability(src.mu2_b * eta_b, p_d))
    n_yo = _count(N_yo, _one_sided_click_probability(src.mu2 * eta_a, p_d))
    flags = [f"degenerate-window:{w}"
             for w, size in zip(("oo", "ox", "xo", "oy", "yo"), (N_oo, N_ox, N_xo, N_oy, N_yo))
             if size < 1.0]

    N_X1 = n_total * (1.0 - pz) * (1.0 - pzb) * src.p1 * src.p1_b * (2.0 / exp.M_slices)
    m_X1 = _count(N_X1, _x1_error_probability(src.mu1 * eta_a, src.mu1_b * eta_b, exp))
    if exp.M_slices == 1:
        flags.append("all-phases-accepted")

    base = n_total * pz * pzb
    z_a, z_b = src.mu_z * eta_a, src.mu_z_b * eta_b
    n_c0 = _count(base * (1.0 - src.eps) * src.eps_b, _one_sided_click_probability(z_b, p_d))
    n_c1 = _count(base * src.eps * (1.0 - src.eps_b), _one_sided_click_probability(z_a, p_d))
    n_v = _count(base * (1.0 - src.eps) * (1.0 - src.eps_b), dark)
    n_d = _count(base * src.eps * src.eps_b, _click_probability(z_a, z_b, p_d))
    try:
        n_g, n_t_prime, n_odd, e_prime = simulate_aopp_counts(n_c0, n_c1, n_v, n_d)
    except ValueError:
        n_g = n_t_prime = n_odd = e_prime = 0.0
        flags.append("aopp-degenerate")
    return ObservedStats(
        N_oo, N_ox, N_xo, N_oy, N_yo, n_oo, n_ox, n_xo, n_oy, n_yo, N_X1, m_X1,
        n_c0, n_c1, n_v, n_d, n_g, n_odd, n_t_prime, e_prime, tuple(flags),
    )
