"""Failure-probability ledger shared by every estimation stage."""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

__all__ = ["SecurityBudget"]


@dataclass(frozen=True)
class SecurityBudget:
    """Per-use failure probabilities and their composition into totals.

    xi_default      Chernoff failure probability of every ordinary use
    xi_e1           failure probability of the phase-error numerator uses
                    and of the pre-pairing error-count bound
    eps_def         target trace-distance bound of the near-i.i.d. reduction
    xi_tau          tail level fixed when inverting for the per-pair error
    xi_tau_tilde    tail level fixed when inverting for the survived count
    eps_cor         failure probability of error correction
    eps_PA          failure probability of privacy amplification
    eps_hat         smooth-entropy chain-rule coefficient

    Every xi_* level lies in (0, 1] and every eps_* level in (0, 1): a zero
    failure probability costs infinitely many bits, so no key could meet it.
    Derived quantities (eps_n1_prime, eps_nk, eps_e, eps_s, eps_sec,
    eps_tol) are exact arithmetic over the fields, so the ledger always
    describes the levels the bounds used.  At xi_default = 1, the
    fluctuation-free diagnostic, eps_tol exceeds 1 and carries no security
    claim.
    """

    xi_default: float = 1e-10
    xi_e1: float = 1e-13
    eps_def: float = 1e-13
    xi_tau: float = 1e-2
    xi_tau_tilde: float = 1e-10
    eps_cor: float = 1e-10
    eps_PA: float = 1e-10
    eps_hat: float = 1e-10

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name.startswith("xi"):
                if not (0.0 < v <= 1.0):
                    raise ValueError(f"{f.name} must lie in (0, 1], got {v}")
            elif not (0.0 < v < 1.0):
                raise ValueError(f"{f.name} must lie in (0, 1), got {v}")
            # 2/v and 1/v stay finite, so every ln(2/xi) cost does too.
            if v < sys.float_info.min:
                raise ValueError(f"{f.name} = {v} is below the smallest normal float")

    @property
    def eps_n1_prime(self) -> float:
        """Failure probability of the survived-untagged count (6 uses)."""
        return 6.0 * self.xi_default

    @property
    def eps_nk(self) -> float:
        """Failure probability of the pair/neglected-count pair (2 uses)."""
        return 2.0 * self.xi_default

    @property
    def eps_e(self) -> float:
        """Failure probability of the pre-pairing error-count bound (3 uses)."""
        return 3.0 * self.xi_e1

    @property
    def eps_s(self) -> float:
        """Failure probability of the post-pairing phase-error bound."""
        head = self.eps_e + 2.0 * self.eps_def
        return self.xi_tau_tilde + head / self.xi_tau + 2.0 * self.eps_def

    @property
    def eps_sec(self) -> float:
        return (
            2.0 * self.eps_hat
            + 4.0 * self.eps_s
            + self.eps_PA
            + self.eps_n1_prime
            + self.eps_nk
        )

    @property
    def eps_tol(self) -> float:
        """Total composable failure probability of the produced key."""
        return self.eps_cor + self.eps_sec
