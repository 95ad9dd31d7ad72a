"""Built-in benchmark configurations and their published reference values.

Two standard comparisons ship with the package: the symmetric Table-II
setting (the default hardware at 250/390/420/440 km with 1e12 pulse pairs)
and the Table-III setting that reuses two published experiments' hardware
parameters at 402 and 502 km with 2e13 pulse pairs.  ``compute_*`` runs one
``scan`` of both estimation methods per setting, at the default search
budget, and returns rows of computed values, references and their ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import SecurityBudget
from .channel import ExperimentalParams
from .optimizer import OptimizationProblem, scan

__all__ = [
    "TABLE2_EXP",
    "TABLE2_DISTANCES",
    "TABLE2_REFERENCE",
    "TABLE3_CASES",
    "TableRow",
    "compute_table2",
    "compute_table3",
    "format_rows",
]

TABLE2_EXP = ExperimentalParams(
    p_d=1e-8, e_d=0.03, eta_d=0.30, f=1.1, alpha_f=0.2,
    N=1e12, L_A=125.0, L_B=125.0,
)

TABLE2_DISTANCES = (250.0, 390.0, 420.0, 440.0)

# Published reference rates (method A, method B) at each distance.
TABLE2_REFERENCE = {
    250.0: (9.52e-6, 1.02e-5),
    390.0: (2.05e-7, 2.36e-7),
    420.0: (6.84e-8, 8.15e-8),
    440.0: (2.59e-8, 3.26e-8),
}

TABLE2_PLOB_REFERENCE = {
    250.0: (1.44e-5, 4.33e-6),
    390.0: (2.29e-8, 6.86e-9),
    420.0: (5.74e-9, 1.72e-9),
    440.0: (2.29e-9, 6.86e-10),
}

# (distance, hardware, per-use Chernoff failure probability, reference A/B).
TABLE3_CASES = (
    (
        402.0,
        ExperimentalParams(p_d=3.36e-8, e_d=0.07, eta_d=0.20, f=1.1,
                           alpha_f=0.185, N=2e13, L_A=201.0, L_B=201.0),
        1.69e-10,
        (9.98e-8, 1.07e-7),
    ),
    (
        502.0,
        ExperimentalParams(p_d=1.26e-8, e_d=0.098, eta_d=0.29, f=1.1,
                           alpha_f=0.162, N=2e13, L_A=251.0, L_B=251.0),
        1.71e-10,
        (4.82e-8, 5.38e-8),
    ),
)


@dataclass(frozen=True)
class TableRow:
    L_total: float
    rate_a: float
    rate_b: float
    ref_a: float
    ref_b: float
    plob1: float
    plob2: float

    @property
    def ratio_a(self) -> float:
        return self.rate_a / self.ref_a if self.ref_a else float("nan")

    @property
    def ratio_b(self) -> float:
        return self.rate_b / self.ref_b if self.ref_b else float("nan")


def _rows(problem: OptimizationProblem, distances: "tuple[float, ...]",
          references: "list[tuple[float, float]]") -> list[TableRow]:
    """Scan both methods and pair each distance with its published (A, B) rates."""
    return [
        TableRow(pt.L_total, pt.a.rate, pt.b.rate, ref_a, ref_b, pt.plob1, pt.plob2)
        for pt, (ref_a, ref_b) in zip(scan(problem, list(distances)), references)
    ]


def compute_table2(seed: int = 1) -> list[TableRow]:
    """Optimized rates for both methods at the four benchmark distances."""
    problem = OptimizationProblem(exp=TABLE2_EXP, seed=seed)
    return _rows(problem, TABLE2_DISTANCES, [TABLE2_REFERENCE[L] for L in TABLE2_DISTANCES])


def compute_table3(seed: int = 1) -> list[TableRow]:
    """Optimized rates for the two published-hardware comparison points."""
    rows = []
    for L, exp, xi, references in TABLE3_CASES:
        problem = OptimizationProblem(exp=exp, security=SecurityBudget(xi_default=xi), seed=seed)
        rows += _rows(problem, (L,), [references])
    return rows


def format_rows(title: str, rows: "list[TableRow]") -> str:
    lines = [title]
    header = (
        f"{'L_km':>6}  {'R_A':>11}  {'ref_A':>11}  {'A/ref':>6}  "
        f"{'R_B':>11}  {'ref_B':>11}  {'B/ref':>6}  {'plob1':>11}  {'plob2':>11}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            f"{row.L_total:>6.0f}  {row.rate_a:>11.3e}  {row.ref_a:>11.3e}  {row.ratio_a:>6.3f}  "
            f"{row.rate_b:>11.3e}  {row.ref_b:>11.3e}  {row.ratio_b:>6.3f}  "
            f"{row.plob1:>11.3e}  {row.plob2:>11.3e}"
        )
    return "\n".join(lines)
