"""Command-line front end.

Commands
  rate      evaluate one configuration (optimizing first if no fixed source
            parameters are given) and print the full report
  optimize  search for the best source parameters at the configured distance
            (rate and optimize retry a search that finds none from the
            other method's optimum, as a scan does)
  scan      optimize along a distance grid and emit CSV
  tables    recompute the built-in benchmark tables next to their published
            reference values
  plob      print the repeater-less bounds for a list of distances

Exit codes: 0 success, 2 configuration error, 3 evaluation produced a zero
rate (the report is still printed), 4 output I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .channel import SourceParams
from .config import ConfigError, RunConfig, parse_config
from .keyrate import KeyRateReport, evaluate, plob_bounds
from .optimizer import OptimizationProblem, optimize, retry_from_other, scan
from .tables import TABLE2_PLOB_REFERENCE, compute_table2, compute_table3, format_rows

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ZERO_RATE = 3
EXIT_IO = 4

_PARAM_FIELDS = tuple(f.name for f in fields(SourceParams))


def _sci(x: float) -> str:
    return f"{x:.5e}"  # six significant digits


def _report_lines(report: KeyRateReport) -> "list[str]":
    z, b, o = report.zigzag, report.bounds, report.obs
    rows = [
        ("L_km", f"{report.exp.L_total:.6g}"),
        ("N_pulses", f"{report.exp.N:.6g}"),
        ("method", report.method),
        ("zigzag_mode", report.mode),
        ("R", _sci(report.R)),
        ("secure", str(report.secure).lower()),
        ("plob1", _sci(report.plob1)),
        ("plob2", _sci(report.plob2)),
        ("R_over_plob1", f"{report.ratio1:.4f}"),
        ("R_over_plob2", f"{report.ratio2:.4f}"),
        ("s01_L", _sci(b.s01_L)),
        ("s10_L", _sci(b.s10_L)),
        ("s1_L", _sci(b.s1_L)),
        ("n01_L", _sci(b.n01_L)),
        ("n10_L", _sci(b.n10_L)),
        ("n1_L", _sci(b.n1_L)),
        ("e1ph_U", _sci(b.e1ph_U)),
        ("u", f"{z.u:.6f}"),
        ("n_pairs", str(z.n)),
        ("k_neglected", str(z.k)),
        ("r_remainder", f"{z.r:.4f}"),
        ("M_bar", str(z.M_bar)),
        ("e_tau", _sci(z.e_tau)),
        ("E_tau", _sci(z.E_tau)),
        ("M_bar_s", f"{z.M_bar_s:.4f}"),
        ("n1_prime", str(z.n1_prime)),
        ("e1ph_prime", _sci(z.e1ph_prime)),
        ("eps_s", _sci(report.budget.eps_s)),
        ("eps_tol", _sci(report.budget.eps_tol)),
        ("n_t", str(o.n_t)),
        ("n_t_prime", f"{o.n_t_prime:.4f}"),
        ("E_prime", _sci(o.E_prime)),
        ("flags", ",".join(report.flags) if report.flags else "-"),
    ]
    width = max(len(k) for k, _ in rows)
    return [f"{k:<{width}}  {v}" for k, v in rows]


def _report(problem: OptimizationProblem, src: SourceParams) -> int:
    """Evaluate ``src`` under the problem's settings and print the report."""
    report = evaluate(
        problem.exp, src, method=problem.method, mode=problem.zigzag_mode,
        budget=problem.security,
    )
    print("\n".join(_report_lines(report)))
    return EXIT_OK if report.R > 0.0 else EXIT_ZERO_RATE


def cmd_rate(problem: OptimizationProblem) -> int:
    src = problem.x0 if problem.x0 is not None else (
        retry_from_other(problem, optimize(problem)).params)
    if src is None:
        print("optimization found no positive rate anywhere in the box")
        return EXIT_ZERO_RATE
    return _report(problem, src)


def cmd_optimize(problem: OptimizationProblem) -> int:
    out = retry_from_other(problem, optimize(problem))
    print(f"evaluations  {out.evaluations}")
    if out.params is None:
        print("best_R       0.0  (no positive rate found)")
        return EXIT_ZERO_RATE
    for name in _PARAM_FIELDS:
        print(f"{name:<12} {getattr(out.params, name):.17g}")
    return _report(problem, out.params)


def _scan_csv_rows(cfg: RunConfig) -> "list[str]":
    problem = cfg.problem
    param_cols = _PARAM_FIELDS[:7] if problem.mode == "symmetric" else _PARAM_FIELDS
    rows = ["L_km,R_A,R_B,plob1,plob2," + ",".join(param_cols)]
    for pt in scan(problem, list(cfg.distances)):
        best = pt.b.params if pt.b.params is not None else pt.a.params
        params = (["nan"] * len(param_cols) if best is None
                  else [f"{getattr(best, name):.17g}" for name in param_cols])
        rows.append(
            f"{pt.L_total:.6g},{_sci(pt.a.rate)},{_sci(pt.b.rate)},"
            f"{_sci(pt.plob1)},{_sci(pt.plob2)}," + ",".join(params)
        )
    return rows


def cmd_scan(cfg: RunConfig) -> int:
    if not cfg.distances:
        raise ConfigError("opt.distances: scan needs at least one distance")
    text = "\n".join(_scan_csv_rows(cfg)) + "\n"
    if cfg.out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(cfg.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as err:
        print(f"cannot write {cfg.out!r}: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_tables(seed: int) -> int:
    rows2 = compute_table2(seed=seed)
    print(format_rows("Benchmark rates, default hardware, N = 1e12 (symmetric)", rows2))
    print()
    print("Repeater-less bounds against their published values:")
    print(f"{'L_km':>6}  {'plob1':>11}  {'ref':>11}  {'plob2':>11}  {'ref':>11}")
    for row in rows2:
        ref1, ref2 = TABLE2_PLOB_REFERENCE[row.L_total]
        print(
            f"{row.L_total:>6.0f}  {row.plob1:>11.3e}  {ref1:>11.3e}  "
            f"{row.plob2:>11.3e}  {ref2:>11.3e}"
        )
    print()
    rows3 = compute_table3(seed=seed)
    print(format_rows("Benchmark rates, published-experiment hardware, N = 2e13", rows3))
    return EXIT_OK


def cmd_plob(alpha_f: float, eta_d: float, distances: "list[float]") -> int:
    rows = [(L, *plob_bounds(L, alpha_f, eta_d)) for L in distances]  # checks every input first
    print(f"{'L_km':>8}  {'plob1':>12}  {'plob2':>12}")
    for L, plob1, plob2 in rows:
        print(f"{L:>8.1f}  {_sci(plob1):>12}  {_sci(plob2):>12}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snskit",
        description="Finite-key rates for sending-or-not-sending twin-field QKD with AOPP",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--method", choices=("A", "B"), help="phase-error estimator (run.method)")
        p.add_argument("--mode", choices=("approx", "exact"), help="pairing stage (run.zigzag)")
        p.add_argument("--seed", type=int, help="optimizer seed (opt.seed)")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )

    add_common(sub.add_parser("rate", help="evaluate one configuration"))
    add_common(sub.add_parser("optimize", help="optimize source parameters"))
    p_scan = sub.add_parser("scan", help="optimize along the configured distance grid")
    add_common(p_scan)
    p_scan.add_argument("--out", help="CSV output path (run.out; default: stdout)")

    p_tables = sub.add_parser("tables", help="recompute the built-in benchmark tables")
    p_tables.add_argument("--seed", type=int, default=1)

    p_plob = sub.add_parser("plob", help="print repeater-less bounds")
    p_plob.add_argument("distances", nargs="+", type=float, help="total distances in km")
    p_plob.add_argument("--alpha-f", type=float, default=0.2, help="fiber loss in dB/km")
    p_plob.add_argument("--eta-d", type=float, default=0.3, help="detector efficiency")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "plob":
            return cmd_plob(args.alpha_f, args.eta_d, args.distances)
        if args.command == "tables":
            return cmd_tables(args.seed)
        # Each flag overrides its config key, after every --set.
        flags = {"run.method": args.method, "run.zigzag": args.mode,
                 "opt.seed": args.seed, "run.out": getattr(args, "out", None)}
        flags = {key: str(val) for key, val in flags.items() if val is not None}
        cfg = parse_config(args.config, overrides=args.set, flags=flags)
        if args.command == "rate":
            return cmd_rate(cfg.problem)
        if args.command == "optimize":
            return cmd_optimize(cfg.problem)
        if args.command == "scan":
            return cmd_scan(cfg)
    except ValueError as err:  # ConfigError included
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
