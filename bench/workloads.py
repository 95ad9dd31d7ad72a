"""The benchmark's workloads: their inputs, one pass, and the output checks.

Every workload is a closed loop with one caller: the next pass starts when
the previous one has returned.  A pass is the unit a user waits for.

Inputs are fixed, not drawn from the run's seed.  The cost of one pass
changes with the inputs' seed far more than any bound could allow.  On a
2-core 2.1 GHz Xeon, ``snskit scan`` on the asymmetric config took 3.9 s
with optimizer seed 11 and 10.1 s with seed 12, and 256-probe exact batches
drawn with ten seeds took 7.9 to 15.2 s, because a handful of ~0.5 s probes
dominate each batch.  A varying
seed would hide every regression behind that spread.

tables         ``snskit tables`` in-process: Tables II and III, both
               methods, approx mode, warm-started scans.  The main user
               path; optimizer probes and the Chernoff bisections dominate.
exact_probe    a fixed batch of single exact-mode ``evaluate`` calls at
               300 km, alternating methods A and B.  It bypasses the
               optimizer and isolates the exact tail inversions.
asym_cli_scan  ``snskit scan`` on an asymmetric config in a fresh
               interpreter.  A 13-dimensional search with infeasible
               corners and zero-rate restarts, plus interpreter start,
               import, config parsing and CSV output.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ASYM_CONFIG = BENCH / "asym_scan.cfg"

REL_TOL = 0.15  # acceptance tolerance of the published table rates
PROBES = 256  # exact_probe batch size: about 25 slow probes beyond p90
PROBE_DISTANCE_KM = 300.0  # one distance keeps the latency distribution unimodal
SUMMATION_LIMIT = 10_000  # binomial tails at or below this trial count are summed
CLI_TIMEOUT_S = 170.0
OPTIMIZER_SEED = 1  # ``snskit tables`` default; asym_scan.cfg sets the same
PROBE_DESIGN_SEED = 1

# The optimizer's restart box: every coordinate uniform on [-2, 2], mapped
# onto probabilities and intensities with the default search bounds.
_RESTART_SPAN = 2.0
_P_LO, _P_HI = 1e-4, 1.0 - 1e-4
_MU_LO, _MU_HI = 1e-4, 1.0


def fmt9(x: float) -> str:
    return f"{x:.9g}"


@dataclass
class PassResult:
    latencies_s: list[float]  # one entry per evaluate call
    attempted: int
    failed: int
    fingerprint: dict
    rss_mb: float | None = None  # set when the pass ran in another process
    rate_rel_min: float | None = None  # tables: lowest computed/published rate


@contextmanager
def recording(module, attr: str, on_call):
    """Replace ``module.attr`` for the block; each call reports (seconds, result)."""
    original = getattr(module, attr)

    def recorded(*args, **kwargs):
        t0 = perf_counter()
        result = original(*args, **kwargs)
        on_call(perf_counter() - t0, result)
        return result

    setattr(module, attr, recorded)
    try:
        yield
    finally:
        setattr(module, attr, original)


@contextmanager
def optimizer_recorded():
    """Record evaluate latencies and each optimize result's rate and count."""
    from snskit import optimizer

    latencies: list[float] = []
    results: list[list] = []
    with recording(optimizer, "evaluate", lambda dt, _: latencies.append(dt)), recording(
        optimizer, "optimize", lambda _, out: results.append([fmt9(out.rate), out.evaluations])
    ):
        yield latencies, results


def _count_tail(counters, args, _result) -> None:
    q = args[0]
    if q.trials <= SUMMATION_LIMIT and 0 < q.threshold <= q.trials and 0.0 < q.success_prob < 1.0:
        counters["binomial_tail.summation"] += 1


def _count_evaluate(counters, _args, report) -> None:
    if report.R == 0.0:
        counters["evaluate.zero_rate"] += 1


def _count_optimizer_evaluate(counters, args, report) -> None:
    _count_evaluate(counters, args, report)
    counters["optimizer.evals"] += 1
    if report.R > 0.0:
        counters["optimizer.positive_evals"] += 1


def _count_optimize(counters, _args, out) -> None:
    if out.params is None:
        counters["optimizer.zero_rate_results"] += 1


def trace_targets() -> list[tuple]:
    """The module globals through which one layer calls the next."""
    from snskit import cli, decoy, keyrate, optimizer, stats, zigzag

    return [
        (keyrate, "simulate", "channel.simulate", None),
        (keyrate, "estimate_untagged", "decoy.estimate_untagged", None),
        (keyrate, "run_zigzag", "zigzag.run_zigzag", None),
        (optimizer, "evaluate", "keyrate.evaluate", _count_optimizer_evaluate),
        (optimizer, "optimize", "optimizer.optimize", _count_optimize),
        (decoy, "chernoff_expected_bounds", "stats.chernoff_expected", None),
        (decoy, "mcdiarmid_delta", "stats.mcdiarmid", None),
        (zigzag, "chernoff_observed_bounds", "stats.chernoff_observed", None),
        (zigzag, "invert_tail_for_p", "stats.invert_tail_for_p", None),
        (zigzag, "invert_tail_for_m", "stats.invert_tail_for_m", None),
        (stats, "binomial_tail", "stats.binomial_tail", _count_tail),
        (cli, "parse_config", "config.parse_config", None),
    ]


class Tables:
    name = "tables"
    min_passes = 1

    def __init__(self, workdir: Path, in_process: bool) -> None:
        from snskit import tables

        self.tables = tables

    def run(self, tracer) -> PassResult:
        with optimizer_recorded() as (latencies, results):
            rows = (self.tables.compute_table2(seed=OPTIMIZER_SEED)
                    + self.tables.compute_table3(seed=OPTIMIZER_SEED))
        ratios = [ratio for row in rows for ratio in (row.ratio_a, row.ratio_b)]
        return PassResult(
            latencies_s=latencies,
            attempted=len(ratios),
            failed=sum(not abs(ratio - 1.0) <= REL_TOL for ratio in ratios),
            fingerprint={"evaluations": len(latencies), "optimize": results},
            rate_rel_min=min(ratios),
        )


def _expit(t: float) -> float:
    return 1.0 / (1.0 + math.exp(-t))


def restart_box_sources(seed: int, count: int) -> list:
    """Symmetric sources spread over the optimizer's restart box.

    A Latin hypercube: each coordinate's range is cut into ``count`` equal
    strata and every stratum is used once, so each point is uniform on the
    box while the batch covers every part of each coordinate's range.
    """
    from snskit import SourceParams

    rng = np.random.default_rng(seed)
    strata = rng.permuted(np.tile(np.arange(count), (7, 1)), axis=1).T
    t = _RESTART_SPAN * (2.0 * (strata + rng.random((count, 7))) / count - 1.0)

    def prob(x: float) -> float:
        return _P_LO + (_P_HI - _P_LO) * _expit(x)

    def intensity(x: float) -> float:
        return _MU_LO * (_MU_HI / _MU_LO) ** _expit(x)

    sources = []
    for p_z, eps, p0, p1, mu1, mu2, mu_z in t.tolist():
        p0, mu2 = prob(p0), intensity(mu2)
        sources.append(SourceParams.symmetric(
            prob(p_z), prob(eps), p0, prob(p1) * (1.0 - p0),
            prob(mu1) * mu2, mu2, intensity(mu_z),
        ))
    return sources


class ExactProbe:
    name = "exact_probe"
    min_passes = 1

    def __init__(self, workdir: Path, in_process: bool) -> None:
        from snskit import keyrate
        from snskit.tables import TABLE2_EXP

        self.keyrate = keyrate
        self.exp = TABLE2_EXP.at_distance(PROBE_DISTANCE_KM)
        self.sources = restart_box_sources(PROBE_DESIGN_SEED, PROBES)

    def run(self, tracer) -> PassResult:
        evaluate = self.keyrate.evaluate
        if tracer is not None:
            evaluate = tracer.wrap("keyrate.evaluate", evaluate, _count_evaluate)
        latencies, rates = [], []
        for i, src in enumerate(self.sources):
            t0 = perf_counter()
            try:
                rate = evaluate(self.exp, src, method="AB"[i % 2], mode="exact").R
            except Exception:  # a raising probe is a counted failure; the batch goes on
                traceback.print_exc()
                rate = math.nan
            latencies.append(perf_counter() - t0)
            rates.append(rate)
        return PassResult(
            latencies_s=latencies,
            attempted=len(rates),
            failed=sum(not (math.isfinite(r) and r >= 0.0) for r in rates),
            fingerprint={"evaluations": len(rates), "rates": [fmt9(r) for r in rates]},
        )


def run_cli(argv: list[str], tracer=None) -> dict:
    """Call ``snskit.cli.main(argv)``, recording evaluate latencies and rates."""
    from snskit import cli

    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    with optimizer_recorded() as (latencies, results):
        code = main(argv)
    return {"exit_code": code, "latencies_s": latencies, "optimize": results}


class AsymCliScan:
    """``snskit scan`` on the asymmetric config.

    Untraced runs start a fresh interpreter per pass (``cli_child.py``, which
    calls the same ``snskit.cli.main`` as the installed ``snskit`` command);
    traced runs call it in-process so the tracer sees every layer.
    """

    name = "asym_cli_scan"
    min_passes = 2  # the CSV must match a second invocation

    def __init__(self, workdir: Path, in_process: bool) -> None:
        from snskit.config import parse_config

        self.cfg = parse_config(str(ASYM_CONFIG))
        self.in_process = in_process
        self.csv_path = workdir / "asym_cli_scan.csv"
        self.record_path = workdir / "asym_cli_scan-child.json"
        self.argv = ["scan", "--config", str(ASYM_CONFIG), "--out", str(self.csv_path)]
        self.first_csv: bytes | None = None

    def _child(self) -> tuple[dict, float | None]:
        self.record_path.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "cli_child.py"), str(self.record_path), *self.argv],
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        if proc.returncode != 0 or not self.record_path.is_file():
            sys.stderr.write(proc.stderr)
            return {"exit_code": proc.returncode, "latencies_s": [], "optimize": []}, None
        record = json.loads(self.record_path.read_text())
        return record, record.pop("rss_mb")

    def run(self, tracer) -> PassResult:
        self.csv_path.unlink(missing_ok=True)
        if self.in_process:
            record, rss_mb = run_cli(self.argv, tracer), None
        else:
            record, rss_mb = self._child()
        csv = self.csv_path.read_bytes() if self.csv_path.is_file() else b""
        if self.first_csv is None:
            self.first_csv = csv
        rows = csv.decode().splitlines()[1:]
        ok = (
            record["exit_code"] == 0
            and len(rows) == len(self.cfg.distances)
            and all(float(row.split(",")[2]) > 0.0 for row in rows)
            and csv == self.first_csv
        )
        return PassResult(
            latencies_s=record["latencies_s"],
            attempted=1,
            failed=0 if ok else 1,
            fingerprint={"evaluations": len(record["latencies_s"]),
                         "optimize": record["optimize"]},
            rss_mb=rss_mb,
        )


WORKLOADS = {cls.name: cls for cls in (Tables, ExactProbe, AsymCliScan)}
