"""Benchmark runner for snskit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The runner puts the checkout's ``src`` on
the import path, measures set-up in fresh interpreters, then runs passes of
the workload (closed loop, one caller) until about ``--seconds`` have been
spent, at least ``min_passes`` times.  It checks every pass's output, prints
each metric with its unit and sample count, writes a results file to
``bench/results/`` and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
The seed names the run and its results file; the workloads' inputs are fixed
(``workloads.py`` says why).

SNSKIT_THREADS is pinned to 1: optimizer worker processes would escape the
tracer and compete with the measured process for the machine's cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60.0
THREADS_NOTE = (
    "SNSKIT_THREADS=1: worker processes would escape the tracer and compete "
    "with the measured process for the cores"
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="snskit benchmark runner")
    parser.add_argument("--workload", required=True, choices=("tables", "exact_probe", "asym_cli_scan"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser


def _setup_child(workload: str) -> int:
    """Fresh-interpreter set-up: import snskit, then build the workload's inputs."""
    t0 = perf_counter()
    import snskit  # noqa: F401

    t1 = perf_counter()
    import workloads

    workloads.WORKLOADS[workload](RESULTS, in_process=True)
    print(json.dumps({"import_s": t1 - t0, "build_s": perf_counter() - t1}))
    return 0


def _measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Wall time of fresh set-up processes, and the import time each reports."""
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", workload],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        walls.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return walls, imports


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "SNSKIT_THREADS": os.environ["SNSKIT_THREADS"],
        "threads_note": THREADS_NOTE,
    }


def _run_passes(workload, seconds: float, trace: bool):
    """Closed loop of passes; with tracing, every second pass is traced."""
    import workloads
    from tracer import Tracer

    tracer = Tracer() if trace else None
    min_passes = max(workload.min_passes, 2 if trace else 1)
    passes = []  # (seconds, traced, PassResult)
    began = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = perf_counter()
        if traced:
            with tracer.installed(workloads.trace_targets()):
                result = workload.run(tracer)
        else:
            result = workload.run(None)
        passes.append((perf_counter() - t0, traced, result))
        typical = statistics.median(p[0] for p in passes)
        if len(passes) >= min_passes and perf_counter() - began + typical > seconds:
            return passes, tracer


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _end_to_end(passes, setup_walls, results) -> dict:
    import numpy as np

    latencies = [x for _, _, r in passes for x in r.latencies_s]
    p50, p90 = np.percentile(latencies, [50, 90]) * 1e3
    child_rss = [r.rss_mb for _, _, r in passes if r.rss_mb is not None]
    rss = max(child_rss) if child_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    metrics = {
        "wall_s": _metric(statistics.median(p[0] for p in passes), "s", len(passes)),
        "setup_s": _metric(statistics.median(setup_walls), "s", len(setup_walls)),
        "peak_rss_mb": _metric(rss, "MB", len(child_rss) or 1),
        "eval_p50_ms": _metric(float(p50), "ms", len(latencies)),
        "eval_p90_ms": _metric(float(p90), "ms", len(latencies)),
        "failed_share": _metric(failed / attempted, "share", attempted),
    }
    rel = [r.rate_rel_min for r in results if r.rate_rel_min is not None]
    if rel:
        metrics["rate_rel_min"] = _metric(min(rel), "ratio", len(rel))
    return metrics


def _per_layer(passes, tracer, setup_imports) -> dict:
    traced = [d for d, t, _ in passes if t]
    plain = [d for d, t, _ in passes if not t]
    n = len(traced)
    layers = tracer.layers()
    counters = tracer.counters

    def layer(name: str) -> dict:
        return layers.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {}
    for name in ("stats.chernoff_expected", "stats.chernoff_observed",
                 "stats.invert_tail_for_p", "stats.invert_tail_for_m",
                 "stats.binomial_tail", "channel.simulate", "decoy.estimate_untagged",
                 "zigzag.run_zigzag", "keyrate.evaluate", "optimizer.optimize"):
        metrics[f"{name}.calls"] = _metric(layer(name)["calls"] / n, "count", n)
        metrics[f"{name}.self_s"] = _metric(layer(name)["self_s"] / n, "s", n)
    metrics["stats.mcdiarmid.calls"] = _metric(layer("stats.mcdiarmid")["calls"] / n, "count", n)
    tails = layer("stats.binomial_tail")["calls"]
    metrics["stats.binomial_tail.small_n_share"] = _metric(
        share(counters["binomial_tail.summation"], tails), "share", tails)
    evals = layer("keyrate.evaluate")["calls"]
    metrics["keyrate.evaluate.zero_rate_share"] = _metric(
        share(counters["evaluate.zero_rate"], evals), "share", evals)
    opt_evals = counters["optimizer.evals"]
    metrics["optimizer.evals"] = _metric(opt_evals / n, "count", n)
    metrics["optimizer.evals_per_s"] = _metric(
        share(opt_evals, layer("optimizer.optimize")["total_s"]), "1/s", n)
    metrics["optimizer.positive_eval_share"] = _metric(
        share(counters["optimizer.positive_evals"], opt_evals), "share", opt_evals)
    metrics["optimizer.zero_rate_results"] = _metric(
        counters["optimizer.zero_rate_results"] / n, "count", n)
    metrics["import.snskit_s"] = _metric(statistics.median(setup_imports), "s", len(setup_imports))
    metrics["config.parse_config_s"] = _metric(layer("config.parse_config")["total_s"] / n, "s", n)
    metrics["cli.main.self_s"] = _metric(layer("cli.main")["self_s"] / n, "s", n)
    metrics["trace.overhead_share"] = _metric(
        statistics.median(traced) / statistics.median(plain) - 1.0, "share", len(passes))
    metrics["trace.coverage"] = _metric(tracer.top_level_s() / sum(traced), "share", n)
    return metrics


def main(argv: "list[str] | None" = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "snskit" / "__init__.py").is_file():
        print(f"error: no snskit sources at {SRC}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    os.environ["SNSKIT_THREADS"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    sys.path.insert(0, str(SRC))
    RESULTS.mkdir(exist_ok=True)
    if args.setup_only:
        return _setup_child(args.workload)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    setup_walls, setup_imports = _measure_setup(args.workload)

    import workloads

    workload = workloads.WORKLOADS[args.workload](RESULTS, in_process=bool(args.trace))
    passes, tracer = _run_passes(workload, args.seconds, bool(args.trace))
    results = [r for _, _, r in passes]
    first = results[0].fingerprint
    repeatable = all(r.fingerprint == first for r in results)
    if not repeatable:
        print("error: passes over the same inputs gave different results", file=sys.stderr)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    if args.trace:
        metrics = _per_layer(passes, tracer, setup_imports)
        tracer.save(RESULTS / f"{args.workload}-seed{args.seed}-spans.npz")
    else:
        metrics = _end_to_end(passes, setup_walls, results)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": _environment(args.seed),
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "pass_seconds": [d for d, _, _ in passes],
        "pass_traced": [t for _, t, _ in passes],
        "setup_seconds": setup_walls,
        "fingerprint": first,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  attempted {attempted}  failed {failed}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<6} samples {m['samples']}")
    print(f"results: {(RESULTS / stem).relative_to(ROOT)}.json")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not computed: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
