"""Compare two sets of benchmark results.

    python3 bench/compare.py BASE NEW

BASE and NEW are each a results file written by ``bench/run.py`` or a
directory of them (one file per workload, seed and trace setting).  For every
(workload, metric) pair found on both sides the script prints both medians
with their quartiles, the ratio NEW/BASE and a verdict:

better        at least ten seed-matched pairs, NEW wins at least nine tenths
              of them (ties count for neither), and the medians differ by
              more than BASE's quartile distance
worse         an end-to-end metric whose NEW median is worse than BASE's by
              more than the bound in BENCHMARK.json; for a per-layer metric,
              the mirror image of the "better" rule
unresolved    BASE's quartile distance is wider than the bound and NEW does
              not read better on every run, or a per-layer metric that is
              neither better nor worse
within-bound  no gain shown and no regression beyond the bound
identical     every pair reads exactly the same, as counts should

It also reports, per workload and seed, whether the result fingerprints
(evaluation counts and rates) are identical.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
# Written to every results file but not bounded in BENCHMARK.json.
EXTRA_METRICS = {
    "eval_p90_ms": {"better": "lower"},
    "failed_share": {"better": "lower"},
    "rate_rel_min": {"better": "higher"},
}


def load(path: Path) -> dict:
    """{(workload, trace): {seed: record}} from a results file or directory."""
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    runs: dict = {}
    for f in files:
        record = json.loads(f.read_text(encoding="utf-8"))
        key = (record["workload"], record["trace"])
        runs.setdefault(key, {})[record["environment"]["seed"]] = record
    return runs


def quartile_distance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(pairs: list[tuple[float, float]], higher_is_better: bool, bound: float | None) -> str:
    if all(b == n for b, n in pairs):
        return "identical"
    sign = 1.0 if higher_is_better else -1.0
    base = [b for b, _ in pairs]
    new = [n for _, n in pairs]
    mb, mn = statistics.median(base), statistics.median(new)
    spread = quartile_distance(base)
    gain = sign * (mn - mb)

    def decisive(won: int) -> bool:
        return len(pairs) >= MIN_PAIRS and won >= WIN_SHARE * len(pairs)

    if decisive(sum(sign * (n - b) > 0 for b, n in pairs)) and gain > spread:
        return "better"
    if bound is None:
        if decisive(sum(sign * (n - b) < 0 for b, n in pairs)) and -gain > spread:
            return "worse"
        return "unresolved"
    if -gain > bound * abs(mb):
        return "worse"
    all_new_better = min(sign * n for n in new) > max(sign * b for b in base)
    if mb and spread / abs(mb) > bound and not all_new_better:
        return "unresolved"
    return "within-bound"


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    defs.update(EXTRA_METRICS)
    base_runs, new_runs = load(Path(argv[0])), load(Path(argv[1]))
    print(f"{'workload':<14} {'metric':<36} {'base median [q1, q3] (n)':<36} "
          f"{'new median (n)':<20} {'ratio':>7}  verdict")
    for key in sorted(set(base_runs) & set(new_runs)):
        base, new = base_runs[key], new_runs[key]
        seeds = sorted(set(base) & set(new))
        matched = [(base[s], new[s]) for s in seeds] or list(
            zip((base[s] for s in sorted(base)), (new[s] for s in sorted(new))))
        for name, d in defs.items():
            pairs = [(b["metrics"][name]["value"], n["metrics"][name]["value"])
                     for b, n in matched if name in b["metrics"] and name in n["metrics"]]
            if not pairs:
                continue
            b_vals = [b for b, _ in pairs]
            mb, mn = statistics.median(b_vals), statistics.median(n for _, n in pairs)
            q = statistics.quantiles(b_vals, n=4) if len(b_vals) >= 2 else [mb, mb, mb]
            ratio = f"{mn / mb:7.3f}" if mb else "      -"
            print(f"{key[0]:<14} {name:<36} "
                  f"{f'{mb:.4g} [{q[0]:.4g}, {q[2]:.4g}] ({len(pairs)})':<36} "
                  f"{f'{mn:.4g} ({len(pairs)})':<20} {ratio}  "
                  f"{verdict(pairs, d['better'] == 'higher', d.get('bound'))}")
        differ = [s for s in seeds if base[s]["fingerprint"] != new[s]["fingerprint"]]
        print(f"{key[0]:<14} fingerprints: {len(seeds) - len(differ)} of {len(seeds)} "
              f"seeds identical" + (f"; differ for seeds {differ}" if differ else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
