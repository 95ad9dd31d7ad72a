"""Run ``snskit.cli.main`` in a fresh interpreter and record what the benchmark needs.

Usage: python3 bench/cli_child.py RECORD_PATH CLI_ARGS...

Writes the evaluate latencies, each optimize result's rate and evaluation
count, and the process's peak RSS to RECORD_PATH as JSON, then exits with
the CLI's exit code.  ``snskit`` must be importable (the runner puts the
checkout's ``src`` on PYTHONPATH).
"""

import json
import resource
import sys

from workloads import run_cli


def main() -> int:
    record_path, argv = sys.argv[1], sys.argv[2:]
    record = run_cli(argv)
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return record["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
