"""The benchmark's tracer wraps snskit's module globals by name.

``bench/run.py --trace 1`` replaces each ``(module, attr)`` that
``bench/workloads.trace_targets()`` lists; a renamed or dropped import in
``src/`` would otherwise break it only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def test_every_trace_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    targets = workloads.trace_targets()
    assert targets
    for module, attr, span, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"
