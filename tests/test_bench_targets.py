"""The benchmark reads snskit's module globals by name and copies its box.

``bench/run.py --trace 1`` replaces each ``(module, attr)`` that
``bench/workloads.trace_targets()`` lists, and the ``exact_probe`` workload
maps its probes through its own copy of the optimizer's restart box; a
renamed or dropped import in ``src/``, or a box changed on one side only,
would otherwise show only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from snskit import optimizer

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture
def workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(workloads):
    targets = workloads.trace_targets()
    assert targets
    for module, attr, span, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


@pytest.mark.parametrize("name", ["_RESTART_SPAN", "_P_LO", "_P_HI", "_MU_LO", "_MU_HI"])
def test_probe_box_is_the_optimizer_box(workloads, name):
    assert getattr(workloads, name) == getattr(optimizer, name)
