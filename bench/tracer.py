"""In-memory spans around calls into snskit's layers.

The tracer replaces module globals that one layer uses to call the next
(for example ``snskit.keyrate.simulate``) with timing wrappers, and puts the
originals back when the ``installed`` block ends.  Nothing under ``src/``
changes.  Every span keeps its name, start, end and parent; a layer's self
time is its span's duration minus the time its direct children cover.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped so each call records one span."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, start, end = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_result is not None:
                on_result(self.counters, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap ``(module, attribute, span_name, on_result)`` targets for the block."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
        try:
            for module, attr, name, on_result in targets:
                setattr(module, attr, self.wrap(name, getattr(module, attr), on_result))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def layers(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per span name."""
        if not self.start:
            return {}
        names = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return out

    def top_level_s(self) -> float:
        """Seconds covered by spans that have no parent."""
        if not self.start:
            return 0.0
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        return float(dur[parent < 0].sum())

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )
