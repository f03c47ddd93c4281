"""Spans and counters recorded around calls into the package.

A span is (name, start, end, parent).  Its name is the per-layer metric it
feeds, such as "symfunc.s" or "render.json_s", so a layer's self time is
the sum over its spans of duration minus the time covered by child spans.
Spans stay in memory and are written out once, when the traced process
ends.  With `enabled=False` the tracer records nothing, which is how the
untraced half of a trace run times the same calls.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: dict = {}
        self.samples: dict = {}
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n=1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name: str, x: float) -> None:
        if self.enabled:
            self.samples.setdefault(name, []).append(x)


def self_times(spans) -> dict:
    """Sum of self time per span name: duration minus its children's durations."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    out: dict = {}
    for (name, _, _, _), t in zip(spans, own):
        out[name] = out.get(name, 0.0) + t
    return out
