"""In-memory spans around the layer calls the benchmark makes.

A span is ``(name, start, end, parent, step)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``step`` groups the spans of one
workload call.  Spans stay in memory until ``write`` dumps them as JSON
lines.  A disabled tracer hands out one shared no-op context, so untimed
code paths pay one function call per layer.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        stack = tracer._stack
        self.index = len(tracer.spans)
        tracer.spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, tracer.step])
        stack.append(self.index)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[list] = []
        self.step = 0
        self._stack: list[int] = []
        # when a list, layer() also appends (name, fn, arg shapes, arg requires_grad)
        self.calls: list | None = None

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def layer(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span named after the layer."""
        if self.calls is not None:
            self.calls.append((name, fn, [a.shape for a in args], [a.requires_grad for a in args]))
        if not self.enabled:
            return fn(*args)
        with _Span(self, name):
            return fn(*args)

    def self_times_ms(self) -> dict[str, list[float]]:
        """Per span name, the summed self time of each step, in ms.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        own = [(s[2] - s[1]) for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        per_step: dict[tuple[str, int], float] = {}
        for s, t in zip(self.spans, own):
            per_step[(s[0], s[4])] = per_step.get((s[0], s[4]), 0.0) + t
        out: dict[str, list[float]] = {}
        for (name, _), t in sorted(per_step.items(), key=lambda kv: kv[0][1]):
            out.setdefault(name, []).append(1e3 * t)
        return out

    def durations_ms(self, name: str) -> list[float]:
        return [1e3 * (s[2] - s[1]) for s in self.spans if s[0] == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, step in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "step": step}) + "\n")

