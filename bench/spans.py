"""Spans around the benchmark's calls into the package layers.

Every call into a public function of `geometry`, `spectral`, `brownian`,
`theta` or `_rng` goes through `Tracer.span` (or `Tracer.call`).  With
tracing off these cost one Python frame and record nothing; with tracing on
each records one span: name, start, end, parent span and optional counts.
Span names are "<layer>.<function>", plus "round" and "check.<name>" for the
benchmark's own grouping, so a layer's self time is the summed duration of
its spans minus the part their child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; `enabled=False` makes it a pass-through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), parent, name, time.perf_counter(), counts=counts)
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def to_records(self) -> list[dict]:
        return [{"id": s.id, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end, **s.counts}
                for s in self.spans]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.duration - child[s.id]
    return out


def totals(spans: list[Span], name: str) -> tuple[float, int, dict]:
    """Summed duration, call count and summed counts of spans named `name`."""
    dur = 0.0
    calls = 0
    counts: dict[str, float] = {}
    for s in spans:
        if s.name == name:
            dur += s.duration
            calls += 1
            for key, val in s.counts.items():
                counts[key] = counts.get(key, 0) + val
    return dur, calls, counts
