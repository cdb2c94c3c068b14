"""In-memory spans and counters, and the self times derived from them.

A span records a name, a start and end time (``time.perf_counter``, or the
clock the tracer is given) and the
index of the span that was open when it started. Spans stay in memory until
the caller reads them; nothing is written while a unit of work runs.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None for a root span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder with named counters."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording a span per call.

        ``count(args, kwargs, result)`` may return counter increments,
        which are added once the call returns.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                self.counters.update(count(args, kwargs, result))
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, total self seconds)."""
        self_times = self_seconds(self.spans)
        out: dict[str, tuple[int, float, float]] = {}
        for span, own in zip(self.spans, self_times):
            calls, total, total_self = out.get(span.name, (0, 0.0, 0.0))
            out[span.name] = (calls + 1, total + span.duration, total_self + own)
        return out


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out
