"""A small nested span recorder for the benchmark's traced run.

Spans are placed by the benchmark around its calls into the program's
layers; they live in memory and are summarised when the run ends.  A
span's *self time* is its duration minus the time its direct children
cover, so the self times of a tree add up to the root's wall time.
With ``enabled=False`` a span costs one attribute check.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

__all__ = ["Span", "SpanRecorder"]


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: Optional[int] = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    def __init__(self, enabled: bool = True, clock=time.perf_counter_ns):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._clock = clock
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, self._clock(), parent=parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end_ns = self._clock()

    def self_ns(self) -> List[int]:
        """Self time of every recorded span, index-aligned with ``spans``."""
        own = [span.duration_ns for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration_ns
        return own

    def total_ns(self, name: str) -> int:
        """Summed duration of every span called ``name``."""
        return sum(span.duration_ns for span in self.spans if span.name == name)

    def self_by_name(self) -> Dict[str, int]:
        """Summed self time per span name."""
        totals: Dict[str, int] = {}
        for span, own in zip(self.spans, self.self_ns()):
            totals[span.name] = totals.get(span.name, 0) + own
        return totals
