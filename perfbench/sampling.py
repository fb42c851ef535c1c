"""Sample arithmetic and failure accounting for the standing benchmark.

Percentiles use the nearest-rank definition: the ``q``-percentile of ``n``
sorted samples is the sample at 1-based rank ``ceil(q * n)``.  The number
of samples *beyond* it is then ``n - ceil(q * n)``, which is what the
benchmark asserts stays at least :data:`MIN_BEYOND` for every percentile it
reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

__all__ = ["MIN_BEYOND", "percentile", "samples_beyond", "min_samples_for",
           "Tally", "SampleCountError", "check_samples"]

#: every reported percentile needs at least this many samples above it.
MIN_BEYOND = 10


def _rank(q: float, n: int) -> int:
    if not 0 < q <= 1:
        raise ValueError(f"percentile {q!r} is outside (0, 1]")
    if n < 1:
        raise ValueError("a percentile of no samples is undefined")
    # round first so 0.9 * 100 is rank 90, not 91 from float fuzz
    return max(1, math.ceil(round(q * n, 9)))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-percentile (``q`` in ``(0, 1]``; 0.5 → median)."""
    ordered = sorted(samples)
    return ordered[_rank(q, len(ordered)) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-percentile."""
    return n - _rank(q, n)


def min_samples_for(q: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count that leaves ``beyond`` samples above ``q``."""
    n = 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


class SampleCountError(AssertionError):
    """A percentile was asked of too few samples to mean anything."""


def check_samples(name: str, samples: Sequence[float], q: float) -> None:
    """Raise unless ``samples`` leave :data:`MIN_BEYOND` beyond ``q``."""
    if not samples or samples_beyond(len(samples), q) < MIN_BEYOND:
        raise SampleCountError(
            f"{name}: {len(samples)} samples leave "
            f"{samples_beyond(len(samples), q) if samples else 0} beyond "
            f"p{round(q * 100)}; need {MIN_BEYOND}")


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure.

    An operation fails when it raises, returns a non-2xx status (the client
    raises for those) or returns a wrong answer.  ``failed_frac`` is
    failures over attempts.
    """

    attempted: int = 0
    failed: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)
    examples: List[str] = field(default_factory=list)

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, kind: str, detail: str = "") -> None:
        self.failed += 1
        self.reasons[kind] = self.reasons.get(kind, 0) + 1
        if len(self.examples) < 5:
            self.examples.append(f"{kind}: {detail}"[:300])

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
