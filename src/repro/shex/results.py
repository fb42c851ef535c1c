"""Result and statistics objects shared by the matching engines.

Both the derivative engine and the backtracking engine report their outcome
through :class:`MatchResult`, which carries the boolean verdict and a
:class:`MatchStats` record used by the benchmarks to explain *why* one engine
is faster than the other (derivative steps vs. decompositions explored, peak
expression size, …).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Optional

__all__ = ["MatchStats", "MatchResult", "ValidationReportEntry"]


@dataclass
class MatchStats:
    """Counters describing the work performed during one match.

    Attributes
    ----------
    derivative_steps:
        number of single-triple derivatives computed (derivative engine).
    decompositions:
        number of graph decompositions enumerated (backtracking engine);
        this is the exponential factor the paper highlights in Example 3.
    rule_applications:
        number of inference-rule applications attempted (backtracking engine).
    arc_checks:
        number of arc constraint evaluations (both engines).
    reference_checks:
        number of recursive shape-reference validations triggered.
    prefilter_accepts / prefilter_rejects:
        ``(node, label)`` pairs decided statically by the compiled-schema
        prefilter (:mod:`repro.shex.compiled`), without running an engine.
    signature_hits / signature_misses / signature_dedupes:
        neighbourhood-signature cache traffic: lookups answered from the
        :class:`~repro.shex.cache.SignatureCache`, lookups that missed, and
        verdicts *stored* for structurally identical nodes to reuse later.
        A hit means the engine never ran for that ``(node, label)`` pair.
    signature_time / prefilter_time / dispatch_time / backtrack_time /
    cache_time:
        per-phase wall-clock accumulators (seconds) for the profile-guided
        hot path: signature construction + cache probes, static prefilter
        passes, the flattened derivative dispatch loop, backtracking-engine
        search, and global derivative-cache bookkeeping.
    max_expression_size:
        largest expression (AST node count) materialised during matching;
        tracks the derivative growth discussed in Example 10.
    """

    derivative_steps: int = 0
    decompositions: int = 0
    rule_applications: int = 0
    arc_checks: int = 0
    reference_checks: int = 0
    prefilter_accepts: int = 0
    prefilter_rejects: int = 0
    signature_hits: int = 0
    signature_misses: int = 0
    signature_dedupes: int = 0
    signature_time: float = 0.0
    prefilter_time: float = 0.0
    dispatch_time: float = 0.0
    backtrack_time: float = 0.0
    cache_time: float = 0.0
    max_expression_size: int = 0

    def observe_expression_size(self, size: int) -> None:
        """Record the size of an intermediate expression."""
        if size > self.max_expression_size:
            self.max_expression_size = size

    def merge(self, other: "MatchStats") -> "MatchStats":
        """Accumulate ``other`` into this record and return ``self``.

        Every counter and timer is summed except ``max_expression_size``,
        which takes the larger value.  This **mutates** ``self``; use
        :meth:`combined` for a pure version that leaves both operands
        untouched.
        """
        for name in _SUMMED:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.max_expression_size = max(self.max_expression_size, other.max_expression_size)
        return self

    def copy(self) -> "MatchStats":
        """Return an independent snapshot of the counters."""
        return MatchStats(*_counters(self))

    def combined(self, other: "MatchStats") -> "MatchStats":
        """Pure variant of :meth:`merge`: return a new accumulated record."""
        return self.copy().merge(other)

    def as_dict(self) -> dict:
        """Return the counters as a plain dictionary (for benchmark tables),
        in field order."""
        return dict(zip(_NAMES, _counters(self)))


#: every counter of a :class:`MatchStats`, in field order.
_NAMES = tuple(counter.name for counter in fields(MatchStats))
#: the counters :meth:`MatchStats.merge` sums (all but the peak size).
_SUMMED = tuple(name for name in _NAMES if name != "max_expression_size")
#: the values of every counter, in field order, in one C call.
_counters = attrgetter(*_NAMES)


@dataclass
class MatchResult:
    """The outcome of matching one neighbourhood against one expression."""

    matched: bool
    stats: MatchStats = field(default_factory=MatchStats)
    #: human-readable explanation of a failure (empty on success).
    reason: str = ""
    #: True when the verdict was forced by resource exhaustion (recursion
    #: depth budget) rather than derived semantically.  Such outcomes are
    #: never cached by the validation context: re-validating with a fresh
    #: budget may well succeed.
    limit_exceeded: bool = False

    def __bool__(self) -> bool:
        return self.matched

    @classmethod
    def success(cls, stats: Optional[MatchStats] = None) -> "MatchResult":
        """Build a successful result."""
        return cls(True, stats or MatchStats())

    @classmethod
    def failure(cls, reason: str = "", stats: Optional[MatchStats] = None,
                limit_exceeded: bool = False) -> "MatchResult":
        """Build a failed result with an optional explanation."""
        return cls(False, stats or MatchStats(), reason, limit_exceeded)


@dataclass
class ValidationReportEntry:
    """One line of a validation report: a node, a shape and the verdict."""

    node: object
    label: object
    conforms: bool
    reason: str = ""
    #: True when the verdict hit the recursion-depth budget instead of being
    #: derived semantically (see :attr:`MatchResult.limit_exceeded`).
    limit_exceeded: bool = False

    def __str__(self) -> str:
        verdict = "conforms to" if self.conforms else "does NOT conform to"
        suffix = f" ({self.reason})" if self.reason and not self.conforms else ""
        return f"{self.node.n3()} {verdict} {self.label}{suffix}"
