"""Result and statistics objects shared by the matching engines.

Both the derivative engine and the backtracking engine report their outcome
through :class:`MatchResult`, which carries the boolean verdict and a
:class:`MatchStats` record used by the benchmarks to explain *why* one engine
is faster than the other (derivative steps vs. decompositions explored, peak
expression size, …).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        search, and global derivative-cache bookkeeping.  They subtract like
        ordinary counters in :meth:`delta_since`.
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

        This **mutates** ``self``; use :meth:`combined` for a pure version
        that leaves both operands untouched.
        """
        self.derivative_steps += other.derivative_steps
        self.decompositions += other.decompositions
        self.rule_applications += other.rule_applications
        self.arc_checks += other.arc_checks
        self.reference_checks += other.reference_checks
        self.prefilter_accepts += other.prefilter_accepts
        self.prefilter_rejects += other.prefilter_rejects
        self.signature_hits += other.signature_hits
        self.signature_misses += other.signature_misses
        self.signature_dedupes += other.signature_dedupes
        self.signature_time += other.signature_time
        self.prefilter_time += other.prefilter_time
        self.dispatch_time += other.dispatch_time
        self.backtrack_time += other.backtrack_time
        self.cache_time += other.cache_time
        self.max_expression_size = max(self.max_expression_size, other.max_expression_size)
        return self

    def copy(self) -> "MatchStats":
        """Return an independent snapshot of the counters."""
        return MatchStats(
            derivative_steps=self.derivative_steps,
            decompositions=self.decompositions,
            rule_applications=self.rule_applications,
            arc_checks=self.arc_checks,
            reference_checks=self.reference_checks,
            prefilter_accepts=self.prefilter_accepts,
            prefilter_rejects=self.prefilter_rejects,
            signature_hits=self.signature_hits,
            signature_misses=self.signature_misses,
            signature_dedupes=self.signature_dedupes,
            signature_time=self.signature_time,
            prefilter_time=self.prefilter_time,
            dispatch_time=self.dispatch_time,
            backtrack_time=self.backtrack_time,
            cache_time=self.cache_time,
            max_expression_size=self.max_expression_size,
        )

    def combined(self, other: "MatchStats") -> "MatchStats":
        """Pure variant of :meth:`merge`: return a new accumulated record."""
        return self.copy().merge(other)

    def delta_since(self, before: "MatchStats") -> "MatchStats":
        """Return the work done since the ``before`` snapshot was taken.

        Counters are subtracted; ``max_expression_size`` is a high-water mark
        and carries over unchanged.  Used by the shared-context bulk path to
        attribute per-entry statistics without aliasing the accumulated
        context record.
        """
        return MatchStats(
            derivative_steps=self.derivative_steps - before.derivative_steps,
            decompositions=self.decompositions - before.decompositions,
            rule_applications=self.rule_applications - before.rule_applications,
            arc_checks=self.arc_checks - before.arc_checks,
            reference_checks=self.reference_checks - before.reference_checks,
            prefilter_accepts=self.prefilter_accepts - before.prefilter_accepts,
            prefilter_rejects=self.prefilter_rejects - before.prefilter_rejects,
            signature_hits=self.signature_hits - before.signature_hits,
            signature_misses=self.signature_misses - before.signature_misses,
            signature_dedupes=self.signature_dedupes - before.signature_dedupes,
            signature_time=self.signature_time - before.signature_time,
            prefilter_time=self.prefilter_time - before.prefilter_time,
            dispatch_time=self.dispatch_time - before.dispatch_time,
            backtrack_time=self.backtrack_time - before.backtrack_time,
            cache_time=self.cache_time - before.cache_time,
            max_expression_size=self.max_expression_size,
        )

    def as_dict(self) -> dict:
        """Return the counters as a plain dictionary (for benchmark tables)."""
        return {
            "derivative_steps": self.derivative_steps,
            "decompositions": self.decompositions,
            "rule_applications": self.rule_applications,
            "arc_checks": self.arc_checks,
            "reference_checks": self.reference_checks,
            "prefilter_accepts": self.prefilter_accepts,
            "prefilter_rejects": self.prefilter_rejects,
            "signature_hits": self.signature_hits,
            "signature_misses": self.signature_misses,
            "signature_dedupes": self.signature_dedupes,
            "signature_time": self.signature_time,
            "prefilter_time": self.prefilter_time,
            "dispatch_time": self.dispatch_time,
            "backtrack_time": self.backtrack_time,
            "cache_time": self.cache_time,
            "max_expression_size": self.max_expression_size,
        }


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
    stats: MatchStats = field(default_factory=MatchStats)
    #: True when the verdict hit the recursion-depth budget instead of being
    #: derived semantically (see :attr:`MatchResult.limit_exceeded`).
    limit_exceeded: bool = False

    def __str__(self) -> str:
        verdict = "conforms to" if self.conforms else "does NOT conform to"
        suffix = f" ({self.reason})" if self.reason and not self.conforms else ""
        return f"{self.node.n3()} {verdict} {self.label}{suffix}"
