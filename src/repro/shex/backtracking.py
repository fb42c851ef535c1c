"""Backtracking matcher: direct implementation of the inference rules.

Figure 1 of the paper gives an operational semantics for regular shape
expressions as inference rules::

    Or1    r1 ≃ g ⟹ r1|r2 ≃ g          Or2   r2 ≃ g ⟹ r1|r2 ≃ g
    And    r1 ≃ g1, r2 ≃ g2 ⟹ r1 ‖ r2 ≃ g1 ⊕ g2
    Empty  ε ≃ {}
    Star1  r* ≃ {}
    Star2  r ≃ g1, r* ≃ g2 ⟹ r* ≃ g1 ⊕ g2
    Arc    p ∈ vp, o ∈ vo ⟹ vp → vo ≃ ⟨s, p, o⟩

Executing the ``And`` and ``Star2`` rules requires guessing the decomposition
``g = g1 ⊕ g2``, so the naïve implementation enumerates all ``2ⁿ`` splits of
the candidate graph (Example 3) and backtracks — Section 5 shows the
resulting trace and notes the exponential blow-up.  This module implements
that algorithm faithfully (it *is* the paper's baseline), with two practical
additions: an optional step budget so benchmarks can cap runaway cases, and
statistics counters so the benchmarks can report how many decompositions were
explored.

Figure 4 extends the rules with shape typings; the ``Arcref`` rule is handled
by delegating to the context's ``check_reference``, exactly as in the
derivative engine, so recursion behaves identically in both engines (see
:mod:`repro.shex.schema` and :mod:`repro.shex.reference`).
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import FrozenSet, Iterable, Iterator, Optional, Tuple

from ..rdf.graph import decompositions
from ..rdf.terms import Triple
from .expressions import (
    And,
    Arc,
    Empty,
    EmptyTriples,
    Or,
    ShapeExpr,
    Star,
)
from .node_constraints import ShapeRef
from .results import MatchResult, MatchStats
from .schema import ValidationContext

__all__ = ["BacktrackingEngine", "BacktrackingBudgetExceeded", "matches_backtracking"]


class BacktrackingBudgetExceeded(Exception):
    """Raised when the matcher exceeds its configured step budget.

    The benchmarks use this to stop hopeless runs (the whole point of the
    paper is that these runs explode) without hanging the harness.
    """

    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(
            f"backtracking matcher exceeded its budget of {budget} rule applications"
        )


class BacktrackingEngine:
    """Matcher that executes the Figure 1 / Figure 4 inference rules directly.

    Parameters
    ----------
    budget:
        maximum number of rule applications before
        :class:`BacktrackingBudgetExceeded` is raised; ``None`` (default)
        means unlimited, which reproduces the paper's naïve implementation.
    """

    name = "backtracking"

    #: below this neighbourhood size the search runs on the caller's stack;
    #: the decomposition space is too small for stack placement to matter.
    _SEARCH_THREAD_MIN_TRIPLES = 6

    def __init__(self, budget: Optional[int] = None):
        self.budget = budget
        self._search_thread: Optional[threading.Thread] = None

    # -- public API -------------------------------------------------------------
    def match_neighbourhood(self, expr: ShapeExpr, triples: FrozenSet[Triple],
                            context: Optional[ValidationContext] = None) -> MatchResult:
        """Match a node neighbourhood against ``expr`` by backtracking search."""
        stats = MatchStats()
        triples = frozenset(triples)
        # per-phase profile: backtracking search time, accumulated into the
        # context's stats when one is present (mirroring dispatch_time in the
        # derivative engine), else into the local record.
        target = context.stats if context is not None else stats
        start = perf_counter()
        try:
            matched = self._search(expr, triples, context, stats)
        finally:
            target.backtrack_time += perf_counter() - start
        if matched:
            return MatchResult(True, stats)
        return MatchResult(
            False, stats,
            reason=f"no derivation tree found for {len(triples)} triples",
        )

    __call__ = match_neighbourhood

    # -- rule interpreter ---------------------------------------------------------
    def _search(self, expr: ShapeExpr, triples: FrozenSet[Triple],
                context: Optional[ValidationContext], stats: MatchStats) -> bool:
        """Run the exponential search from a deterministic stack depth.

        CPython 3.11 allocates the interpreter frame stack in fixed-size
        chunks; a recursion that oscillates across a chunk edge pays a page
        allocation and release per crossing, so the wall time of a deep
        backtracking search can swing an order of magnitude with the
        *caller's* stack depth.  Running the top-level search on a fresh
        thread pins the starting depth to a small constant, making the cost
        reproducible no matter how deeply the harness buried the call.
        Re-entries through ``check_reference`` already execute on the search
        thread and stay inline, as do small neighbourhoods where the search
        cannot go deep enough to care.
        """
        if (len(triples) < self._SEARCH_THREAD_MIN_TRIPLES
                or self._search_thread is threading.current_thread()):
            return self._match(expr, triples, context, stats)
        outcome = []

        def run() -> None:
            try:
                outcome.append((True, self._match(expr, triples, context, stats)))
            except BaseException as error:  # re-raised on the calling thread
                outcome.append((False, error))

        worker = threading.Thread(target=run, name="backtracking-search",
                                  daemon=True)
        self._search_thread = worker
        try:
            worker.start()
            worker.join()
        finally:
            self._search_thread = None
        ok, payload = outcome[0]
        if ok:
            return payload
        raise payload

    def _tick(self, stats: MatchStats) -> None:
        stats.rule_applications += 1
        if self.budget is not None and stats.rule_applications > self.budget:
            raise BacktrackingBudgetExceeded(self.budget)

    def _match(self, expr: ShapeExpr, triples: FrozenSet[Triple],
               context: Optional[ValidationContext], stats: MatchStats) -> bool:
        self._tick(stats)
        if isinstance(expr, Empty):
            # ∅ has no matching graph at all
            return False
        if isinstance(expr, EmptyTriples):
            # rule Empty: ε ≃ {}
            return not triples
        if isinstance(expr, Arc):
            # rule Arc / Arctype / Arcref: exactly one triple
            return self._match_arc(expr, triples, context, stats)
        if isinstance(expr, Or):
            # rules Or1 / Or2, one operand at a time
            return any(self._match(operand, triples, context, stats)
                       for operand in expr.operands)
        if isinstance(expr, And):
            # rule And on r1 ‖ r2 with r1 the first operand and r2 the rest:
            # try every decomposition g = g1 ⊕ g2
            first, *rest = expr.operands
            rest_expr = rest[0] if len(rest) == 1 else And(*rest)
            for left_part, right_part in self._decompositions(triples, stats):
                if (self._match(first, left_part, context, stats)
                        and self._match(rest_expr, right_part, context, stats)):
                    return True
            return False
        if isinstance(expr, Star):
            return self._match_star(expr, triples, context, stats)
        raise TypeError(f"unknown shape expression: {expr!r}")

    def _match_arc(self, expr: Arc, triples: FrozenSet[Triple],
                   context: Optional[ValidationContext], stats: MatchStats) -> bool:
        if len(triples) != 1:
            return False
        (triple,) = triples
        stats.arc_checks += 1
        if not expr.predicate.matches(triple.predicate):
            return False
        constraint = expr.object
        if isinstance(constraint, ShapeRef):
            if context is None:
                raise TypeError(
                    "matching a shape-reference arc requires a ValidationContext"
                )
            return context.check_reference(triple.object, constraint.label).matched
        return constraint.matches(triple.object)

    def _match_star(self, expr: Star, triples: FrozenSet[Triple],
                    context: Optional[ValidationContext], stats: MatchStats) -> bool:
        # rule Star1
        if not triples:
            return True
        # rule Star2: g = g1 ⊕ g2 with r ≃ g1 and r* ≃ g2.  The g1 = {} split
        # would recurse forever, so only non-empty g1 candidates are explored
        # (the paper's trace in Figure 2 does the same implicitly).
        for left_part, right_part in self._decompositions(triples, stats):
            if not left_part:
                continue
            if (self._match(expr.expr, left_part, context, stats)
                    and self._match(expr, right_part, context, stats)):
                return True
        return False

    def _decompositions(self, triples: FrozenSet[Triple],
                        stats: MatchStats) -> Iterator[Tuple[FrozenSet[Triple], FrozenSet[Triple]]]:
        for pair in decompositions(triples):
            stats.decompositions += 1
            if self.budget is not None and stats.decompositions > self.budget:
                raise BacktrackingBudgetExceeded(self.budget)
            yield pair


def matches_backtracking(expr: ShapeExpr, triples: Iterable[Triple],
                         context: Optional[ValidationContext] = None,
                         budget: Optional[int] = None) -> bool:
    """Convenience wrapper: decide ``Σ ∈ Sₙ[[e]]`` with the backtracking engine."""
    engine = BacktrackingEngine(budget=budget)
    return engine.match_neighbourhood(expr, frozenset(triples), context).matched
