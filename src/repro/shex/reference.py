"""The reference context: the paper's recursive ``MatchShape`` descent.

The typing context of ``Validator(reference=True)``, the oracle production's
:class:`~repro.shex.schema.FixpointContext` is tested against.  Only the
reference validator imports this module, on first use.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List, Optional, Set

from ..rdf.graph import Graph
from ..rdf.terms import ObjectTerm
from .results import MatchResult
from .schema import NeighbourhoodMatcher, Schema, SchemaError, ValidationContext, _Pair
from .typing import ShapeLabel

__all__ = ["ReferenceContext", "FRAMES_PER_HOP", "MAX_RECURSION_DEPTH"]

#: Python frames the derivative engine spends on one ``@label`` reference hop
#: besides the walk down the referencing expression: ``check_reference`` →
#: ``match_neighbourhood`` → ``derivative`` → atom dispatch → ``_derive_arc``.
#: Pinned by ``tests/test_recursion_budget.py``.
FRAMES_PER_HOP = 5

#: reference hops one descent may take before its pairs get
#: ``limit_exceeded``: the budget of every context the reference validator
#: creates.
MAX_RECURSION_DEPTH = 500

#: frames kept free below the deepest reference chain, for the caller's own
#: stack (CLI, HTTP handler thread) and the node-constraint checks at a leaf.
#: A descent also checks the recursion limit once it has used about this
#: many frames, so shallow runs never touch the limit.
STACK_HEADROOM = 256

_RECURSION_LIMIT_LOCK = threading.Lock()

#: sentinel dependency depth marking an outcome forced by the recursion-depth
#: budget; it never resolves (no frame ever settles at this depth), so the
#: poison propagates to every enclosing frame and nothing gets cached.
_BUDGET_POISON = -1


def _reserve_recursion_limit(frames: int) -> int:
    """Raise the interpreter's recursion limit to fit ``frames`` more frames.

    Returns the limit that fits them.  The limit is process-wide and only
    ever raised, under a lock, so concurrent sessions on server threads
    cannot lower each other's.
    """
    frame, depth = sys._getframe(), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    with _RECURSION_LIMIT_LOCK:
        if depth + frames > sys.getrecursionlimit():
            sys.setrecursionlimit(depth + frames)
    return depth + frames


class ReferenceContext(ValidationContext):
    """The typing context of the paper's recursive algorithm.

    The context records the *hypotheses*: the ``(node, label)`` pairs whose
    validation is currently in progress.  When an arc references a label and
    the object node is already hypothesised for that label, the reference is
    assumed to hold, which is exactly the coinductive reading of the
    ``MatchShape`` rule and guarantees termination on cyclic data
    (``:alice foaf:knows :bob . :bob foaf:knows :alice .``).  Verdicts are
    cached soundly: a verdict derived while the subtree consulted an
    in-progress hypothesis from an **enclosing** frame is provisional and is
    only promoted once the frame that owns the hypothesis settles
    successfully; failures with such dependencies, and any outcome forced by
    the ``max_recursion_depth`` budget, are never cached at all.

    Provisional parking is what keeps the descent polynomial: without it a
    complete 8-node ``foaf:knows`` graph takes 13,700 matcher calls for one
    node instead of 8 (``tests/test_reference.py``).
    """

    def __init__(self, graph: Graph, schema: Optional[Schema],
                 matcher: NeighbourhoodMatcher,
                 max_recursion_depth: int = MAX_RECURSION_DEPTH):
        super().__init__(graph, schema, matcher)
        #: hypothesis → depth of the frame that assumed it.
        self._hypotheses: Dict[_Pair, int] = {}
        #: provisionally-validated pair → depths of the active frames whose
        #: hypotheses it rests on (never empty, never containing the poison).
        #: Consultable like a cache *within* the run (the consumer inherits
        #: the dependency set); every time a frame settles, entries that
        #: depended on it are rewritten (success), confirmed (success and no
        #: dependencies left) or dropped (failure).
        self._provisional: Dict[_Pair, Set[int]] = {}
        #: inverse index: frame depth → pairs depending on it, so settling a
        #: frame touches only its dependents instead of scanning every entry.
        self._provisional_by_depth: Dict[int, Set[_Pair]] = {}
        self.max_recursion_depth = max_recursion_depth
        # The hop budget, not the interpreter, must stop a reference chain.
        # A hop costs FRAMES_PER_HOP plus the walk down the current
        # derivative; derivatives of ``E*`` and ``E1 ‖ E2`` add a level over
        # the schema's own expressions, so the walk is taken as twice the
        # deepest one.  The budget is reserved when a descent has used about
        # STACK_HEADROOM frames (at the first frame for very deep shapes), so
        # runs whose references stay shallow never raise the limit.
        self._frames_per_hop = 0
        self._reserve_at = -1
        self._needed_limit = sys.maxsize  # unknown until the first reservation
        if schema is not None:
            self._frames_per_hop = FRAMES_PER_HOP + 2 * schema.max_expression_depth()
            self._reserve_at = max(1, STACK_HEADROOM // self._frames_per_hop)
        #: one entry per in-progress ``check_reference`` frame, innermost
        #: last (a frame's depth is its position, from 1): the depths of every
        #: in-progress hypothesis its outcome consulted (possibly its own —
        #: the coinductive knot — and ``_BUDGET_POISON`` when the budget
        #: fired in its subtree).  A frame that consulted nothing but its own
        #: depth is *definitive*; anything else is conditional on enclosing
        #: frames.
        self._frames: List[Set[int]] = []

    # -- hypotheses -------------------------------------------------------------
    def assume(self, node: ObjectTerm, label: ShapeLabel) -> None:
        """Add the hypothesis ``node → label`` (the ``Γ{n → l}`` operation)."""
        self._hypotheses.setdefault((node, label), len(self._frames))

    def retract(self, node: ObjectTerm, label: ShapeLabel) -> None:
        """Drop a hypothesis after its validation finished."""
        self._hypotheses.pop((node, label), None)

    def is_assumed(self, node: ObjectTerm, label: ShapeLabel) -> bool:
        """True if ``node → label`` is currently hypothesised.

        Consulting a hypothesis is recorded as a dependency of the innermost
        in-progress frame: its verdict now rests on an assumption that may
        later be retracted, so it must not be cached as definitive.
        """
        depth = self._hypotheses.get((node, label))
        if depth is None:
            return False
        if self._frames:
            self._frames[-1].add(depth)
        return True

    # -- the MatchShape rule -----------------------------------------------------
    def check_reference(self, node: ObjectTerm, label: ShapeLabel | str) -> MatchResult:
        """Validate ``node`` against the shape named ``label``.

        The ``MatchShape`` / ``Arcref`` rules: extend the context with the
        hypothesis, match ``δ(label)`` against the node's neighbourhood, and
        cache the verdict when it is definitive (see the class docstring).
        """
        if self.schema is None:
            raise SchemaError("shape references need a schema-aware validation context")
        label = label if isinstance(label, ShapeLabel) else ShapeLabel(label)
        self.stats.reference_checks += 1
        if self.is_confirmed(node, label):
            return MatchResult.success()
        if self.is_failed(node, label):
            return MatchResult.failure(f"{node.n3()} already failed shape {label}")
        if self.is_assumed(node, label):
            # coinductive hypothesis: assume the reference holds
            return MatchResult.success()
        provisional_deps = self._provisional.get((node, label))
        if provisional_deps is not None:
            # already validated in this run, conditional on in-progress
            # hypotheses: reuse the verdict and inherit every dependency.
            if self._frames:
                self._frames[-1].update(provisional_deps)
            return MatchResult.success()
        if len(self._frames) >= self.max_recursion_depth:
            # budget exhaustion is not a semantic verdict: poison the
            # enclosing frames so nothing derived from it gets cached.
            if self._frames:
                self._frames[-1].add(_BUDGET_POISON)
            return MatchResult.failure(
                f"recursion depth limit ({self.max_recursion_depth}) exceeded "
                f"while validating {node.n3()} against {label}",
                limit_exceeded=True,
            )
        expr = self.schema.expression(label)
        neighbourhood = self._neighbourhood_of(node)
        depth, deps = len(self._frames) + 1, set()
        if depth == self._reserve_at \
                and sys.getrecursionlimit() < self._needed_limit:
            self._needed_limit = _reserve_recursion_limit(
                (self.max_recursion_depth - depth + 1) * self._frames_per_hop
                + STACK_HEADROOM)
        self._frames.append(deps)
        self.assume(node, label)
        try:
            result = self._matcher(expr, neighbourhood, self)
        except BaseException:
            # e.g. a backtracking budget exception: the frame disappears
            # without settling, so everything conditional on it is dropped.
            self._settle_failure(depth)
            raise
        finally:
            self.retract(node, label)
            self._frames.pop()
        self.stats.merge(result.stats)
        # the depths of enclosing hypotheses the verdict rests on; consulting
        # this frame's own hypothesis is fine (the coinductive knot being
        # tied) and is resolved right here.
        outer_deps = deps - {depth}
        definitive = not outer_deps
        if outer_deps and self._frames:
            # the verdict leans on assumptions owned by enclosing frames —
            # propagate the dependencies (and any budget poison) outwards.
            self._frames[-1].update(outer_deps)
        if result.matched:
            if definitive:
                self.confirm(node, label)
                # this frame's hypothesis just proved out: resolve everything
                # that was conditional on it.
                self._settle_success(depth, set())
            else:
                self._settle_success(depth, outer_deps)
                if _BUDGET_POISON not in outer_deps:
                    # provisional: reusable within the run, conditional on
                    # every enclosing hypothesis it consulted.
                    self._park_provisional((node, label), set(outer_deps))
                # else: poisoned by the budget — return the verdict but
                # cache nothing.
            return MatchResult(True, result.stats)
        # failure: provisional successes that assumed this frame's
        # hypothesis rested on an assumption that did not prove out.
        self._settle_failure(depth)
        if definitive:
            self.record_failure(node, label)
        limit_hit = _BUDGET_POISON in outer_deps or result.limit_exceeded
        return MatchResult.failure(
            f"{node.n3()} does not match shape {label}: {result.reason}",
            result.stats,
            limit_exceeded=limit_hit,
        )

    # -- provisional-entry settlement --------------------------------------------
    def _park_provisional(self, pair: _Pair, deps: Set[int]) -> None:
        """Record ``pair`` as provisionally valid, conditional on ``deps``."""
        self._provisional[pair] = deps
        for dep in deps:
            self._provisional_by_depth.setdefault(dep, set()).add(pair)

    def _unlink_provisional(self, pair: _Pair, deps: Set[int]) -> None:
        """Remove ``pair`` from the inverse index for every depth in ``deps``."""
        for dep in deps:
            bucket = self._provisional_by_depth.get(dep)
            if bucket is not None:
                bucket.discard(pair)
                if not bucket:
                    del self._provisional_by_depth[dep]

    def _settle_success(self, depth: int, replacement: Set[int]) -> None:
        """The frame at ``depth`` settled successfully: rewrite dependents.

        Every provisional entry depending on ``depth`` now depends on
        whatever that frame itself depended on (``replacement``).  Entries
        left with no dependencies are promoted to the confirmed cache.  Only
        the frame's dependents are touched, through the inverse index.
        """
        dependents = self._provisional_by_depth.pop(depth, None)
        if not dependents:
            return
        poisoned = _BUDGET_POISON in replacement
        for pair in dependents:
            deps = self._provisional.get(pair)
            if deps is None:
                continue
            deps.discard(depth)
            if poisoned:
                # poison never resolves; the entry can no longer settle.
                del self._provisional[pair]
                self._unlink_provisional(pair, deps)
                continue
            for dep in replacement:
                if dep not in deps:
                    deps.add(dep)
                    self._provisional_by_depth.setdefault(dep, set()).add(pair)
            if not deps:
                del self._provisional[pair]
                self.confirm(*pair)

    def _settle_failure(self, depth: int) -> None:
        """The frame at ``depth`` failed (or vanished): drop its dependents."""
        dependents = self._provisional_by_depth.pop(depth, None)
        if not dependents:
            return
        for pair in dependents:
            deps = self._provisional.pop(pair, None)
            if deps is None:
                continue
            deps.discard(depth)
            self._unlink_provisional(pair, deps)
