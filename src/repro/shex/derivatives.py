"""Regular shape expression derivatives (Sections 6 and 7 of the paper).

The derivative of a shape with respect to a triple ``t`` is the shape of the
*remaining* triples: ``∂t(Sₙ(E)) = {ts | t ∘ ts ∈ Sₙ(E)}``.  Together with
the nullability predicate ``ν`` this yields a matching algorithm that
consumes the neighbourhood one triple at a time, with no graph decomposition
and no backtracking::

    e ≃ {}        ⇔  ν(e)
    e ≃ t ∘ ts    ⇔  ∂t(e) ≃ ts

The derivative rules implemented here are exactly those of Section 6, plus
the context-aware variant ``∂t(e, Γ)`` of Section 8 which resolves shape
references ``@label`` by recursively validating the triple's object under the
typing context ``Γ``.

The :class:`DerivativeEngine` adds the engineering the paper alludes to:

* application of the simplification rules through the smart constructors
  (switchable, for the ablation benchmark),
* optional memoisation of ``(expression, triple)`` derivative computations,
* deterministic triple ordering (by predicate) which empirically keeps the
  intermediate expressions small,
* statistics collection (derivative steps, peak expression size).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union

from ..rdf.graph import OrderedTriples
from ..rdf.terms import Triple
from .cache import ArcAtom, DerivativeCache
from .expressions import (
    EMPTY,
    EPSILON,
    And,
    Arc,
    Empty,
    EmptyTriples,
    Or,
    ShapeExpr,
    Star,
    alternative,
    expression_size,
    interleave,
)
from .node_constraints import ShapeRef
from .results import MatchResult, MatchStats
from .schema import ValidationContext

__all__ = [
    "nullable",
    "derivative",
    "derivative_graph",
    "matches",
    "derivative_trace",
    "DerivativeEngine",
    "DerivativeCache",
]


# --------------------------------------------------------------------- nullability
def nullable(expr: ShapeExpr) -> bool:
    """``ν(e)`` — True when ``e`` matches the empty graph (Section 6).

    * ``ν(∅) = false``              * ``ν(e*) = true``
    * ``ν(ε) = true``               * ``ν(e1 ‖ e2) = ν(e1) ∧ ν(e2)``
    * ``ν(vp → vo) = false``        * ``ν(e1 | e2) = ν(e1) ∨ ν(e2)``
    """
    if isinstance(expr, EmptyTriples):
        return True
    if isinstance(expr, (Empty, Arc)):
        return False
    if isinstance(expr, Star):
        return True
    if isinstance(expr, And):
        return nullable(expr.left) and nullable(expr.right)
    if isinstance(expr, Or):
        return nullable(expr.left) or nullable(expr.right)
    raise TypeError(f"unknown shape expression: {expr!r}")


# ---------------------------------------------------------------------- derivatives
def _walk_derivative(expr: ShapeExpr, derive_arc, simplify: bool,
                     stats: Optional[MatchStats]) -> ShapeExpr:
    """The Section 6 rule structure, parameterised over the arc case.

    ``derive_arc(arc) -> ShapeExpr`` decides a single arc — against a
    concrete triple (:func:`derivative`) or from a precomputed verdict
    vector (:func:`_derivative_by_verdicts`).  Keeping one walker guarantees
    the cached and uncached paths can never diverge on the other rules.
    """
    if stats is not None:
        stats.derivative_steps += 1
    if isinstance(expr, (Empty, EmptyTriples)):
        return EMPTY
    if isinstance(expr, Arc):
        return derive_arc(expr)
    if isinstance(expr, Star):
        inner = _walk_derivative(expr.expr, derive_arc, simplify, stats)
        return interleave(inner, expr, simplify=simplify)
    if isinstance(expr, And):
        left = _walk_derivative(expr.left, derive_arc, simplify, stats)
        right = _walk_derivative(expr.right, derive_arc, simplify, stats)
        return alternative(
            interleave(left, expr.right, simplify=simplify),
            interleave(right, expr.left, simplify=simplify),
            simplify=simplify,
        )
    if isinstance(expr, Or):
        left = _walk_derivative(expr.left, derive_arc, simplify, stats)
        right = _walk_derivative(expr.right, derive_arc, simplify, stats)
        return alternative(left, right, simplify=simplify)
    raise TypeError(f"unknown shape expression: {expr!r}")


def derivative(expr: ShapeExpr, triple: Triple,
               context: Optional[ValidationContext] = None,
               simplify: bool = True,
               stats: Optional[MatchStats] = None) -> ShapeExpr:
    """``∂t(e)`` — the derivative of ``expr`` with respect to ``triple``.

    The rules are (Section 6)::

        ∂t(∅) = ∅
        ∂t(ε) = ∅
        ∂⟨s,p,o⟩(vp → vo) = ε   if p ∈ vp and o ∈ vo, else ∅
        ∂t(e*)       = ∂t(e) ‖ e*
        ∂t(e1 ‖ e2)  = ∂t(e1) ‖ e2  |  ∂t(e2) ‖ e1
        ∂t(e1 | e2)  = ∂t(e1) | ∂t(e2)

    When an arc's object constraint is a shape reference ``@label`` the
    context-aware rule of Section 8 is used: the triple's object is validated
    against the referenced shape under ``context`` (which must then be
    provided).  Confirmed references are recorded in ``context.typing``.
    """
    return _walk_derivative(
        expr, lambda arc: _derive_arc(arc, triple, context, stats),
        simplify, stats,
    )


def _derive_arc(expr: Arc, triple: Triple,
                context: Optional[ValidationContext],
                stats: Optional[MatchStats]) -> ShapeExpr:
    """Derivative of a single arc expression with respect to one triple."""
    if stats is not None:
        stats.arc_checks += 1
    if not expr.predicate.matches(triple.predicate):
        return EMPTY
    constraint = expr.object
    if isinstance(constraint, ShapeRef):
        if context is None:
            raise TypeError(
                "derivative of a shape-reference arc requires a ValidationContext"
            )
        result = context.check_reference(triple.object, constraint.label)
        return EPSILON if result.matched else EMPTY
    return EPSILON if constraint.matches(triple.object) else EMPTY


def derivative_graph(expr: ShapeExpr, triples: Iterable[Triple],
                     context: Optional[ValidationContext] = None,
                     simplify: bool = True,
                     stats: Optional[MatchStats] = None) -> ShapeExpr:
    """``∂g(e)`` — derivative with respect to a whole set of triples.

    Implements ``∂{}(e) = e`` and ``∂(t ∘ ts)(e) = ∂ts(∂t(e))``; triples are
    consumed in the iteration order of ``triples``.
    """
    current = expr
    for triple in triples:
        current = derivative(current, triple, context, simplify, stats)
        if stats is not None:
            stats.observe_expression_size(expression_size(current))
        if isinstance(current, Empty):
            # ∅ is absorbing: no continuation can succeed
            return EMPTY
    return current


def matches(expr: ShapeExpr, triples: Iterable[Triple],
            context: Optional[ValidationContext] = None) -> bool:
    """Decide ``Σ ∈ Sₙ[[e]]`` with the derivative algorithm of Section 7."""
    return nullable(derivative_graph(expr, triples, context))


def derivative_trace(expr: ShapeExpr, triples: Iterable[Triple],
                     context: Optional[ValidationContext] = None) -> List[Tuple[Triple, ShapeExpr]]:
    """Return the list of ``(triple, derivative-after-consuming-it)`` steps.

    Reproduces the traces of Examples 11 and 12; mainly used by tests,
    documentation and the example scripts.
    """
    steps: List[Tuple[Triple, ShapeExpr]] = []
    current = expr
    for triple in triples:
        current = derivative(current, triple, context)
        steps.append((triple, current))
    return steps


# ------------------------------------------------------------------------- engine
class DerivativeEngine:
    """Configurable derivative-based matcher.

    Parameters
    ----------
    simplify:
        apply the Section 4 simplification rules while building derivatives
        (default True; the ablation benchmark B8 sets it to False).
    order_by_predicate:
        sort the neighbourhood by predicate before consuming it.  Any order
        is correct; grouping equal predicates empirically keeps intermediate
        expressions smaller for interleave-heavy shapes.
    memoize:
        cache ``(expression, triple) → derivative`` pairs within one
        neighbourhood match.  Only enabled for reference-free expressions
        because reference resolution has side effects on the context.
    cache:
        an optional **global** :class:`~repro.shex.cache.DerivativeCache`
        shared across nodes, labels and validation runs.  Pass a cache
        instance to share it between engines, or ``True`` to let the engine
        build a private one.  Unlike ``memoize``, the global cache also
        handles expressions containing shape references: the per-triple cache
        key is the vector of constraint/reference *verdicts*, so reference
        resolution still runs through the context while the structural
        derivative construction is reused across neighbourhoods.
    """

    name = "derivatives"

    def __init__(self, simplify: bool = True, order_by_predicate: bool = True,
                 memoize: bool = True,
                 cache: Union[None, bool, DerivativeCache] = None):
        self.simplify = simplify
        self.order_by_predicate = order_by_predicate
        self.memoize = memoize
        if cache is True:
            cache = DerivativeCache()
        elif cache is False:
            cache = None
        self.cache: Optional[DerivativeCache] = cache

    @property
    def wants_ordered_neighbourhoods(self) -> bool:
        """True when the context should hand this engine predicate-sorted
        neighbourhoods (:meth:`Graph.neighbourhood_ordered`) instead of raw
        frozensets — the engine would sort them anyway."""
        return self.order_by_predicate

    def order_triples(self, triples: Iterable[Triple]) -> List[Triple]:
        """Return the triples in the order the engine will consume them.

        :class:`~repro.rdf.graph.OrderedTriples` carries the promise of
        already being predicate-sorted (``Graph.neighbourhood_ordered`` hands
        the engines those, so re-sorting per ``(node, label)`` pair would
        waste the graph-side cache); any other iterable is sorted by
        predicate when ``order_by_predicate`` is set.
        """
        if self.order_by_predicate and isinstance(triples, OrderedTriples):
            return list(triples)
        triples = list(triples)
        if self.order_by_predicate:
            triples.sort(key=Triple.sort_key)
        return triples

    def match_neighbourhood(self, expr: ShapeExpr, triples: FrozenSet[Triple],
                            context: Optional[ValidationContext] = None) -> MatchResult:
        """Match a node neighbourhood ``Σgₙ`` against ``expr``.

        This is the engine entry point used by the validator and by
        :class:`~repro.shex.schema.ValidationContext` for recursive shape
        references.
        """
        stats = MatchStats()
        stats.observe_expression_size(expression_size(expr))
        ordered = self.order_triples(triples)
        global_cache = self.cache
        if global_cache is not None:
            return self._match_flattened(expr, ordered, context,
                                         global_cache, stats)
        cache: Optional[Dict[Tuple[ShapeExpr, Triple], ShapeExpr]] = (
            {} if self.memoize and not _has_references(expr) else None
        )
        current = expr
        for triple in ordered:
            if cache is not None:
                key = (current, triple)
                cached = cache.get(key)
                if cached is None:
                    cached = derivative(current, triple, context, self.simplify, stats)
                    cache[key] = cached
                current = cached
            else:
                current = derivative(current, triple, context, self.simplify, stats)
            stats.observe_expression_size(expression_size(current))
            if isinstance(current, Empty):
                return MatchResult(
                    False, stats,
                    reason=f"no continuation after consuming {triple.n3()}",
                )
        if nullable(current):
            return MatchResult(True, stats)
        return MatchResult(
            False, stats,
            reason="remaining expression is not nullable "
                   f"(missing required arcs): {current.to_str()}",
        )

    # engines are also used directly as NeighbourhoodMatcher callables
    __call__ = match_neighbourhood

    def _match_flattened(self, expr: ShapeExpr, ordered: List[Triple],
                         context: Optional[ValidationContext],
                         cache: DerivativeCache,
                         stats: MatchStats) -> MatchResult:
        """The global-cache matching loop, flattened for the hot path.

        Each triple is abstracted into its verdict vector over the current
        expression's arc atoms (resolving shape references through the
        context, with the usual side effects); the structural derivative for
        that vector is then looked up or computed once per distinct vector.
        Compared to the naive per-triple step, everything loop-invariant is
        hoisted out (bound methods, the compiled tables, the candidate-atom
        set per *run* of equal predicates — the neighbourhood is
        predicate-sorted) and the verdict bits go into a scratch buffer
        reused across triples; the per-atom verdict *dict* is only
        materialised on a cache miss, so the steady-state hit path allocates
        nothing but the lookup key.  The scratch buffer is local to this
        call: a reference check can re-enter the engine, and a shared
        per-engine buffer would be clobbered by the nested activation.

        When the context carries a :class:`~repro.shex.compiled.CompiledSchema`
        the predicate test per atom is answered from its predicate-indexed
        atom table (one membership check against the candidate set for the
        triple's predicate) instead of re-running ``PredicateSet.matches``
        for every atom at every step.  Atoms outside the compiled tables
        (bare expressions not part of the schema) keep the direct test.

        The loop also feeds the per-phase profile: wall time spent here goes
        to ``dispatch_time``, the slice spent in global-cache lookups and
        stores to ``cache_time`` — accumulated into the context's stats when
        one is present (per-entry deltas are carved out of those by the bulk
        path), else into the local record.
        """
        simplify = self.simplify
        atoms_for = cache.atoms_for
        lookup = cache.lookup
        store = cache.store
        constraint_verdict = cache.constraint_verdict
        check_reference = context.check_reference if context is not None else None
        compiled = getattr(context, "compiled", None)
        known_atoms = compiled.known_atoms if compiled is not None else None
        candidate_atoms = compiled.candidate_atoms if compiled is not None else None
        target = context.stats if context is not None else stats
        scratch: List[bool] = []
        last_predicate = None
        candidates: Optional[FrozenSet[ArcAtom]] = None
        current = expr
        cache_clock = 0.0
        start = perf_counter()
        for triple in ordered:
            predicate = triple.predicate
            obj = triple.object
            if predicate is not last_predicate and predicate != last_predicate:
                last_predicate = predicate
                if candidate_atoms is not None:
                    candidates = candidate_atoms(predicate)
            atoms = atoms_for(current)
            stats.arc_checks += len(atoms)
            del scratch[:]
            for atom in atoms:
                if known_atoms is not None and atom in known_atoms:
                    admits = atom in candidates
                else:
                    admits = atom[0].matches(predicate)
                if not admits:
                    scratch.append(False)
                elif isinstance(atom[1], ShapeRef):
                    if check_reference is None:
                        raise TypeError(
                            "derivative of a shape-reference arc requires a "
                            "ValidationContext"
                        )
                    scratch.append(check_reference(obj, atom[1].label).matched)
                else:
                    scratch.append(constraint_verdict(atom[1], obj))
            # the simplify flag changes the structural result, so it is part
            # of the key: one cache safely serves differently-configured
            # engines.
            key_signature = (simplify, *scratch)
            step = perf_counter()
            current_next = lookup(current, key_signature)
            if current_next is None:
                verdicts: Dict[ArcAtom, bool] = dict(zip(atoms, scratch))
                current_next = _derivative_by_verdicts(current, verdicts,
                                                       simplify, stats)
                store(current, key_signature, current_next)
            cache_clock += perf_counter() - step
            current = current_next
            stats.observe_expression_size(expression_size(current))
            if isinstance(current, Empty):
                target.dispatch_time += perf_counter() - start - cache_clock
                target.cache_time += cache_clock
                return MatchResult(
                    False, stats,
                    reason=f"no continuation after consuming {triple.n3()}",
                )
        target.dispatch_time += perf_counter() - start - cache_clock
        target.cache_time += cache_clock
        if nullable(current):
            return MatchResult(True, stats)
        return MatchResult(
            False, stats,
            reason="remaining expression is not nullable "
                   f"(missing required arcs): {current.to_str()}",
        )


def _derivative_by_verdicts(expr: ShapeExpr, verdicts: Mapping[ArcAtom, bool],
                            simplify: bool,
                            stats: Optional[MatchStats] = None) -> ShapeExpr:
    """``∂t(e)`` where every arc's outcome is given by a precomputed verdict.

    Same walker as :func:`derivative`, but arc atoms are decided by the
    ``verdicts`` mapping instead of re-checking the triple, which is what
    makes the result reusable for *any* triple with the same verdict vector
    (see :class:`~repro.shex.cache.DerivativeCache`).
    """
    return _walk_derivative(
        expr,
        lambda arc: EPSILON if verdicts[(arc.predicate, arc.object)] else EMPTY,
        simplify, stats,
    )


def _has_references(expr: ShapeExpr) -> bool:
    """True if ``expr`` contains any ``@label`` arc."""
    from .expressions import iter_subexpressions

    return any(
        isinstance(sub, Arc) and isinstance(sub.object, ShapeRef)
        for sub in iter_subexpressions(expr)
    )
