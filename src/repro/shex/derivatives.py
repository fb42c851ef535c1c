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

from functools import reduce
from time import perf_counter
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

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
    iter_subexpressions,
)
from .node_constraints import ShapeRef
from .results import MatchResult, MatchStats
from .schema import ValidationContext

__all__ = [
    "MAX_DERIVATIVE_STEPS",
    "DerivativeBudgetExceeded",
    "nullable",
    "derivative",
    "derivative_graph",
    "matches",
    "derivative_trace",
    "DerivativeEngine",
    "DerivativeCache",
]


#: derivative steps one :meth:`DerivativeEngine.match_neighbourhood` call may
#: take.  ShEx validation is NP-complete in general (Staworko et al., ICDT
#: 2015), so a schema and a neighbourhood can always be found that need more;
#: past this budget the call raises :class:`DerivativeBudgetExceeded` rather
#: than return a verdict it could not reach.
MAX_DERIVATIVE_STEPS = 1_000_000


class DerivativeBudgetExceeded(Exception):
    """One neighbourhood match took more than :data:`MAX_DERIVATIVE_STEPS`."""

    def __init__(self, budget: int):
        super().__init__(
            f"matching one neighbourhood took more than {budget:,} derivative "
            "steps; the schema is too costly for this data")
        self.budget = budget


# --------------------------------------------------------------------- nullability
def nullable(expr: ShapeExpr) -> bool:
    """``ν(e)`` — True when ``e`` matches the empty graph (Section 6).

    * ``ν(∅) = false``              * ``ν(e*) = true``
    * ``ν(ε) = true``               * ``ν(e₁ ‖ … ‖ eₙ) = ν(e₁) ∧ … ∧ ν(eₙ)``
    * ``ν(vp → vo) = false``        * ``ν(e₁ | … | eₙ) = ν(e₁) ∨ … ∨ ν(eₙ)``
    """
    if isinstance(expr, EmptyTriples):
        return True
    if isinstance(expr, (Empty, Arc)):
        return False
    if isinstance(expr, Star):
        return True
    if isinstance(expr, And):
        return all(nullable(operand) for operand in expr.operands)
    if isinstance(expr, Or):
        return any(nullable(operand) for operand in expr.operands)
    raise TypeError(f"unknown shape expression: {expr!r}")


# ---------------------------------------------------------------------- derivatives
def _alternatives(terms: List[ShapeExpr], simplify: bool) -> ShapeExpr:
    """``|`` over ``terms``: one canonical node, or without ``simplify`` the
    left fold of raw two-operand nodes (the ablation's binary trees)."""
    if simplify:
        return alternative(*terms)
    return reduce(lambda left, right: alternative(left, right, simplify=False), terms)


def _walk_derivative(expr: ShapeExpr, derive_arc, simplify: bool,
                     stats: Optional[MatchStats]) -> ShapeExpr:
    """The Section 6 rule structure, parameterised over the arc case.

    ``derive_arc(arc) -> ShapeExpr`` decides a single arc — against a
    concrete triple (:func:`derivative`) or from a precomputed verdict
    vector (:func:`_derivative_by_verdicts`).  Keeping one walker guarantees
    the cached and uncached paths can never diverge on the other rules.
    Each call is one derivative step; past :data:`MAX_DERIVATIVE_STEPS`
    steps on one ``stats`` record it raises :class:`DerivativeBudgetExceeded`.
    """
    if stats is not None:
        stats.derivative_steps += 1
        if stats.derivative_steps > MAX_DERIVATIVE_STEPS:
            raise DerivativeBudgetExceeded(MAX_DERIVATIVE_STEPS)
    if isinstance(expr, (Empty, EmptyTriples)):
        return EMPTY
    if isinstance(expr, Arc):
        return derive_arc(expr)
    if isinstance(expr, Star):
        inner = _walk_derivative(expr.expr, derive_arc, simplify, stats)
        return interleave(inner, expr, simplify=simplify)
    if isinstance(expr, And):
        operands = expr.operands
        terms = []
        previous = None
        for index, operand in enumerate(operands):
            if simplify and operand is previous:
                continue  # a repeated operand derives the same term again
            previous = operand
            inner = _walk_derivative(operand, derive_arc, simplify, stats)
            rest = operands[:index] + operands[index + 1:]
            if simplify:
                if not isinstance(inner, Empty):
                    terms.append(interleave(inner, *rest))
            else:
                rest_expr = rest[0] if len(rest) == 1 else And(*rest)
                terms.append(interleave(inner, rest_expr, simplify=False))
        return _alternatives(terms, simplify)
    if isinstance(expr, Or):
        # a plain loop: a comprehension would add a frame per level to the
        # reference's per-hop stack cost
        terms = []
        for operand in expr.operands:
            terms.append(_walk_derivative(operand, derive_arc, simplify, stats))
        return _alternatives(terms, simplify)
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
        ∂t(e*)            = ∂t(e) ‖ e*
        ∂t(e₁ ‖ … ‖ eₙ)   = |ᵢ (e₁ ‖ … ‖ ∂t(eᵢ) ‖ … ‖ eₙ)
        ∂t(e₁ | … | eₙ)   = ∂t(e₁) | … | ∂t(eₙ)

    ``‖`` and ``|`` are n-ary and canonical (:mod:`repro.shex.expressions`),
    so the ``‖`` rule takes one term per *distinct* operand ``eᵢ`` (equal
    operands give equal terms, and ``x | x = x``), and the binary rule
    ``∂t(e1 ‖ e2) = ∂t(e1) ‖ e2 | ∂t(e2) ‖ e1`` is its two-operand case.

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
        shared across nodes, labels and validation runs (pass one instance
        to several engines to share it).  Unlike ``memoize``, the global
        cache also handles expressions containing shape references: the
        per-triple cache key is the vector of constraint/reference
        *verdicts*, so reference resolution still runs through the context
        while the structural derivative construction is reused across
        neighbourhoods.
    """

    name = "derivatives"

    def __init__(self, simplify: bool = True, order_by_predicate: bool = True,
                 memoize: bool = True,
                 cache: Optional[DerivativeCache] = None):
        self.simplify = simplify
        self.order_by_predicate = order_by_predicate
        self.memoize = memoize
        self.cache = cache

    def order_triples(self, triples: Iterable[Triple]) -> List[Triple]:
        """Return the triples in the order the engine will consume them:
        sorted by predicate when ``order_by_predicate`` is set."""
        triples = list(triples)
        if self.order_by_predicate:
            triples.sort(key=Triple.sort_key)
        return triples

    def match_neighbourhood(self, expr: ShapeExpr, triples: FrozenSet[Triple],
                            context: Optional[ValidationContext] = None) -> MatchResult:
        """Match a node neighbourhood ``Σgₙ`` against ``expr``.

        The engine entry point of the typing contexts: once per pair of a
        :class:`~repro.shex.schema.FixpointContext` solve, and once per hop
        of a :class:`~repro.shex.reference.ReferenceContext` descent.
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
        expression's arc atoms: an atom's bit is its predicate set's
        ``matches`` and then its object constraint's ``matches``, exactly
        the tests :func:`derivative` makes, except that a shape reference is
        resolved through the context (with the usual side effects).  The
        structural derivative for that vector is then looked up or computed
        once per distinct vector.  Loop invariants (bound methods) are
        hoisted out and the verdict bits go into a scratch buffer reused
        across triples; the per-atom verdict *dict* is only materialised on
        a cache miss, so the steady-state hit path allocates nothing but the
        lookup key.  The scratch buffer is local to this call: a reference
        check can re-enter the engine, and a shared per-engine buffer would
        be clobbered by the nested activation.

        The loop also feeds the per-phase profile: wall time spent here goes
        to ``dispatch_time``, the slice spent in global-cache lookups and
        stores to ``cache_time`` — accumulated into the context's stats when
        one is present (a bulk run's record), else into the local record.
        """
        simplify = self.simplify
        atoms_for = cache.atoms_for
        lookup = cache.lookup
        store = cache.store
        check_reference = context.check_reference if context is not None else None
        target = context.stats if context is not None else stats
        scratch: List[bool] = []
        current = expr
        cache_clock = 0.0
        start = perf_counter()
        for triple in ordered:
            predicate = triple.predicate
            obj = triple.object
            atoms = atoms_for(current)
            stats.arc_checks += len(atoms)
            del scratch[:]
            for atom in atoms:
                if not atom[0].matches(predicate):
                    scratch.append(False)
                elif isinstance(atom[1], ShapeRef):
                    if check_reference is None:
                        raise TypeError(
                            "derivative of a shape-reference arc requires a "
                            "ValidationContext"
                        )
                    scratch.append(check_reference(obj, atom[1].label).matched)
                else:
                    scratch.append(atom[1].matches(obj))
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
    return any(
        isinstance(sub, Arc) and isinstance(sub.object, ShapeRef)
        for sub in iter_subexpressions(expr)
    )
