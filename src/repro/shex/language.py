"""Declarative semantics ``Sₙ[[e]]``: enumerating the accepted graphs.

Section 4 defines the meaning of a regular shape expression as the set of
neighbourhood graphs it accepts::

    Sₙ[[∅]]        = ∅
    Sₙ[[ε]]        = {{}}
    Sₙ[[vp → vo]]  = {{⟨n, p, o⟩} | p ∈ vp and o ∈ vo}
    Sₙ[[e*]]       = {{}} ∪ Sₙ[[e ‖ e*]]
    Sₙ[[e1 ‖ e2]]  = {t1 ∪ t2 | t1 ∈ Sₙ[[e1]], t2 ∈ Sₙ[[e2]]}
    Sₙ[[e1 | e2]]  = Sₙ[[e1]] ∪ Sₙ[[e2]]

(``‖`` and ``|`` are n-ary nodes; the binary rules fold over their
operands.)

For expressions built from *finite* constraints (explicit predicate sets and
value sets) the language is computable once the Kleene star is unrolled a
bounded number of times; because the accepted objects are *sets* of triples,
unrolling a star ``k`` times where ``k`` is at least the number of distinct
triples an iteration can produce yields the exact language restricted to
neighbourhoods of that size.

One subtlety the paper leaves implicit: read literally, the set-union in
``Sₙ[[e1 ‖ e2]]`` would let a single triple satisfy *both* operands (e.g.
``a→1 ‖ a→1`` would accept the singleton ``{⟨n,a,1⟩}``), whereas the
decomposition of Example 3 pairs each subset with its complement and the
derivative algorithm consumes every triple exactly once.  This module follows
the *resource-sensitive* reading used by both matching algorithms: the union
in the ``‖`` case is restricted to **disjoint** operands, so that the
enumerated language coincides with what the matchers accept.  For expressions
whose interleaved branches cannot match the same triple (every shape in the
paper) the two readings agree.

The enumeration is used as executable ground truth: the property-based tests
check that both matching engines accept exactly the enumerated graphs
(Example 7 of the paper is one of the unit tests).
"""

from __future__ import annotations

from functools import reduce
from typing import FrozenSet, Set

from ..rdf.terms import SubjectTerm, Triple
from .expressions import And, Arc, Empty, EmptyTriples, Or, ShapeExpr, Star
from .node_constraints import ShapeRef, ValueSet

__all__ = ["LanguageEnumerationError", "enumerate_language", "language_size"]

GraphSet = FrozenSet[FrozenSet[Triple]]


class LanguageEnumerationError(Exception):
    """Raised when ``Sₙ[[e]]`` cannot be enumerated (infinite constraints)."""


def enumerate_language(expr: ShapeExpr, node: SubjectTerm,
                       max_star_unroll: int = 4) -> GraphSet:
    """Return ``Sₙ[[expr]]`` as a set of triple sets.

    ``max_star_unroll`` bounds how many times a Kleene star is unrolled; for
    arcs over finite value sets the language stabilises once the unrolling
    reaches the number of distinct triples the starred expression can emit,
    so the default of 4 is exact for the paper's examples.

    Raises :class:`LanguageEnumerationError` for expressions whose arcs use
    non-enumerable constraints (datatypes, node kinds, wildcards or shape
    references).
    """
    if max_star_unroll < 0:
        raise ValueError("max_star_unroll must be non-negative")
    return _enumerate(expr, node, max_star_unroll)


def _enumerate(expr: ShapeExpr, node: SubjectTerm, unroll: int) -> GraphSet:
    if isinstance(expr, Empty):
        return frozenset()
    if isinstance(expr, EmptyTriples):
        return frozenset({frozenset()})
    if isinstance(expr, Arc):
        return _enumerate_arc(expr, node)
    if isinstance(expr, Or):
        return frozenset().union(*(_enumerate(operand, node, unroll)
                                   for operand in expr.operands))
    if isinstance(expr, And):
        return reduce(_combine, (_enumerate(operand, node, unroll)
                                 for operand in expr.operands))
    if isinstance(expr, Star):
        base = _enumerate(expr.expr, node, unroll)
        result: Set[FrozenSet[Triple]] = {frozenset()}
        current: GraphSet = frozenset({frozenset()})
        for _ in range(unroll):
            current = _combine(current, base)
            before = len(result)
            result.update(current)
            if len(result) == before:
                break  # language has stabilised
        return frozenset(result)
    raise TypeError(f"unknown shape expression: {expr!r}")


def _enumerate_arc(expr: Arc, node: SubjectTerm) -> GraphSet:
    constraint = expr.object
    if isinstance(constraint, ShapeRef):
        raise LanguageEnumerationError(
            "cannot enumerate the language of a shape reference arc"
        )
    if not isinstance(constraint, ValueSet):
        raise LanguageEnumerationError(
            f"cannot enumerate arcs constrained by {type(constraint).__name__}; "
            "only explicit value sets are enumerable"
        )
    predicates = expr.predicate.predicates
    if not predicates or expr.predicate.any_predicate or expr.predicate.stem:
        raise LanguageEnumerationError(
            "cannot enumerate arcs with wildcard or stem predicate sets"
        )
    graphs = {
        frozenset({Triple(node, predicate, value)})
        for predicate in predicates
        for value in constraint.values
    }
    return frozenset(graphs)


def _combine(left: GraphSet, right: GraphSet) -> GraphSet:
    """Pairwise *disjoint* union of the two graph sets (the ``‖`` semantics).

    Only disjoint pairs are combined so that the enumeration matches the
    resource-sensitive behaviour of the derivative and backtracking matchers
    (each triple of the neighbourhood is consumed exactly once).
    """
    return frozenset(
        graph_left | graph_right
        for graph_left in left
        for graph_right in right
        if not (graph_left & graph_right)
    )


def language_size(expr: ShapeExpr, node: SubjectTerm, max_star_unroll: int = 4) -> int:
    """Return ``|Sₙ[[expr]]|`` under the given star unrolling bound."""
    return len(enumerate_language(expr, node, max_star_unroll))
