"""Static analysis of shape expressions and schemas.

The paper's concluding discussion points at a line of future work: identify a
*subset of the language with better complexity results while being expressive
enough* — in particular the Single Occurrence Regular Bag Expressions (SORBE)
of Boneva et al., where every predicate occurs at most once in a shape.  This
module implements the analyses a validator or schema editor needs to act on
that observation without running any data through the matchers:

* :func:`is_empty` / :func:`is_universal` — does the expression accept
  nothing / only the empty neighbourhood?
* :func:`predicate_occurrences` and :func:`is_single_occurrence` — the SORBE
  membership test (the tractable fragment the paper recommends targeting),
* :func:`is_deterministic` — can every triple be attributed to at most one
  arc constraint without lookahead (no two overlapping arcs for the same
  predicate)?
* :func:`cardinality_bounds` — per-predicate (min, max) arc counts implied by
  the expression,
* :func:`schema_dependency_graph` and :func:`stratify_schema` — the reference
  structure between shapes, recursion detection and a bottom-up validation
  order for the non-recursive part.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import networkx as nx

from ..rdf.terms import IRI
from .expressions import (
    And,
    Arc,
    Empty,
    EmptyTriples,
    Or,
    ShapeExpr,
    Star,
    iter_subexpressions,
)
from .schema import Schema
from .typing import ShapeLabel

__all__ = [
    "is_empty",
    "is_universal",
    "predicate_occurrences",
    "is_single_occurrence",
    "is_deterministic",
    "CardinalityBound",
    "cardinality_bounds",
    "neighbourhood_cardinality_bounds",
    "first_predicates",
    "schema_dependency_graph",
    "recursive_labels",
    "stratify_schema",
    "analyze_schema",
    "SchemaReport",
]


# ----------------------------------------------------------------------- emptiness
def is_empty(expr: ShapeExpr) -> bool:
    """True if ``Sₙ[[expr]] = ∅`` (the expression accepts no graph at all).

    Computed structurally: ``∅`` is empty, ``ε`` and arcs are not, ``e*`` never
    is (it accepts ``{}``), ``e1 ‖ e2`` is empty if either operand is, and
    ``e1 | e2`` if both are.
    """
    if isinstance(expr, Empty):
        return True
    if isinstance(expr, (EmptyTriples, Arc, Star)):
        return False
    if isinstance(expr, And):
        return is_empty(expr.left) or is_empty(expr.right)
    if isinstance(expr, Or):
        return is_empty(expr.left) and is_empty(expr.right)
    raise TypeError(f"unknown shape expression: {expr!r}")


def is_universal(expr: ShapeExpr) -> bool:
    """True if the expression accepts exactly the empty neighbourhood only.

    Useful to flag shapes like ``<S> { }`` that reject every node carrying
    data — usually a schema-authoring mistake.
    """
    if isinstance(expr, EmptyTriples):
        return True
    if isinstance(expr, (Empty, Arc)):
        return False
    if isinstance(expr, Star):
        return is_universal(expr.expr) or is_empty(expr.expr)
    if isinstance(expr, And):
        return is_universal(expr.left) and is_universal(expr.right)
    if isinstance(expr, Or):
        branches = [branch for branch in (expr.left, expr.right) if not is_empty(branch)]
        return bool(branches) and all(is_universal(branch) for branch in branches)
    raise TypeError(f"unknown shape expression: {expr!r}")


# ------------------------------------------------------------------ SORBE membership
def predicate_occurrences(expr: ShapeExpr) -> Counter:
    """Count how many *syntactic* arc constraints mention each predicate."""
    occurrences: Counter = Counter()
    for sub in iter_subexpressions(expr):
        if isinstance(sub, Arc):
            sample = sub.predicate.sample()
            if sample is not None and not sub.predicate.any_predicate \
                    and sub.predicate.stem is None:
                for predicate in sub.predicate.predicates:
                    occurrences[predicate] += 1
            else:
                occurrences[None] += 1  # wildcard / stem predicates
    return occurrences


def is_single_occurrence(expr: ShapeExpr) -> bool:
    """True if every concrete predicate occurs in at most one arc constraint.

    This is the syntactic core of the SORBE fragment the paper's conclusion
    recommends: single-occurrence expressions admit much cheaper validation
    because a triple's predicate uniquely identifies the constraint it has to
    satisfy.

    Derived operators are expanded before this check, so ``E+`` (which
    duplicates ``E`` syntactically as ``E ‖ E*``) is normalised first: two
    occurrences of *identical* arcs are counted once.
    """
    seen: Dict[IRI, set] = {}
    for sub in iter_subexpressions(expr):
        if not isinstance(sub, Arc):
            continue
        if sub.predicate.any_predicate or sub.predicate.stem is not None:
            return False
        for predicate in sub.predicate.predicates:
            constraints = seen.setdefault(predicate, set())
            constraints.add(sub.object)
    return all(len(constraints) <= 1 for constraints in seen.values())


def is_deterministic(expr: ShapeExpr) -> bool:
    """True if no two *different* arc constraints can match the same triple.

    A slightly stronger property than :func:`is_single_occurrence`: it also
    rejects wildcard or stem predicate sets that overlap a concrete
    predicate.  Deterministic expressions give the derivative engine its best
    behaviour because each derivative step keeps exactly one alternative
    alive.
    """
    arcs = [sub for sub in iter_subexpressions(expr) if isinstance(sub, Arc)]
    for index, first in enumerate(arcs):
        for second in arcs[index + 1:]:
            if first == second:
                continue
            if _predicates_may_overlap(first, second):
                return False
    return True


def _predicates_may_overlap(first: Arc, second: Arc) -> bool:
    if first.predicate.any_predicate or second.predicate.any_predicate:
        return True
    if first.predicate.stem is not None or second.predicate.stem is not None:
        first_stem, second_stem = first.predicate.stem, second.predicate.stem
        if first_stem is not None and second_stem is not None:
            return first_stem.startswith(second_stem) or second_stem.startswith(first_stem)
        stem = first_stem if first_stem is not None else second_stem
        other = second if first_stem is not None else first
        return any(predicate.value.startswith(stem) for predicate in other.predicate.predicates)
    return bool(first.predicate.predicates & second.predicate.predicates)


# --------------------------------------------------------------------- cardinalities
@dataclass(frozen=True)
class CardinalityBound:
    """Per-predicate bounds on the number of arcs an accepted graph may carry."""

    minimum: int
    maximum: Optional[int]  # None = unbounded

    def render(self) -> str:
        upper = "∞" if self.maximum is None else str(self.maximum)
        return f"{{{self.minimum},{upper}}}"


def cardinality_bounds(expr: ShapeExpr) -> Dict[IRI, CardinalityBound]:
    """Compute, per predicate, how many arcs accepted neighbourhoods carry.

    The bounds are exact for the expression algebra (alternatives take the
    min/max across branches, interleaves add, stars multiply by [0, ∞)).
    Wildcard and stem predicates are ignored — the bounds only cover concrete
    predicates.
    """
    bounds = _bounds(expr)
    return {predicate: CardinalityBound(minimum, maximum)
            for predicate, (minimum, maximum) in bounds.items()}


_Bounds = Dict[IRI, Tuple[int, Optional[int]]]


def _bounds(expr: ShapeExpr) -> _Bounds:
    if isinstance(expr, (Empty, EmptyTriples)):
        return {}
    if isinstance(expr, Arc):
        result: _Bounds = {}
        if not expr.predicate.any_predicate and expr.predicate.stem is None:
            for predicate in expr.predicate.predicates:
                result[predicate] = (1, 1)
        return result
    if isinstance(expr, Star):
        return {predicate: (0, None) for predicate in _bounds(expr.expr)}
    if isinstance(expr, And):
        left, right = _bounds(expr.left), _bounds(expr.right)
        combined: _Bounds = {}
        for predicate in set(left) | set(right):
            left_min, left_max = left.get(predicate, (0, 0))
            right_min, right_max = right.get(predicate, (0, 0))
            maximum = None if left_max is None or right_max is None \
                else left_max + right_max
            combined[predicate] = (left_min + right_min, maximum)
        return combined
    if isinstance(expr, Or):
        left, right = _bounds(expr.left), _bounds(expr.right)
        combined = {}
        for predicate in set(left) | set(right):
            left_min, left_max = left.get(predicate, (0, 0))
            right_min, right_max = right.get(predicate, (0, 0))
            maximum = None if left_max is None or right_max is None \
                else max(left_max, right_max)
            combined[predicate] = (min(left_min, right_min), maximum)
        return combined
    raise TypeError(f"unknown shape expression: {expr!r}")


# --------------------------------------------------------- sound neighbourhood bounds
def neighbourhood_cardinality_bounds(expr: ShapeExpr) -> Dict[IRI, CardinalityBound]:
    """Per-predicate bounds on triple counts, **sound** for prefiltering.

    :func:`cardinality_bounds` treats every predicate of a multi-predicate
    arc as if the arc required one triple of *each* predicate, which
    over-states the minimum (an arc ``{p q} → vo`` consumes one triple whose
    predicate is ``p`` **or** ``q``).  This variant computes bounds a
    validator may reject on:

    * the **minimum** for predicate ``p`` counts only arcs whose predicate
      set is exactly ``{p}`` — every accepted neighbourhood provably carries
      at least that many ``p``-triples,
    * the **maximum** for ``p`` adds one per arc that *could* consume a
      ``p``-triple, and collapses to unbounded (``None``) as soon as a
      wildcard or matching stem arc could absorb extra ``p``-triples.

    A neighbourhood whose ``p``-count falls outside ``[minimum, maximum]``
    therefore cannot match, whatever the objects are.
    """
    bounds, _stems, _open = _sound_bounds(expr)
    return {predicate: CardinalityBound(minimum, maximum)
            for predicate, (minimum, maximum) in bounds.items()}


#: recursion result: (per-predicate bounds, stems seen, wildcard-arc seen).
_SoundBounds = Tuple[_Bounds, FrozenSet[str], bool]


def _covers(predicate: IRI, stems: FrozenSet[str], any_open: bool) -> bool:
    """True when a stem/wildcard arc on this side could consume ``predicate``."""
    return any_open or any(predicate.value.startswith(stem) for stem in stems)


def _sound_bounds(expr: ShapeExpr) -> _SoundBounds:
    if isinstance(expr, (Empty, EmptyTriples)):
        return {}, frozenset(), False
    if isinstance(expr, Arc):
        predicate_set = expr.predicate
        if predicate_set.any_predicate:
            return {}, frozenset(), True
        stems = frozenset((predicate_set.stem,)) if predicate_set.stem is not None \
            else frozenset()
        predicates = predicate_set.predicates
        if len(predicates) == 1 and not stems:
            (predicate,) = predicates
            return {predicate: (1, 1)}, stems, False
        # the arc consumes one triple with *some* admitted predicate: no
        # individual predicate is guaranteed, each gets at most one.
        return {predicate: (0, 1) for predicate in predicates}, stems, False
    if isinstance(expr, Star):
        inner, stems, any_open = _sound_bounds(expr.expr)
        return ({predicate: (0, None) for predicate in inner}, stems, any_open)
    if isinstance(expr, And):
        left, left_stems, left_open = _sound_bounds(expr.left)
        right, right_stems, right_open = _sound_bounds(expr.right)
        combined: _Bounds = {}
        for predicate in set(left) | set(right):
            left_min, left_max = left.get(
                predicate,
                (0, None if _covers(predicate, left_stems, left_open) else 0))
            right_min, right_max = right.get(
                predicate,
                (0, None if _covers(predicate, right_stems, right_open) else 0))
            maximum = None if left_max is None or right_max is None \
                else left_max + right_max
            combined[predicate] = (left_min + right_min, maximum)
        return combined, left_stems | right_stems, left_open or right_open
    if isinstance(expr, Or):
        left, left_stems, left_open = _sound_bounds(expr.left)
        right, right_stems, right_open = _sound_bounds(expr.right)
        combined = {}
        for predicate in set(left) | set(right):
            left_min, left_max = left.get(
                predicate,
                (0, None if _covers(predicate, left_stems, left_open) else 0))
            right_min, right_max = right.get(
                predicate,
                (0, None if _covers(predicate, right_stems, right_open) else 0))
            maximum = None if left_max is None or right_max is None \
                else max(left_max, right_max)
            combined[predicate] = (min(left_min, right_min), maximum)
        return combined, left_stems | right_stems, left_open or right_open
    raise TypeError(f"unknown shape expression: {expr!r}")


# ------------------------------------------------------------------ first predicates
def first_predicates(expr: ShapeExpr) -> Tuple[FrozenSet[IRI], bool]:
    """``(exact predicates, open)`` that can begin a match of ``expr``.

    Neighbourhood matching is order-free, so a predicate can "begin" a match
    exactly when some arc in a *live* position (not under a statically-empty
    subtree) admits it.  ``open`` is True when a stem or wildcard arc is
    live, in which case predicates outside the exact set may begin a match
    too.  For a non-nullable expression, a non-empty neighbourhood whose
    predicates avoid the first set entirely cannot match.
    """
    if isinstance(expr, (Empty, EmptyTriples)):
        return frozenset(), False
    if isinstance(expr, Arc):
        predicate_set = expr.predicate
        return (predicate_set.predicates,
                predicate_set.any_predicate or predicate_set.stem is not None)
    if isinstance(expr, Star):
        return first_predicates(expr.expr)
    if isinstance(expr, And):
        if is_empty(expr.left) or is_empty(expr.right):
            return frozenset(), False
        left, left_open = first_predicates(expr.left)
        right, right_open = first_predicates(expr.right)
        return left | right, left_open or right_open
    if isinstance(expr, Or):
        left, left_open = first_predicates(expr.left)
        right, right_open = first_predicates(expr.right)
        if is_empty(expr.left):
            left, left_open = frozenset(), False
        if is_empty(expr.right):
            right, right_open = frozenset(), False
        return left | right, left_open or right_open
    raise TypeError(f"unknown shape expression: {expr!r}")


# ------------------------------------------------------------------- schema structure
def schema_dependency_graph(schema: Schema) -> nx.DiGraph:
    """Return the directed graph of ``@label`` references between shapes."""
    graph = nx.DiGraph()
    for label, _ in schema.items():
        graph.add_node(label)
    for label, _ in schema.items():
        for referenced in schema.dependencies(label):
            graph.add_edge(label, referenced)
    return graph


def recursive_labels(schema: Schema) -> FrozenSet[ShapeLabel]:
    """Return the labels involved in at least one reference cycle."""
    graph = schema_dependency_graph(schema)
    recursive: set = set()
    condensation = nx.condensation(graph)
    for component_index in condensation.nodes:
        component = condensation.nodes[component_index]["members"]
        if len(component) > 1:
            recursive.update(component)
        else:
            (only,) = component
            if graph.has_edge(only, only):
                recursive.add(only)
    return frozenset(recursive)


def stratify_schema(schema: Schema) -> List[List[ShapeLabel]]:
    """Return shape labels grouped into strata validatable bottom-up.

    Each stratum is a strongly connected component of the dependency graph;
    strata are ordered so that every reference points into the same or an
    earlier stratum.  Non-recursive schemas therefore come back as singleton
    strata in reverse topological order — the order in which a cache-friendly
    validator would process them.
    """
    graph = schema_dependency_graph(schema)
    condensation = nx.condensation(graph)
    strata: List[List[ShapeLabel]] = []
    for component_index in reversed(list(nx.topological_sort(condensation))):
        members = sorted(condensation.nodes[component_index]["members"])
        strata.append(list(members))
    return strata


@dataclass
class SchemaReport:
    """The combined result of :func:`analyze_schema`."""

    shape_count: int
    recursive: FrozenSet[ShapeLabel]
    single_occurrence: Dict[ShapeLabel, bool]
    deterministic: Dict[ShapeLabel, bool]
    empty_shapes: List[ShapeLabel]
    cardinalities: Dict[ShapeLabel, Dict[IRI, CardinalityBound]]
    strata: List[List[ShapeLabel]]

    @property
    def is_sorbe(self) -> bool:
        """True when every shape is single-occurrence (the tractable fragment)."""
        return all(self.single_occurrence.values())

    def summary(self) -> str:
        """Return a short human-readable description of the schema."""
        lines = [
            f"{self.shape_count} shape(s), "
            f"{len(self.recursive)} recursive, "
            f"{'SORBE' if self.is_sorbe else 'not SORBE'}",
        ]
        for label, bounds in sorted(self.cardinalities.items()):
            rendered = ", ".join(
                f"{predicate.n3()} {bound.render()}"
                for predicate, bound in sorted(bounds.items(), key=lambda item: item[0].value)
            )
            lines.append(f"  <{label}>: {rendered if rendered else '(no concrete predicates)'}")
        return "\n".join(lines)


def analyze_schema(schema: Schema) -> SchemaReport:
    """Run every per-shape and whole-schema analysis and bundle the results."""
    single_occurrence = {}
    deterministic = {}
    empty_shapes = []
    cardinalities = {}
    for label, expr in schema.items():
        single_occurrence[label] = is_single_occurrence(expr)
        deterministic[label] = is_deterministic(expr)
        cardinalities[label] = cardinality_bounds(expr)
        if is_empty(expr):
            empty_shapes.append(label)
    return SchemaReport(
        shape_count=len(schema),
        recursive=recursive_labels(schema),
        single_occurrence=single_occurrence,
        deterministic=deterministic,
        empty_shapes=empty_shapes,
        cardinalities=cardinalities,
        strata=stratify_schema(schema),
    )
