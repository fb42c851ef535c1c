"""Reference analysis for incremental revalidation.

The paper defines validation per ``(node, shape)`` pair, but the verdict of
node ``n`` depends on node ``m`` exactly when some triple ``⟨n, p, m⟩`` can
trigger a shape reference (its predicate ``p`` is admitted by a
``vp → @label`` arc of some shape in the schema).  Validating ``n`` can
recurse into ``m``, but never into a node it has no such edge to.  After a
mutation, only the nodes that can reach a changed subject along those
*reference edges* can change verdict.  This module computes that set:

* :class:`ReferenceIndex` — which predicates can trigger which ``@label``
  references (the schema-level analysis),
* :func:`affected_nodes` — the reverse-reachability closure of a dirty
  subject set, the nodes an incremental round must re-run.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..rdf.graph import Graph
from ..rdf.terms import IRI, Literal, ObjectTerm, SubjectTerm
from .expressions import Arc, iter_subexpressions
from .node_constraints import PredicateSet, ShapeRef
from .schema import Schema
from .typing import ShapeLabel

__all__ = ["ReferenceIndex", "affected_nodes"]


def _as_label(label: object) -> ShapeLabel:
    return label if isinstance(label, ShapeLabel) else ShapeLabel(str(label))


class ReferenceIndex:
    """Schema-level map from predicates to the shape labels they can demand.

    A triple ``⟨n, p, m⟩`` makes the validation of ``n`` (against any shape)
    potentially check ``m`` against ``@label`` iff some shape's expression
    contains an arc ``vp → @label`` with ``p ∈ vp``.  Both matching engines
    gate reference resolution on the predicate test, so this is an exact
    criterion for single-predicate sets and a sound over-approximation for
    stems and wildcards.
    """

    def __init__(self, schema: Schema):
        #: exact predicate → labels, for enumerable predicate sets.
        self._exact: Dict[IRI, Set[ShapeLabel]] = {}
        #: (predicate set, label) pairs for stems / wildcards.
        self._general: List[Tuple[PredicateSet, ShapeLabel]] = []
        #: memo for :meth:`labels_for` over the general pairs.
        self._memo: Dict[IRI, FrozenSet[ShapeLabel]] = {}
        seen: Set[Tuple[PredicateSet, ShapeLabel]] = set()
        for _, expr in schema.items():
            for sub in iter_subexpressions(expr):
                if not (isinstance(sub, Arc) and isinstance(sub.object, ShapeRef)):
                    continue
                label = _as_label(sub.object.label)
                predicate_set = sub.predicate
                pair = (predicate_set, label)
                if pair in seen:
                    continue
                seen.add(pair)
                if predicate_set.any_predicate or predicate_set.stem is not None:
                    self._general.append(pair)
                else:
                    for predicate in predicate_set.predicates:
                        self._exact.setdefault(predicate, set()).add(label)

    @property
    def has_references(self) -> bool:
        """True when the schema contains any ``@label`` arc at all."""
        return bool(self._exact) or bool(self._general)

    def labels_for(self, predicate: IRI) -> FrozenSet[ShapeLabel]:
        """Labels a triple with this predicate can demand of its object."""
        cached = self._memo.get(predicate)
        if cached is not None:
            return cached
        labels: Set[ShapeLabel] = set(self._exact.get(predicate, ()))
        for predicate_set, label in self._general:
            if predicate_set.matches(predicate):
                labels.add(label)
        result = frozenset(labels)
        self._memo[predicate] = result
        return result

    def demands(self, predicate: IRI) -> bool:
        """True when a triple with this predicate can trigger any reference.

        The edge test of :func:`affected_nodes`: a triple ``⟨n, p, m⟩`` can
        make ``n``'s verdict depend on ``m`` only when this holds for ``p``.  Exact entries answer in one dict probe; stems/wildcards fall
        back to the memoised :meth:`labels_for`.
        """
        if predicate in self._exact:
            return True
        if not self._general:
            return False
        return bool(self.labels_for(predicate))

    def referrers(self, graph: Graph, node: ObjectTerm) -> Iterator[SubjectTerm]:
        """Subjects with a reference edge into ``node``, read from the exact
        reference predicates' reverse buckets (every predicate's if a stem or
        wildcard set can demand a reference)."""
        if self._general:
            return (s for s, p, _ in graph.triples(obj=node) if self.demands(p))
        return (s for p in self._exact for s, _, _ in graph.triples(None, p, node))


def affected_nodes(
    graph: Graph,
    schema: Schema,
    dirty_subjects: Iterable[SubjectTerm],
    index: Optional[ReferenceIndex] = None,
) -> FrozenSet[ObjectTerm]:
    """The reverse-reachability closure of a dirty set along reference edges.

    Returns every node whose verdict (for any label) may differ after the
    mutations that dirtied ``dirty_subjects``: the dirty nodes themselves
    plus every node that can *reach* a dirty node through reference edges —
    walked backwards, one in-edge scan per affected node through the graph's
    per-predicate reverse buckets (:meth:`ReferenceIndex.referrers`), so the
    cost is proportional to the closure, never to the graph.

    Soundness of the closure over the **current** edge set: a stale verdict
    was derived over the *old* edges, but any old edge that no longer exists
    had its source dirtied by the removal, so by induction along the old
    reference path every stale referrer is either dirty itself or reaches a
    dirty node along surviving edges.
    """
    index = index if index is not None else ReferenceIndex(schema)
    dirty = set(dirty_subjects)
    if not dirty or not index.has_references:
        return frozenset(dirty)
    affected: Set[ObjectTerm] = set(dirty)
    frontier: List[ObjectTerm] = list(dirty)
    while frontier:
        node = frontier.pop()
        if isinstance(node, Literal):
            continue
        for subject in index.referrers(graph, node):
            if subject not in affected:
                affected.add(subject)
                frontier.append(subject)
    return frozenset(affected)
