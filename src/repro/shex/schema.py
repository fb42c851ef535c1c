"""Shape Expression Schemas ``(Λ, δ)`` and the typing context ``Γ``.

Section 8 of the paper extends regular shape expressions with labels: a
schema is a pair ``(Λ, δ)`` where ``δ`` maps each label to a regular shape
expression whose arcs may reference other labels (``@<Person>``).  Matching
then happens *under a context* ``Γ`` holding the typing hypotheses made so
far; the rule ``MatchShape`` adds ``n → l`` to the context before checking
``δ(l)`` against ``Σgₙ``, which is what makes recursive schemas (Example 13,
Example 14) terminate.

This module provides:

* :class:`Schema` — the ``(Λ, δ)`` pair with convenience constructors,
* :class:`ValidationContext` — the ``Γ`` object shared by both engines; it
  holds the graph, the schema, the hypothesis set and a pluggable
  ``neighbourhood matcher`` so the same recursion logic drives the
  derivative engine, the backtracking engine and any future engine.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..rdf.graph import Graph
from ..rdf.terms import IRI, Literal, ObjectTerm, Triple
from .expressions import (
    Arc,
    ShapeExpr,
    expression_depth,
    iter_subexpressions,
    referenced_labels,
)
from .node_constraints import (
    ConstraintAnd,
    ConstraintNot,
    ConstraintOr,
    NodeConstraint,
    ShapeRef,
)
from .results import MatchResult, MatchStats
from .typing import ShapeLabel, ShapeTyping

__all__ = ["Schema", "SchemaError", "ValidationContext", "NeighbourhoodMatcher",
           "LazyNeighbourhood", "FRAMES_PER_HOP"]

#: Python frames the derivative engine spends on one ``@label`` reference hop
#: besides the walk down the referencing expression: ``check_reference`` →
#: ``match_neighbourhood`` → ``derivative`` → atom dispatch → ``_derive_arc``.
#: Pinned by ``tests/test_recursion_budget.py``.
FRAMES_PER_HOP = 5

#: frames kept free below the deepest reference chain, for the caller's own
#: stack (CLI, HTTP handler thread) and the node-constraint checks at a leaf.
#: A descent also checks the recursion limit once it has used about this
#: many frames, so shallow runs never touch the limit.
STACK_HEADROOM = 256

_RECURSION_LIMIT_LOCK = threading.Lock()


class SchemaError(Exception):
    """Raised for malformed schemas (unknown labels, missing start shape…)."""


#: Signature of the function both engines expose: match an expression against
#: a set of triples under a context, returning a :class:`MatchResult`.
NeighbourhoodMatcher = Callable[
    [ShapeExpr, FrozenSet[Triple], "ValidationContext"], MatchResult
]


class Schema:
    """A Shape Expression Schema: a finite set of labelled shape expressions."""

    def __init__(self, shapes: Mapping[ShapeLabel | str, ShapeExpr],
                 start: Optional[ShapeLabel | str] = None):
        self._shapes: Dict[ShapeLabel, ShapeExpr] = {}
        for label, expr in shapes.items():
            label = label if isinstance(label, ShapeLabel) else ShapeLabel(label)
            if not isinstance(expr, ShapeExpr):
                raise SchemaError(f"shape {label} is not a ShapeExpr: {expr!r}")
            self._shapes[label] = expr
        if not self._shapes:
            raise SchemaError("a schema needs at least one shape")
        if start is not None:
            start = start if isinstance(start, ShapeLabel) else ShapeLabel(start)
            if start not in self._shapes:
                raise SchemaError(f"start shape {start} is not defined")
        self._start = start
        self._max_depth: Optional[int] = None
        self._check_references()

    def _check_references(self) -> None:
        """Every ``@label`` reference must be an arc's whole object constraint
        and point at a defined shape.

        Both engines resolve a reference only where it is an arc's object
        (``vp → @label``); nested in a constraint combinator (``NOT @<S>``,
        ``@<S> OR xsd:string``) it would reach ``ShapeRef.matches``, which
        cannot decide it.
        """
        for label, expr in self._shapes.items():
            for sub in iter_subexpressions(expr):
                if not isinstance(sub, Arc):
                    continue
                constraint = sub.object
                if isinstance(constraint, ShapeRef):
                    referenced = constraint.label
                    referenced = (referenced if isinstance(referenced, ShapeLabel)
                                  else ShapeLabel(str(referenced)))
                    if referenced not in self._shapes:
                        raise SchemaError(
                            f"shape {label} references undefined shape {referenced}"
                        )
                elif _nests_shape_ref(constraint):
                    raise SchemaError(
                        f"shape {label} nests a shape reference inside the "
                        f"constraint {constraint.describe()}; a reference must "
                        "be an arc's whole object constraint"
                    )

    # -- accessors -------------------------------------------------------------
    @property
    def start(self) -> Optional[ShapeLabel]:
        """The start shape, if one was declared."""
        return self._start

    def labels(self) -> Iterator[ShapeLabel]:
        """Iterate over the labels ``Λ`` in sorted order."""
        return iter(sorted(self._shapes.keys()))

    def expression(self, label: ShapeLabel | str) -> ShapeExpr:
        """Return ``δ(label)``."""
        label = label if isinstance(label, ShapeLabel) else ShapeLabel(label)
        try:
            return self._shapes[label]
        except KeyError:
            raise SchemaError(f"unknown shape label: {label}") from None

    def __contains__(self, label: object) -> bool:
        if isinstance(label, str):
            label = ShapeLabel(label)
        return label in self._shapes

    def __len__(self) -> int:
        return len(self._shapes)

    def items(self) -> Iterator[Tuple[ShapeLabel, ShapeExpr]]:
        """Iterate over ``(label, expression)`` pairs in label order."""
        for label in self.labels():
            yield label, self._shapes[label]

    def is_recursive(self) -> bool:
        """True if any shape can reach itself through ``@label`` references."""
        return any(label in self._reachable(label) for label in self._shapes)

    def dependencies(self, label: ShapeLabel | str) -> FrozenSet[ShapeLabel]:
        """Return the labels directly referenced by ``label``'s expression."""
        expr = self.expression(label)
        return frozenset(
            ref if isinstance(ref, ShapeLabel) else ShapeLabel(str(ref))
            for ref in referenced_labels(expr)
        )

    def max_expression_depth(self) -> int:
        """The height of the deepest shape expression (computed once)."""
        if self._max_depth is None:
            self._max_depth = max(expression_depth(expr) for expr in self._shapes.values())
        return self._max_depth

    def _reachable(self, label: ShapeLabel) -> FrozenSet[ShapeLabel]:
        seen: Set[ShapeLabel] = set()
        frontier = list(self.dependencies(label))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.dependencies(current))
        return frozenset(seen)

    def __repr__(self) -> str:
        labels = ", ".join(str(label) for label in self.labels())
        return f"Schema([{labels}], start={self._start})"

    # -- construction helpers ---------------------------------------------------
    @classmethod
    def single(cls, label: ShapeLabel | str, expr: ShapeExpr) -> "Schema":
        """A schema with exactly one shape, also used as the start shape."""
        return cls({label: expr}, start=label)

    @classmethod
    def from_shexc(cls, text: str) -> "Schema":
        """Parse a schema written in the ShEx compact syntax."""
        from .shexc import parse_shexc

        return parse_shexc(text)

    def to_shexc(self) -> str:
        """Serialise the schema back to ShEx compact syntax."""
        from .shexc import serialize_shexc

        return serialize_shexc(self)


def _nests_shape_ref(constraint: NodeConstraint) -> bool:
    """True when a constraint combinator has a :class:`ShapeRef` operand."""
    if isinstance(constraint, ShapeRef):
        return True
    if isinstance(constraint, ConstraintNot):
        return _nests_shape_ref(constraint.operand)
    if isinstance(constraint, (ConstraintAnd, ConstraintOr)):
        return any(_nests_shape_ref(operand) for operand in constraint.operands)
    return False


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


#: shared empty neighbourhood (literals, node-free subjects) — one instance.
_EMPTY_NEIGHBOURHOOD: FrozenSet[Triple] = frozenset()


class LazyNeighbourhood:
    """An iterable ``Σgₙ`` proxy that defers the scan until iterated.

    The compiled-schema prefilter only touches its ``triples`` argument in
    the value-screen loop; every count-only decision (nullability, first /
    allowed / required predicates, cardinality bounds) reads the counts
    from :meth:`Graph.predicate_counts` alone.  Handing the prefilter this
    proxy means most decisions never materialise a single neighbourhood
    triple.  The graph caches the underlying scan, so repeated iteration
    costs one lookup.
    """

    __slots__ = ("_fetch", "_node")

    def __init__(self, fetch, node):
        self._fetch = fetch
        self._node = node

    def __iter__(self):
        return iter(self._fetch(self._node))


#: sentinel for object-class memo misses — ``None`` is a valid memoised entry
#: (a reference predicate), so ``dict.get`` needs a distinct default.
_NO_CLASS = object()


#: sentinel dependency depth marking an outcome forced by the recursion-depth
#: budget; it never resolves (no frame ever settles at this depth), so the
#: poison propagates to every enclosing frame and nothing gets cached.
_BUDGET_POISON = -1


class _Frame:
    """Bookkeeping for one in-progress ``check_reference`` activation.

    ``deps`` holds the depths of every in-progress hypothesis this frame's
    outcome consulted (possibly including its own depth — the coinductive
    knot — and ``_BUDGET_POISON`` when the recursion budget fired in its
    subtree).  A frame whose deps contain nothing but its own depth is
    *definitive*; anything else is conditional on enclosing frames.
    """

    __slots__ = ("node", "label", "depth", "deps")

    def __init__(self, node: ObjectTerm, label: ShapeLabel, depth: int):
        self.node = node
        self.label = label
        self.depth = depth
        self.deps: Set[int] = set()


class ValidationContext:
    """The typing context ``Γ`` threaded through a validation run.

    The context records the *hypotheses*: the ``(node, label)`` pairs whose
    validation is currently in progress.  When an arc references a label and
    the object node is already hypothesised for that label, the reference is
    assumed to hold, which is exactly the coinductive reading of the
    ``MatchShape`` rule and guarantees termination on cyclic data
    (``:alice foaf:knows :bob . :bob foaf:knows :alice .``).

    Verdicts are cached so shared sub-structures are validated once — and so
    a single context can be reused for a whole-graph bulk run.  Caching is
    *sound*: a verdict derived while the subtree consulted an in-progress
    hypothesis from an **enclosing** frame is provisional (the hypothesis may
    yet be refuted) and is only promoted to the cache once the frame that
    owns the hypothesis settles successfully; failures with such
    dependencies, and any outcome forced by the recursion-depth budget, are
    never cached at all.

    :meth:`check_reference` is where every pair is decided, in the order
    settled verdicts → compiled-schema prefilter (:meth:`prefilter_check`,
    only called from there) → matcher.  :meth:`node_signature` keys the bulk
    loop's signature cache and never consults the prefilter.

    The actual neighbourhood matching is delegated to the ``matcher``
    callable so the derivative and backtracking engines can share this class.
    """

    def __init__(self, graph: Graph, schema: Optional[Schema],
                 matcher: NeighbourhoodMatcher,
                 max_recursion_depth: int = 500,
                 compiled: Optional[object] = None):
        self.graph = graph
        self.schema = schema
        #: optional :class:`~repro.shex.compiled.CompiledSchema` enabling the
        #: static prefilter and the engine's predicate-indexed atom dispatch.
        #: Kept untyped to avoid a circular import; ``None`` disables both.
        self.compiled = compiled
        #: per-node predicate multisets, computed once and shared by every
        #: label the node is checked against (only populated when compiled).
        self._pred_counts: Dict[ObjectTerm, Mapping] = {}
        #: pairs the prefilter already found undecidable (keyed by node so
        #: retraction pops per node).  ``check_reference`` re-enters a pair
        #: whose engine outcome was not settled — a failure resting on an
        #: enclosing hypothesis, a dropped provisional success, a budget
        #: cut-off — and this memo spares that re-entry the prefilter's
        #: count and value scans.
        self._prefilter_unknown: Dict[ObjectTerm, Set[ShapeLabel]] = {}
        self._matcher = matcher
        #: hypothesis → depth of the frame that assumed it.
        self._hypotheses: Dict[Tuple[ObjectTerm, ShapeLabel], int] = {}
        #: confirmed and refuted verdicts, keyed by node (retraction pops
        #: whole nodes).
        self._confirmed: Dict[ObjectTerm, Set[ShapeLabel]] = {}
        self._failed: Dict[ObjectTerm, Set[ShapeLabel]] = {}
        #: provisionally-validated pair → depths of the active frames whose
        #: hypotheses it rests on (never empty, never containing the poison).
        #: Consultable like a cache *within* the run (the consumer inherits
        #: the dependency set); every time a frame settles, entries that
        #: depended on it are rewritten (success), confirmed (success and no
        #: dependencies left) or dropped (failure).
        self._provisional: Dict[Tuple[ObjectTerm, ShapeLabel], Set[int]] = {}
        #: inverse index: frame depth → pairs depending on it, so settling a
        #: frame touches only its dependents instead of scanning every entry.
        self._provisional_by_depth: Dict[int, Set[Tuple[ObjectTerm, ShapeLabel]]] = {}
        self.stats = MatchStats()
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
        self._depth = 0
        self._frames: List[_Frame] = []
        # hand engines that consume triples in predicate order the graph's
        # cached pre-sorted neighbourhoods; engines that don't (backtracking,
        # SPARQL, derivative engine with order_by_predicate=False) keep
        # getting plain frozensets and no sort is paid on their behalf.
        engine = getattr(matcher, "__self__", None)
        self._ordered_neighbourhoods = bool(
            getattr(engine, "wants_ordered_neighbourhoods", False))
        #: neighbourhood-signature verdict cache attached by the bulk
        #: validator (:class:`~repro.shex.cache.SignatureCache`); ``None``
        #: disables the signature fast path.
        self.signature_cache = None
        #: node → canonical signature memo.  Presence-keyed, because ``None``
        #: (signature-open, engine must run) is a valid memoised answer.
        self._signatures: Dict[ObjectTerm, Optional[tuple]] = {}
        #: object-class memo: predicate → object → constraint verdict bits,
        #: or predicate → ``None`` when a shape-reference atom can consume
        #: the predicate's triples (their subjects are signature-open).
        self._object_classes: Dict[IRI, Optional[Dict[ObjectTerm, tuple]]] = {}

    # -- typing bookkeeping -----------------------------------------------------
    @property
    def typing(self) -> ShapeTyping:
        """The typing confirmed so far (``Γ.typing`` in the paper).

        Freezes the context's verdicts into a new :class:`ShapeTyping` on
        every access: O(n) in the confirmed pairs.
        """
        return ShapeTyping(self._confirmed)

    def assume(self, node: ObjectTerm, label: ShapeLabel) -> None:
        """Add the hypothesis ``node → label`` (the ``Γ{n → l}`` operation)."""
        self._hypotheses.setdefault((node, label), self._depth)

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
            self._frames[-1].deps.add(depth)
        return True

    def confirm(self, node: ObjectTerm, label: ShapeLabel) -> None:
        """Record ``node → label`` as definitely established."""
        self._confirmed.setdefault(node, set()).add(label)

    def record_failure(self, node: ObjectTerm, label: ShapeLabel) -> None:
        """Record that ``node`` definitely does not have shape ``label``."""
        self._failed.setdefault(node, set()).add(label)

    def is_confirmed(self, node: ObjectTerm, label: ShapeLabel) -> bool:
        """True if ``node → label`` has already been established."""
        labels = self._confirmed.get(node)
        return labels is not None and label in labels

    def is_failed(self, node: ObjectTerm, label: ShapeLabel) -> bool:
        """True if ``node → label`` has already been refuted."""
        labels = self._failed.get(node)
        return labels is not None and label in labels

    # -- the retraction protocol --------------------------------------------------
    def retract_nodes(self, nodes: Iterable[ObjectTerm]) -> int:
        """Drop every verdict (and per-node cache) about ``nodes``.

        The context half of incremental revalidation: after graph mutations,
        the caller computes the affected closure (the dirty subjects plus
        everything that can reach them along reference edges —
        :func:`repro.shex.partition.affected_nodes`) and retracts exactly
        those nodes before re-running them.

        Soundness mirrors the settled-verdict merge rule in reverse: the
        confirmed/failed stores only ever hold **settled** verdicts
        (provisional, hypothesis-dependent outcomes are parked separately and
        budget-poisoned outcomes are never recorded at all), so retraction
        only removes definitive facts — and every retained fact is still
        valid, because a verdict whose derivation could have consulted an
        affected node is itself inside the closure by construction.

        Must not be called while a validation is in progress (frames active);
        raises :class:`SchemaError` then.  Returns the number of settled
        verdicts dropped.
        """
        if self._frames or self._hypotheses:
            raise SchemaError(
                "retract_nodes while a validation is in progress would drop "
                "state active frames rely on"
            )
        node_set = set(nodes)
        if not node_set:
            return 0
        dropped = 0
        # every store below is node-keyed, so retraction costs O(closure) —
        # never a scan of everything the context has settled.
        for node in node_set:
            confirmed_labels = self._confirmed.pop(node, None)
            if confirmed_labels:
                dropped += len(confirmed_labels)
            failed_labels = self._failed.pop(node, None)
            if failed_labels:
                dropped += len(failed_labels)
            # per-node caches: predicate counts, prefilter misses and the
            # signature are pure functions of the node's own (changed) arcs.
            # (The SignatureCache itself survives: its entries are keyed by
            # the signature structure, which mutated nodes no longer produce.)
            self._pred_counts.pop(node, None)
            self._prefilter_unknown.pop(node, None)
            self._signatures.pop(node, None)
        # provisional state never survives a completed run; clear defensively
        # so a retraction after an aborted run cannot resurrect stale entries.
        self._provisional.clear()
        self._provisional_by_depth.clear()
        # object classes never go stale (constraint bits are context-free),
        # but clearing them here is what bounds the memo on a long-lived
        # session that keeps meeting new objects.
        self._object_classes.clear()
        return dropped

    def settled_counts(self) -> Dict[str, int]:
        """Counts of the settled verdicts this context holds.

        A session hook for the service layer's ``ServiceStats``: the size of
        the warm verdict state a long-lived server keeps between requests.
        Provisional entries are counted separately (non-zero only while a
        validation is in progress or after an aborted run).
        """
        return {
            "confirmed": sum(len(labels) for labels in self._confirmed.values()),
            "failed": sum(len(labels) for labels in self._failed.values()),
            "provisional": len(self._provisional),
        }

    # -- the cross-context merge protocol -----------------------------------------
    def seed_settled(
        self,
        confirmed: Iterable[Tuple[ObjectTerm, ShapeLabel]] = (),
        failed: Iterable[Tuple[ObjectTerm, ShapeLabel]] = (),
    ) -> None:
        """Import **settled** verdicts established by another context.

        This is the only way verdicts may cross context (and process)
        boundaries during sharded validation, and it is sound precisely
        because only *definitive* verdicts are accepted: confirmed pairs were
        established with no outstanding hypothesis, refuted pairs failed on
        their own neighbourhood, and both are order-independent facts about
        the graph.  Provisional verdicts (conditional on in-progress
        hypotheses) and budget-poisoned outcomes must never be passed here —
        :meth:`settled_verdicts` on the exporting side excludes them by
        construction.
        """
        for node, label in confirmed:
            self._confirmed.setdefault(node, set()).add(label)
        for node, label in failed:
            self._failed.setdefault(node, set()).add(label)

    def settled_verdicts(
        self,
    ) -> Tuple[
        Tuple[Tuple[ObjectTerm, ShapeLabel], ...],
        Tuple[Tuple[ObjectTerm, ShapeLabel], ...],
    ]:
        """Export the settled ``(confirmed, failed)`` pairs of this context.

        The counterpart of :meth:`seed_settled`: returns exactly the verdicts
        that may be shared with other contexts.  Provisional entries (still
        conditional on an active hypothesis) and anything forced by the
        recursion budget are not part of either set.
        """
        confirmed = tuple(
            (node, label)
            for node, labels in sorted(
                self._confirmed.items(), key=lambda item: item[0].sort_key()
            )
            for label in sorted(labels)
        )
        failed = tuple(
            (node, label)
            for node, labels in sorted(
                self._failed.items(), key=lambda item: item[0].sort_key()
            )
            for label in sorted(labels)
        )
        return confirmed, failed

    # -- the compiled-schema fast path ---------------------------------------------
    def _neighbourhood_of(self, node: ObjectTerm):
        """``Σgₙ`` as the active engine wants it (literals have none)."""
        if isinstance(node, Literal):
            # literals have no outgoing arcs; they conform only to shapes
            # accepting the empty neighbourhood
            return frozenset()
        if self._ordered_neighbourhoods:
            return self.graph.neighbourhood_ordered(node)
        return self.graph.neighbourhood(node)

    def _prefilter_inputs(self, node: ObjectTerm):
        """``(neighbourhood, predicate counts)`` for the prefilter, cached.

        The counts come from the graph's SPO index without materialising a
        single triple, once per node, shared by every label the node is
        checked against.  The neighbourhood stays lazy — the prefilter only
        iterates it when value screens apply, and is order-insensitive, so
        the predicate sort the engines want is never paid here.
        """
        if isinstance(node, Literal):
            return _EMPTY_NEIGHBOURHOOD, self._pred_counts.setdefault(node, {})
        counts = self._pred_counts.get(node)
        if counts is None:
            counts = self._pred_counts[node] = self.graph.predicate_counts(node)
        return LazyNeighbourhood(self.graph.neighbourhood, node), counts

    def _record_decision(self, node: ObjectTerm, label: ShapeLabel,
                         decision) -> None:
        """Record a prefilter verdict — definitive, never hypothesis-bound."""
        if decision.matched:
            self.stats.prefilter_accepts += 1
            self.confirm(node, label)
        else:
            self.stats.prefilter_rejects += 1
            self.record_failure(node, label)

    def prefilter_check(self, node: ObjectTerm, label: ShapeLabel):
        """Try to decide ``(node, label)`` statically; record any verdict.

        Returns the :class:`~repro.shex.compiled.PrefilterDecision` (and
        confirms / records the failure — prefilter verdicts are definitive,
        they never rest on a hypothesis) or ``None`` when the engine must
        run.  :meth:`check_reference` is its only caller.
        """
        compiled = self.compiled
        if compiled is None:
            return None
        unknown = self._prefilter_unknown.get(node)
        if unknown is not None and label in unknown:
            return None
        shape = compiled.shape_or_none(label)
        if shape is None:
            return None
        start = perf_counter()
        neighbourhood, counts = self._prefilter_inputs(node)
        decision = shape.prefilter(neighbourhood, counts)
        if decision is None:
            self._prefilter_unknown.setdefault(node, set()).add(label)
        else:
            self._record_decision(node, label, decision)
        self.stats.prefilter_time += perf_counter() - start
        return decision

    # -- neighbourhood signatures --------------------------------------------------
    def node_signature(self, node: ObjectTerm) -> Optional[tuple]:
        """The canonical neighbourhood signature of ``node``, or ``None``.

        The signature is the sorted multiset of ``(predicate IRI string,
        object-class bits)`` pairs over ``Σgₙ``, where an object's class is
        one context-free constraint verdict bit per candidate atom of the
        predicate.  Because the class fixes the verdict bit of every atom a
        triple can touch, the engine's verdict for ``(node, label)`` is a
        pure function of the signature, for **any** label: equal signatures
        replay identical derivative chains, and the final nullability test
        is triple-order-independent.

        ``None`` marks a signature-*open* node: some shape-reference atom
        can consume one of its triples, so its verdict may rest on another
        node's verdict or on a coinductive hypothesis.  Open nodes always go
        through :meth:`check_reference`.  A signature depends only on the
        node's own arcs; memoised per node and popped on retraction.
        """
        compiled = self.compiled
        if compiled is None:
            return None
        memo = self._signatures
        if node in memo:
            return memo[node]
        signature = self._build_signature(node, compiled)
        memo[node] = signature
        return signature

    def _build_signature(self, node: ObjectTerm,
                         compiled) -> Optional[tuple]:
        signature_atoms = compiled.signature_atoms
        classes = self._object_classes
        items: List[tuple] = []
        # one atom-table fetch per predicate group, per-object class memo,
        # no Triple materialisation, and items keyed by the predicate's IRI
        # string so the final sort and the cache-key hash run on C-speed
        # values.
        for predicate, objects in self.graph.predicate_objects(node).items():
            sub = classes.get(predicate, _NO_CLASS)
            if sub is _NO_CLASS:
                atoms = signature_atoms(predicate)
                sub = classes[predicate] = None if any(
                    isinstance(constraint, ShapeRef)
                    for _, constraint in atoms) else {}
            if sub is None:
                return None
            constraints = None
            pkey = predicate.value
            for obj in objects:
                bits = sub.get(obj)
                if bits is None:
                    if constraints is None:
                        constraints = [constraint for _, constraint
                                       in signature_atoms(predicate)]
                    bits = sub[obj] = tuple(constraint.matches(obj)
                                            for constraint in constraints)
                items.append((pkey, bits))
        items.sort()
        return tuple(items)

    # -- the MatchShape rule -----------------------------------------------------
    def check_reference(self, node: ObjectTerm, label: ShapeLabel | str) -> MatchResult:
        """Validate ``node`` against the shape named ``label``.

        Implements the ``MatchShape`` / ``Arcref`` rules: extend the context
        with the hypothesis, match ``δ(label)`` against the node's
        neighbourhood, and cache the verdict (when it is definitive — see the
        class docstring) so shared sub-structures are validated once.
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
                self._frames[-1].deps.update(provisional_deps)
            return MatchResult.success()
        if self._depth >= self.max_recursion_depth:
            # budget exhaustion is not a semantic verdict: poison the
            # enclosing frames so nothing derived from it gets cached.
            if self._frames:
                self._frames[-1].deps.add(_BUDGET_POISON)
            return MatchResult.failure(
                f"recursion depth limit ({self.max_recursion_depth}) exceeded "
                f"while validating {node.n3()} against {label}",
                limit_exceeded=True,
            )
        # the static fast path: decide the pair from the compiled tables
        # alone, before any matching frame is constructed.  Prefilter
        # decisions never consult hypotheses, so they are definitive —
        # cacheable and shareable — even in the middle of a recursion.
        decision = self.prefilter_check(node, label)
        if decision is not None:
            if decision.matched:
                return MatchResult.success()
            return MatchResult.failure(
                f"{node.n3()} does not match shape {label}: {decision.reason}"
            )
        expr = self.schema.expression(label)
        neighbourhood = self._neighbourhood_of(node)
        self._depth += 1
        if self._depth == self._reserve_at \
                and sys.getrecursionlimit() < self._needed_limit:
            self._needed_limit = _reserve_recursion_limit(
                (self.max_recursion_depth - self._depth + 1) * self._frames_per_hop
                + STACK_HEADROOM)
        frame = _Frame(node, label, self._depth)
        self._frames.append(frame)
        self.assume(node, label)
        try:
            result = self._matcher(expr, neighbourhood, self)
        except BaseException:
            # e.g. a backtracking budget exception: the frame disappears
            # without settling, so everything conditional on it is dropped.
            self._settle_failure(frame.depth)
            raise
        finally:
            self.retract(node, label)
            self._frames.pop()
            self._depth -= 1
        # the depths of enclosing hypotheses the verdict rests on; consulting
        # this frame's own hypothesis is fine (the coinductive knot being
        # tied) and is resolved right here.
        outer_deps = frame.deps - {frame.depth}
        definitive = not outer_deps
        if outer_deps and self._frames:
            # the verdict leans on assumptions owned by enclosing frames —
            # propagate the dependencies (and any budget poison) outwards.
            self._frames[-1].deps.update(outer_deps)
        if result.matched:
            if definitive:
                self.confirm(node, label)
                # this frame's hypothesis just proved out: resolve everything
                # that was conditional on it.
                self._settle_success(frame.depth, set())
            else:
                self._settle_success(frame.depth, outer_deps)
                if _BUDGET_POISON not in outer_deps:
                    # provisional: reusable within the run, conditional on
                    # every enclosing hypothesis it consulted.
                    self._park_provisional((node, label), set(outer_deps))
                # else: poisoned by the budget — return the verdict but
                # cache nothing.
            return MatchResult(True, result.stats)
        # failure: provisional successes that assumed this frame's
        # hypothesis rested on an assumption that did not prove out.
        self._settle_failure(frame.depth)
        if definitive:
            self.record_failure(node, label)
        limit_hit = _BUDGET_POISON in outer_deps or result.limit_exceeded
        return MatchResult.failure(
            f"{node.n3()} does not match shape {label}: {result.reason}",
            result.stats,
            limit_exceeded=limit_hit,
        )

    # -- provisional-entry settlement --------------------------------------------
    def _park_provisional(self, pair: Tuple[ObjectTerm, ShapeLabel],
                          deps: Set[int]) -> None:
        """Record ``pair`` as provisionally valid, conditional on ``deps``."""
        self._provisional[pair] = deps
        for dep in deps:
            self._provisional_by_depth.setdefault(dep, set()).add(pair)

    def _unlink_provisional(self, pair: Tuple[ObjectTerm, ShapeLabel],
                            deps: Set[int]) -> None:
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
