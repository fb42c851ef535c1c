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
  holds the graph, the schema, the verdicts and a pluggable ``neighbourhood
  matcher``.  Production solves the typing as a greatest fixpoint with a
  worklist; the reference keeps the recursive ``MatchShape`` descent under
  hypotheses.
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
from .typing import ShapeLabel, ShapeTyping, _as_label

__all__ = ["Schema", "SchemaError", "ValidationContext", "NeighbourhoodMatcher",
           "LazyNeighbourhood", "FRAMES_PER_HOP", "MAX_RECURSION_DEPTH"]

#: Python frames the derivative engine spends on one ``@label`` reference hop
#: besides the walk down the referencing expression: ``check_reference`` →
#: ``match_neighbourhood`` → ``derivative`` → atom dispatch → ``_derive_arc``.
#: Pinned by ``tests/test_recursion_budget.py``.
FRAMES_PER_HOP = 5

#: reference hops one descent may take before its pairs get
#: ``limit_exceeded``: the budget of every context a ``Validator`` (and so
#: every session, shard worker and CLI run) creates.
MAX_RECURSION_DEPTH = 500

#: frames kept free below the deepest reference chain, for the caller's own
#: stack (CLI, HTTP handler thread) and the node-constraint checks at a leaf.
#: A descent also checks the recursion limit once it has used about this
#: many frames, so shallow runs never touch the limit.
STACK_HEADROOM = 256

_RECURSION_LIMIT_LOCK = threading.Lock()

#: a ``(node, label)`` pair of the typing.
_Pair = Tuple[ObjectTerm, ShapeLabel]


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


#: sentinel dependency depth marking an outcome forced by the recursion-depth
#: budget; it never resolves (no frame ever settles at this depth), so the
#: poison propagates to every enclosing frame and nothing gets cached.
_BUDGET_POISON = -1

def _no_bit(obj: ObjectTerm) -> bool:
    """Placeholder test of a ``@label`` atom: its bit is read from the typing."""
    return False


#: the answers of a production read: the matcher only looks at the bit.
_HOLDS = MatchResult(True)
_FAILS = MatchResult(False)


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

    A context runs in one of two ways, chosen by ``compiled``.

    **Production** (a :class:`~repro.shex.compiled.CompiledSchema` given,
    as every :class:`~repro.shex.validator.Validator` outside the reference
    does): the typing is the greatest fixpoint of one-step matching, which
    is what the coinductive typing rules of Section 8 define for schemas
    without shape negation.  :meth:`check_reference` never recurses.  A
    reference met inside a match reads the current status of the pair and
    records the read (:meth:`_status`).  A call from outside a match demands
    the pair and runs a worklist solve to its end (:meth:`_solve`).  Each pair
    of a solve is decided by the signature lane (:meth:`_decide`: typed
    signature → signature cache → prefilter → matcher).  After a solve every
    verdict it reached is final, so the confirmed and failed stores only
    ever hold settled verdicts, and stack depth does not grow with
    reference chains.

    **Reference** (no compiled schema): the paper's recursive algorithm.  The
    context records the *hypotheses*: the ``(node, label)`` pairs whose
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

    The actual neighbourhood matching is delegated to the ``matcher``
    callable so the derivative and backtracking engines can share this class.
    """

    def __init__(self, graph: Graph, schema: Optional[Schema],
                 matcher: NeighbourhoodMatcher,
                 max_recursion_depth: int = MAX_RECURSION_DEPTH,
                 compiled: Optional[object] = None):
        self.graph = graph
        self.schema = schema
        #: optional :class:`~repro.shex.compiled.CompiledSchema`: selects the
        #: production fixpoint and supplies its signature atoms, the static
        #: prefilter and the engine's predicate-indexed atom dispatch.  Kept
        #: untyped to avoid a circular import; ``None`` runs the reference.
        self.compiled = compiled
        #: per-node predicate multisets, computed once and shared by every
        #: label the node is checked against (only populated when compiled).
        self._pred_counts: Dict[ObjectTerm, Mapping] = {}
        #: pairs the prefilter already found undecidable (keyed by node so
        #: retraction pops per node).  A solve re-matches a pair whose reads
        #: fell, under a new typed signature, and this memo spares the
        #: prefilter's count and value scans then.
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
        #: neighbourhood-signature verdict cache attached by the validator
        #: (:class:`~repro.shex.cache.SignatureCache`); ``None`` stores nothing.
        self.signature_cache = None
        #: node → typing-free part of its signature (:meth:`node_signature`).
        self._signatures: Dict[ObjectTerm, Tuple[tuple, tuple]] = {}
        #: object-class memo: predicate → (object → candidate-atom bits, the
        #: ``(bit index, label)`` of each ``@label`` atom among them, one
        #: bit test per atom).
        self._object_classes: Dict[IRI, Tuple[Dict[ObjectTerm, tuple], tuple, tuple]] = {}
        #: the greatest-fixpoint solve of a production context: the pair being
        #: matched (``None`` outside a match), the status of every unsettled
        #: demanded pair, the pairs still to match, and who read which pair.
        self._reader: Optional[_Pair] = None
        self._pending: Dict[_Pair, bool] = {}
        self._queue: List[_Pair] = []
        self._readers: Dict[_Pair, Dict[_Pair, None]] = {}

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
        confirmed/failed stores only ever hold **settled** verdicts (a
        production solve writes its pairs only once they are final; in the
        reference, provisional outcomes are parked separately and
        budget-poisoned ones are never recorded), so retraction only removes
        definitive facts — and every retained fact is still valid, because a
        verdict whose derivation could have read an affected node is itself
        inside the closure by construction.  The retained verdicts are then
        the fixed part of the typing the re-run solves against.

        Must not be called while a validation is in progress (frames active
        or a solve running); raises :class:`SchemaError` then.  Returns the
        number of settled verdicts dropped.
        """
        if self._frames or self._hypotheses or self._pending:
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
        because only *definitive* verdicts are accepted: every verdict a
        production solve writes is a greatest-fixpoint value, an
        order-independent fact about the graph.  Seeded verdicts are read as
        fixed by later solves.  In the reference, provisional verdicts
        (conditional on in-progress hypotheses) and budget-poisoned outcomes
        must never be passed here — :meth:`settled_verdicts` on the exporting
        side excludes them by construction.
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

    def prefilter_check(self, node: ObjectTerm, label: ShapeLabel):
        """Try to decide ``(node, label)`` statically.

        Returns the :class:`~repro.shex.compiled.PrefilterDecision` or
        ``None`` when the engine must run.  Decisions never read the typing,
        so they are definitive.  The signature lane of :meth:`_decide` is its
        only caller.
        """
        compiled = self.compiled
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
        elif decision.matched:
            self.stats.prefilter_accepts += 1
        else:
            self.stats.prefilter_rejects += 1
        self.stats.prefilter_time += perf_counter() - start
        return decision

    # -- neighbourhood signatures --------------------------------------------------
    def node_signature(self, node: ObjectTerm) -> tuple:
        """The typed neighbourhood signature of ``node`` under the current typing.

        The sorted multiset of ``(predicate IRI string, object-class bits)``
        pairs over ``Σgₙ``, with one bit per candidate atom of the predicate:
        the context-free constraint verdict for a value atom, the current
        typing bit of ``(object, label)`` for a ``@label`` atom (a read, see
        :meth:`_status`).  Because the bits fix the verdict of every atom a
        triple can touch, one-step matching of ``(node, label)`` is a pure
        function of the signature for **any** label: equal signatures replay
        identical derivative chains, and the final nullability test is
        triple-order-independent.  The typing-free part is memoised per node
        and popped on retraction, so a subject no reference atom can consume
        a triple of is answered from the memo alone.
        """
        memo = self._signatures.get(node)
        if memo is None:
            memo = self._signatures[node] = self._build_signature(node)
        closed, opened = memo
        if not opened:
            return closed
        items = list(closed)
        for pkey, obj, bits, refs in opened:
            typed = list(bits)
            for index, label in refs:
                typed[index] = self._status(obj, label)
            items.append((pkey, tuple(typed)))
        items.sort()
        return tuple(items)

    def _build_signature(self, node: ObjectTerm) -> Tuple[tuple, tuple]:
        """``(closed items, open items)``: the typing-free part of a signature."""
        signature_atoms = self.compiled.signature_atoms
        classes = self._object_classes
        closed: List[tuple] = []
        opened: List[tuple] = []
        # one atom-table fetch per predicate group, per-object class memo,
        # no Triple materialisation, and items keyed by the predicate's IRI
        # string so the final sort and the cache-key hash run on C-speed
        # values.
        for predicate, objects in self.graph.predicate_objects(node).items():
            sub = classes.get(predicate)
            if sub is None:
                atoms = [constraint for _, constraint in signature_atoms(predicate)]
                sub = classes[predicate] = ({}, tuple(
                    (index, _as_label(constraint.label))
                    for index, constraint in enumerate(atoms)
                    if isinstance(constraint, ShapeRef)), tuple(
                    _no_bit if isinstance(constraint, ShapeRef) else constraint.matches
                    for constraint in atoms))
            table, refs, tests = sub
            pkey = predicate.value
            for obj in objects:
                bits = table.get(obj)
                if bits is None:
                    bits = table[obj] = tuple(test(obj) for test in tests)
                if refs:
                    opened.append((pkey, obj, bits, refs))
                else:
                    closed.append((pkey, bits))
        closed.sort()
        return tuple(closed), tuple(opened)

    # -- the MatchShape rule -----------------------------------------------------
    def check_reference(self, node: ObjectTerm, label: ShapeLabel | str) -> MatchResult:
        """Validate ``node`` against the shape named ``label``.

        With a compiled schema (production) the pair is answered from the
        typing and never recursed into: inside a match the call is a read
        (:meth:`_status`); outside one the pair is demanded and the
        greatest fixpoint is solved (:meth:`_solve`) before the verdict is
        returned.  Without one (the reference) it implements the
        ``MatchShape`` / ``Arcref`` rules: extend the context with the
        hypothesis, match ``δ(label)`` against the node's neighbourhood, and
        cache the verdict (when it is definitive — see the class docstring)
        so shared sub-structures are validated once.
        """
        if self.schema is None:
            raise SchemaError("shape references need a schema-aware validation context")
        label = label if isinstance(label, ShapeLabel) else ShapeLabel(label)
        self.stats.reference_checks += 1
        if self.compiled is not None:
            if self._reader is not None:
                return _HOLDS if self._status(node, label) else _FAILS
            pair, verdict = (node, label), None
            if self.is_confirmed(node, label):
                return MatchResult.success()
            if not self.is_failed(node, label):
                holds, verdict = self._solve(pair)
                if holds:
                    return MatchResult.success()
            if verdict is None or self._signatures[node][1]:
                # explain under the final typing: the first verdict of a
                # subject with reference bits may rest on statuses that fell
                verdict = self._decide(pair)
            return MatchResult.failure(verdict[1])
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
        self.stats.merge(result.stats)
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

    # -- the greatest fixpoint (production) ------------------------------------------
    def _status(self, node: ObjectTerm, label: ShapeLabel) -> bool:
        """Read the typing bit of ``(node, label)``; never recurses.

        Settled pairs answer from the verdict store.  Inside a match an
        unsettled pair answers its current status — an unseen pair is
        demanded: it starts true and is queued — and the read is recorded
        against the pair being matched.  Outside one (a signature asked for
        directly) the pair is solved first.
        """
        labels = self._confirmed.get(node)
        if labels is not None and label in labels:
            return True
        labels = self._failed.get(node)
        if labels is not None and label in labels:
            return False
        pair = (node, label)
        if self._reader is None:
            return self._solve(pair)[0]
        status = self._pending.get(pair)
        if status is None:
            status = self._pending[pair] = True
            self._queue.append(pair)
        if status:
            self._readers.setdefault(pair, {})[self._reader] = None
        return status

    def _solve(self, pair: _Pair) -> Tuple[bool, Tuple[bool, str]]:
        """Refine the typing from ``pair`` down to the greatest fixpoint.

        Each popped pair is matched once by :meth:`_decide`, its references
        read from the current typing.  A pair whose match fails turns false
        and re-queues exactly the pairs that read it.  Statuses only fall,
        and one-step matching is monotone in the reference bits (no operator
        of the language is a complement), so the loop ends at the greatest
        fixpoint; pairs settled before the solve stay fixed.  Every pair of
        the solve is then final and goes to the verdict store.  Returns the
        final status of ``pair`` and its first verdict: it is matched first,
        so nothing has read it yet and its own fall re-queues nobody.
        """
        pending, queue, readers = self._pending, self._queue, self._readers
        try:
            first = self._decide(pair)
            if not pending:
                # it read no unsettled pair: its verdict is final already
                (self._confirmed if first[0] else self._failed).setdefault(
                    pair[0], set()).add(pair[1])
                return first[0], first
            root, pending[pair] = pair, first[0]
            while queue:
                pair = queue.pop()
                if pending[pair] and not self._decide(pair)[0]:
                    pending[pair] = False
                    queue.extend(readers.pop(pair, ()))
            confirmed, failed = self._confirmed, self._failed
            for (node, label), holds in pending.items():
                (confirmed if holds else failed).setdefault(node, set()).add(label)
            return pending[root], first
        finally:
            pending.clear()
            queue.clear()
            readers.clear()

    def _decide(self, pair: _Pair) -> Tuple[bool, str]:
        """One-step matching of ``pair`` under the current typing.

        The signature lane: the typed signature (:meth:`node_signature`),
        the signature cache, then on a miss the prefilter and the matcher.
        The ``(conforms, reason)`` verdict is stored under the typed
        signature, so its reason names no node: every pair with that
        signature shares the one string.
        """
        node, label = pair
        outer, self._reader = self._reader, pair
        try:
            stats, cache = self.stats, self.signature_cache
            start = perf_counter()
            signature = self.node_signature(node)
            cached = cache.lookup(signature, label) if cache is not None else None
            stats.signature_time += perf_counter() - start
            if cached is not None:
                stats.signature_hits += 1
                return cached
            stats.signature_misses += 1
            decision = self.prefilter_check(node, label)
            if decision is not None:
                verdict = (decision.matched, decision.reason)
            else:
                result = self._matcher(self.schema.expression(label),
                                       self._neighbourhood_of(node), self)
                stats.merge(result.stats)
                matched = result.matched
                verdict = (matched, "" if matched else (
                    "neighbourhood signature matches a structure that does "
                    f"not satisfy {label}"))
            if cache is not None:
                cache.store(signature, label, *verdict)
                stats.signature_dedupes += 1
            return verdict
        finally:
            self._reader = outer

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
