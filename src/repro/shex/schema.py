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
* :class:`ValidationContext` — the ``Γ`` object shared by both engines: the
  graph, the schema, the settled verdicts and a pluggable ``neighbourhood
  matcher``;
* :class:`FixpointContext` — production: it solves the typing as a greatest
  fixpoint with a worklist.  The paper's recursive ``MatchShape`` descent
  under hypotheses is :class:`repro.shex.reference.ReferenceContext`, which
  only the reference validator loads.
"""

from __future__ import annotations

from time import perf_counter
from typing import (
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..rdf.graph import Graph, bucket_add
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

__all__ = ["Schema", "SchemaError", "ValidationContext", "FixpointContext",
           "NeighbourhoodMatcher"]

#: a ``(node, label)`` pair of the typing.
_Pair = Tuple[ObjectTerm, ShapeLabel]

#: entries the signature hash-cons table (``FixpointContext._shared``) may
#: hold before a write clears it.  The table is kept across writes, so memos
#: rebuilt after a write share with those of untouched nodes; the bound only
#: stops a long-lived session that keeps meeting new structures from growing
#: it for ever.
MAX_SHARED_SIGNATURE_ENTRIES = 1 << 16


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


def _no_bit(obj: ObjectTerm) -> bool:
    """Placeholder test of a ``@label`` atom: its bit is read from the typing."""
    return False


#: the answers of a production read: the matcher only looks at the bit.
_HOLDS = MatchResult(True)
_FAILS = MatchResult(False)


class ValidationContext:
    """The typing context ``Γ`` threaded through a validation run.

    The state both ways of computing the typing share: the graph, the
    schema, the statistics, the settled verdict stores and the
    neighbourhood fetch of the ``matcher`` (so the derivative and
    backtracking engines can share every context).  The engines call
    :meth:`check_reference`, which the subclasses implement:
    :class:`FixpointContext` in production and
    :class:`repro.shex.reference.ReferenceContext` for the reference.
    """

    def __init__(self, graph: Graph, schema: Optional[Schema],
                 matcher: NeighbourhoodMatcher):
        self.graph = graph
        self.schema = schema
        self._matcher = matcher
        #: confirmed and refuted verdicts, keyed by node (retraction pops
        #: whole nodes), each node's labels a graph-style bucket
        #: (:func:`~repro.rdf.graph.bucket_add`).  Only settled verdicts are
        #: ever written here.
        self._confirmed: Dict[ObjectTerm, Collection[ShapeLabel]] = {}
        self._failed: Dict[ObjectTerm, Collection[ShapeLabel]] = {}
        self.stats = MatchStats()

    def check_reference(self, node: ObjectTerm, label: ShapeLabel | str) -> MatchResult:
        """Validate ``node`` against the shape named ``label`` (the ``MatchShape`` rule)."""
        raise NotImplementedError

    # -- typing bookkeeping -----------------------------------------------------
    @property
    def typing(self) -> ShapeTyping:
        """The typing confirmed so far (``Γ.typing`` in the paper).

        Freezes the context's verdicts into a new :class:`ShapeTyping` on
        every access: O(n) in the confirmed pairs.
        """
        return ShapeTyping(self._confirmed)

    def confirm(self, node: ObjectTerm, label: ShapeLabel) -> None:
        """Record ``node → label`` as definitely established."""
        self._confirmed[node] = bucket_add(self._confirmed.get(node, ()), label)

    def record_failure(self, node: ObjectTerm, label: ShapeLabel) -> None:
        """Record that ``node`` definitely does not have shape ``label``."""
        self._failed[node] = bucket_add(self._failed.get(node, ()), label)

    def is_confirmed(self, node: ObjectTerm, label: ShapeLabel) -> bool:
        """True if ``node → label`` has already been established."""
        labels = self._confirmed.get(node)
        return labels is not None and label in labels

    def is_failed(self, node: ObjectTerm, label: ShapeLabel) -> bool:
        """True if ``node → label`` has already been refuted."""
        labels = self._failed.get(node)
        return labels is not None and label in labels

    def settled_counts(self) -> Dict[str, int]:
        """Counts of the settled verdicts this context holds.

        A session hook for the service layer's ``ServiceStats``: the size of
        the warm verdict state a long-lived server keeps between requests.
        """
        return {"confirmed": sum(map(len, self._confirmed.values())),
                "failed": sum(map(len, self._failed.values()))}

    # -- the cross-context merge protocol -----------------------------------------
    def seed_settled(self, confirmed: Iterable[_Pair] = (),
                     failed: Iterable[_Pair] = ()) -> None:
        """Import **settled** verdicts established by another context.

        This is the only way verdicts may cross context (and process)
        boundaries during sharded validation, and it is sound precisely
        because only *definitive* verdicts are accepted: every verdict a
        production solve writes is a greatest-fixpoint value, an
        order-independent fact about the graph.  Seeded verdicts are read as
        fixed by later solves.  :meth:`settled_verdicts` on the exporting
        side never includes the reference's provisional or budget-poisoned
        outcomes.
        """
        for node, label in confirmed:
            self.confirm(node, label)
        for node, label in failed:
            self.record_failure(node, label)

    def settled_verdicts(self) -> Tuple[Tuple[_Pair, ...], Tuple[_Pair, ...]]:
        """Export the settled ``(confirmed, failed)`` pairs of this context.

        The counterpart of :meth:`seed_settled`: returns exactly the verdicts
        that may be shared with other contexts.  Provisional entries (still
        conditional on an active hypothesis) and anything forced by the
        recursion budget are not part of either set.
        """
        def pairs(store):
            return tuple((node, label) for node, labels in sorted(
                store.items(), key=lambda item: item[0].sort_key())
                for label in sorted(labels))

        return pairs(self._confirmed), pairs(self._failed)

    def _neighbourhood_of(self, node: ObjectTerm) -> FrozenSet[Triple]:
        """``Σgₙ`` (literals have none)."""
        if isinstance(node, Literal):
            # literals have no outgoing arcs; they conform only to shapes
            # accepting the empty neighbourhood
            return frozenset()
        return self.graph.neighbourhood(node)


class FixpointContext(ValidationContext):
    """The production context: the typing as a greatest fixpoint.

    The typing is the greatest fixpoint of one-step matching, which is what
    the coinductive typing rules of Section 8 define for schemas without
    shape negation.  :meth:`check_reference` never recurses.  A reference
    met inside a match reads the current status of the pair and records the
    read (:meth:`_status`).  :meth:`verdicts` solves the unsettled pairs of a
    bulk run in one worklist (:meth:`_solve`); a call from outside a match is
    its single-pair case.  Each pair of a solve is decided by the signature
    lane (:meth:`_decide`: typed signature → signature cache → prefilter →
    matcher).  The context's only per-node memo is the typing-free part of
    each signature; nothing under the signature cache keeps one: the
    prefilter reads the graph's SPO buckets and the engine tests atoms
    directly.  After a solve every
    verdict it reached is final, so the confirmed and failed stores only
    ever hold settled verdicts, and stack depth does not grow with
    reference chains.

    ``compiled`` (a :class:`~repro.shex.compiled.CompiledSchema`, untyped
    to avoid a circular import) supplies the schema, the signature atoms
    and the prefilter; ``signature_cache`` (a
    :class:`~repro.shex.cache.SignatureCache`, or ``None``) holds the
    verdicts of typed signatures.
    """

    def __init__(self, graph: Graph, compiled, matcher: NeighbourhoodMatcher,
                 signature_cache=None):
        super().__init__(graph, compiled.schema, matcher)
        self.compiled = compiled
        self.signature_cache = signature_cache
        #: node → typing-free part of its signature (:meth:`node_signature`).
        self._signatures: Dict[ObjectTerm, Tuple[tuple, tuple]] = {}
        #: object-class memo: predicate → (object → its ``(predicate key,
        #: candidate-atom bits)`` item, the ``(bit index, label)`` of each
        #: ``@label`` atom among them, one bit test per atom).
        self._object_classes: Dict[IRI, Tuple[dict, tuple, tuple]] = {}
        #: hash-cons table: each signature item and each closed memo pair
        #: ``(closed items, ())`` maps to its one shared copy.
        self._shared: Dict[tuple, tuple] = {}
        #: the greatest-fixpoint solve: the pair being matched (``None``
        #: outside a match), the status of every unsettled demanded pair,
        #: the pairs still to match, and who read which pair.
        self._reader: Optional[_Pair] = None
        self._pending: Dict[_Pair, bool] = {}
        self._queue: List[_Pair] = []
        self._readers: Dict[_Pair, Dict[_Pair, None]] = {}

    # -- the retraction protocol --------------------------------------------------
    def retract_nodes(self, nodes: Iterable[ObjectTerm]) -> int:
        """Drop every verdict (and per-node cache) about ``nodes``.

        The context half of incremental revalidation: after graph mutations,
        the caller computes the affected closure (the dirty subjects plus
        everything that can reach them along reference edges —
        :func:`repro.shex.partition.affected_nodes`) and retracts exactly
        those nodes before re-running them.

        Soundness mirrors the settled-verdict merge rule in reverse: a solve
        writes its pairs to the confirmed and failed stores only once they
        are final, so retraction only removes definitive facts — and every
        retained fact is still valid, because a verdict whose derivation
        could have read an affected node is itself inside the closure by
        construction.  The retained verdicts are then the fixed part of the
        typing the re-run solves against.

        Must not be called while a solve is running (from inside a match);
        raises :class:`SchemaError` then.  Returns the number of settled
        verdicts dropped.
        """
        if self._reader is not None:
            raise SchemaError("retract_nodes while a solve is running would "
                              "drop verdicts it relies on")
        node_set = set(nodes)
        if not node_set:
            return 0
        dropped = 0
        # every store below is node-keyed, so retraction costs O(closure) —
        # never a scan of everything the context has settled.
        for node in node_set:
            dropped += len(self._confirmed.pop(node, ())) + len(self._failed.pop(node, ()))
            # the signature memo is a pure function of the node's own
            # (changed) arcs.  (The SignatureCache itself survives: its
            # entries are keyed by the signature structure, which mutated
            # nodes no longer produce.)
            self._signatures.pop(node, None)
        # object classes never go stale (constraint bits are context-free),
        # but clearing them here is what bounds the memo on a long-lived
        # session that keeps meeting new objects.
        self._object_classes.clear()
        if len(self._shared) > MAX_SHARED_SIGNATURE_ENTRIES:
            self._shared.clear()
        return dropped

    # -- the compiled-schema fast path ---------------------------------------------
    def prefilter_check(self, node: ObjectTerm, label: ShapeLabel):
        """Try to decide ``(node, label)`` statically.

        Returns the :class:`~repro.shex.compiled.PrefilterDecision` or
        ``None`` when the engine must run.  The prefilter reads the node's
        ``predicate → objects`` buckets straight from the graph's SPO index
        (a literal has none), so no triple is built.  Decisions never read
        the typing, so they are definitive.  The signature lane of
        :meth:`_decide` is its only caller.
        """
        shape = self.compiled.shape_or_none(label)
        if shape is None:
            return None
        start = perf_counter()
        decision = shape.prefilter(self.graph.predicate_objects(node))
        if decision is not None:
            if decision.matched:
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
        """``(closed items, open items)``: the typing-free part of a signature.

        Items and closed pairs come from the hash-cons table, so nodes with
        equal closed signatures share one memo.
        """
        signature_atoms = self.compiled.signature_atoms
        classes, shared = self._object_classes, self._shared
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
                item = table.get(obj)
                if item is None:
                    item = (pkey, tuple(test(obj) for test in tests))
                    item = table[obj] = shared.setdefault(item, item)
                if refs:
                    opened.append((pkey, obj, item[1], refs))
                else:
                    closed.append(item)
        closed.sort()
        if opened:
            return tuple(closed), tuple(opened)
        memo = (tuple(closed), ())
        return shared.setdefault(memo, memo)

    # -- the greatest fixpoint -----------------------------------------------------
    def check_reference(self, node: ObjectTerm, label: ShapeLabel | str) -> MatchResult:
        """Validate ``node`` against the shape named ``label``.

        The pair is answered from the typing and never recursed into: inside
        a match the call is a read (:meth:`_status`); outside one it is the
        single-pair case of :meth:`verdicts`.
        """
        label = label if isinstance(label, ShapeLabel) else ShapeLabel(label)
        if self._reader is not None:
            self.stats.reference_checks += 1
            return _HOLDS if self._status(node, label) else _FAILS
        holds, reason = self.verdicts(((node, label),))[0]
        return MatchResult(holds, reason=reason)

    def verdicts(self, pairs: Sequence[_Pair]) -> List[Tuple[bool, str]]:
        """The ``(conforms, reason)`` verdict of each of ``pairs``, in order.

        The unsettled pairs are solved in one worklist (:meth:`_solve`).  A
        failure's reason is the verdict the solve holds when the node's
        signature is closed, else one lane pass under the final typing.
        Each pair counts one reference check, as in the reference.
        """
        self.stats.reference_checks += len(pairs)
        confirmed, failed = self._confirmed, self._failed
        unsettled = [(node, label) for node, label in pairs
                     if label not in confirmed.get(node, ())
                     and label not in failed.get(node, ())]
        falls = self._solve(unsettled) if unsettled else {}
        signatures, result = self._signatures, []
        for pair in pairs:
            node, label = pair
            verdict = falls.get(pair)
            if verdict is None and label in confirmed.get(node, ()):
                verdict = (True, "")
            elif verdict is None or signatures[node][1]:
                # settled by an earlier run, or it read typing bits that may
                # have fallen after it failed
                verdict = self._decide(pair)
            result.append(verdict)
        return result

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
            return pair not in self._solve((pair,))
        status = self._pending.get(pair)
        if status is None:
            status = self._pending[pair] = True
            self._queue.append(pair)
        if status:
            self._readers.setdefault(pair, {})[self._reader] = None
        return status

    def _solve(self, roots: Iterable[_Pair]) -> Dict[_Pair, Tuple[bool, str]]:
        """Refine the typing from the unsettled ``roots`` to the greatest fixpoint.

        One worklist serves every root; it is drained before the next root.
        Each pair is matched by :meth:`_decide`, its references read from
        the current typing.  A closed signature reads no typing bit, so its
        pair settles at once.  A pair whose match fails turns false and
        re-queues exactly the pairs that read it.  Statuses only fall, and
        one-step matching is monotone in the reference bits (no operator of
        the language is a complement), so the loop ends at the greatest
        fixpoint; pairs settled before the solve stay fixed.  Every pair of
        the solve then settles.  Returns the failing verdict of each pair
        that fell.
        """
        pending, queue, readers = self._pending, self._queue, self._readers
        signatures, decide, falls = self._signatures, self._decide, {}

        def match(pair: _Pair) -> bool:
            verdict = decide(pair)
            if not signatures[pair[0]][1]:
                (self.confirm if verdict[0] else self.record_failure)(*pair)
            if verdict[0]:
                return True
            falls[pair] = verdict
            queue.extend(readers.pop(pair, ()))
            return False

        try:
            for root in roots:
                if root not in pending:
                    holds = match(root)
                    if signatures[root[0]][1]:
                        pending[root] = holds
                while queue:
                    pair = queue.pop()
                    if pending[pair] and not match(pair):
                        pending[pair] = False
            for (node, label), holds in pending.items():
                (self.confirm if holds else self.record_failure)(node, label)
            return falls
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
