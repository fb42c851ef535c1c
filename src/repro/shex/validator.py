"""Validator façade: the public entry point for RDF validation.

The :class:`Validator` ties together a graph, a schema and one of the
matching engines (derivatives, backtracking or the SPARQL compiler) and
exposes the operations users of the paper's system need:

* ``validate_node(node, label)`` — does one node have one shape?
* ``validate_map({node: label, …})`` — validate a shape map,
* ``infer_typing()`` — the type-inference algorithm of Section 8: compute a
  shape typing assigning to every node the labels it satisfies,
* ``conforming_nodes(label)`` — which nodes have a given shape (Example 2).

Engines are pluggable so the benchmarks can swap implementations while the
surrounding code stays identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..rdf.graph import Graph
from ..rdf.terms import ObjectTerm, SubjectTerm
from .cache import DerivativeCache, SignatureCache
from .compiled import CompiledSchema
from .derivatives import DerivativeEngine
from .expressions import ShapeExpr
from .results import MatchResult, MatchStats, ValidationReportEntry
from .schema import FixpointContext, Schema, SchemaError, ValidationContext
from .typing import ShapeLabel, ShapeTyping

__all__ = ["Validator", "ValidationReport", "RevalidationResult",
           "IncrementalFallback", "get_engine", "ENGINES"]


class IncrementalFallback(Exception):
    """Raised by ``revalidate(allow_full_rebuild=False)`` instead of rebuilding.

    ``reason`` is a stable machine-readable code: ``"journal-overflow"`` (the
    graph's change journal overflowed, so the change set is unknowable) or
    ``"no-baseline"`` (no usable incremental baseline: first run, label-set
    change, ``reference=True``, or a bulk call rebuilt the shared context at
    a graph generation the baseline never saw).  Long-lived services set
    ``allow_full_rebuild=False`` so an unbounded full re-run never hides
    inside what looks like a cheap delta; they map this exception to a typed
    service error (:class:`repro.service.api.ServiceError`).
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def _backtracking_engine(**options):
    """Build the backtracking engine, importing its module on first use."""
    from .backtracking import BacktrackingEngine

    return BacktrackingEngine(**options)


#: registry of engine factories keyed by their public names.
ENGINES = {
    "derivatives": DerivativeEngine,
    "backtracking": _backtracking_engine,
}


def get_engine(engine: Union[str, object, None] = None, **options):
    """Resolve an engine argument into an engine instance.

    ``engine`` may be ``None`` (default: derivatives), the name of a
    registered engine, or an already-built engine object exposing
    ``match_neighbourhood``.
    """
    if engine is None:
        return DerivativeEngine(**options)
    if isinstance(engine, str):
        try:
            factory = ENGINES[engine]
        except KeyError:
            raise ValueError(
                f"unknown engine {engine!r}; available: {sorted(ENGINES)}"
            ) from None
        return factory(**options)
    if hasattr(engine, "match_neighbourhood"):
        return engine
    raise TypeError(f"not a matching engine: {engine!r}")


@dataclass
class ValidationReport:
    """The outcome of validating a shape map or a whole graph.

    ``stats`` records the work of the run that built the report, once.
    """

    entries: List[ValidationReportEntry] = field(default_factory=list)
    stats: MatchStats = field(default_factory=MatchStats)

    @property
    def conforms(self) -> bool:
        """True when every requested (node, shape) pair conforms."""
        return all(entry.conforms for entry in self.entries)

    @property
    def typing(self) -> ShapeTyping:
        """The typing ``τ`` of the conforming entries, built on each access."""
        return ShapeTyping.from_pairs(
            (entry.node, entry.label) for entry in self.entries if entry.conforms)

    def failures(self) -> List[ValidationReportEntry]:
        """Return the entries that did not conform."""
        return [entry for entry in self.entries if not entry.conforms]

    def entry_for(self, node: ObjectTerm,
                  label: Union[ShapeLabel, str, None] = None) -> Optional[ValidationReportEntry]:
        """Return the report entry for ``node`` (and ``label`` if given)."""
        wanted = None
        if label is not None:
            wanted = label if isinstance(label, ShapeLabel) else ShapeLabel(label)
        for entry in self.entries:
            if entry.node == node and (wanted is None or entry.label == wanted):
                return entry
        return None

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "\n".join(str(entry) for entry in self.entries)


@dataclass
class RevalidationResult:
    """The outcome of one :meth:`Validator.revalidate` round.

    ``delta`` holds exactly the recomputed entries; the full updated report
    is :meth:`Validator.maintained_report`, built only when asked.
    ``conforms`` and ``pairs`` summarise the maintained table after the
    round.  ``dirty`` is the journal's per-subject change set, ``affected``
    its reverse-reachability closure along the reference graph,
    ``retracted`` the number of settled verdicts dropped before re-running.
    ``full_rebuild`` is True when incremental reuse was impossible (first
    run, journal overflow, label-set change, or state invalidated behind the
    validator's back) and everything was recomputed.
    """

    delta: ValidationReport
    dirty: FrozenSet[SubjectTerm]
    affected: FrozenSet[ObjectTerm]
    full_rebuild: bool
    conforms: bool
    pairs: int
    retracted: int = 0

    def stats(self) -> Dict[str, int]:
        """Summary counters (journal/closure sizes) for traces and the CLI."""
        return {
            "dirty_subjects": len(self.dirty),
            "affected_nodes": len(self.affected),
            "revalidated_pairs": len(self.delta),
            "reused_pairs": self.pairs - len(self.delta),
            "retracted_verdicts": self.retracted,
            "full_rebuild": int(self.full_rebuild),
        }


class Validator:
    """Validate RDF graphs against Shape Expression schemas.

    ``graph``, ``schema`` and ``engine`` are bound at construction and
    read-only; the compiled schema, the signature cache and the reference
    index are built once for them.  Only mutations of the graph itself
    invalidate derived state, and they are tracked through
    :attr:`Graph.generation`.

    Parameters
    ----------
    graph:
        the data graph to validate.
    schema:
        the Shape Expression schema ``(Λ, δ)``; optional when only
        expression-level matching is needed.
    engine:
        ``"derivatives"`` (default), ``"backtracking"`` or an engine object.
    reference:
        False (default) runs the one production configuration: the bulk
        operations — ``validate_map``, ``validate_graph``, ``infer_typing``,
        ``conforming_nodes``, ``revalidate`` — share **one**
        :class:`~repro.shex.schema.FixpointContext` (kept across runs,
        rebuilt when the graph mutates), and each solves all of its pairs
        in one greatest-fixpoint worklist without recursing; each pair it
        matches goes typed signature →
        :class:`~repro.shex.cache.SignatureCache` → the compiled prefilter →
        the engine, and a named derivatives engine gets a global
        :class:`~repro.shex.cache.DerivativeCache`.  True runs the paper's
        reference semantics instead: a fresh
        :class:`~repro.shex.reference.ReferenceContext` per node, the
        recursive descent under hypotheses bounded by
        :data:`~repro.shex.reference.MAX_RECURSION_DEPTH` hops, and no
        compiled, signature or derivative caches.  Verdicts are identical
        (except past the budget, where the reference answers
        ``limit_exceeded``); only failure *reasons* may differ (the
        prefilter and signature cache word them statically).
    cache_max_entries:
        LRU bound of the production derivative and signature caches
        (default: unbounded).
    compiled:
        a ready :class:`~repro.shex.compiled.CompiledSchema` to adopt instead
        of compiling one (must belong to ``schema``).
    engine_options:
        keyword options forwarded to the engine factory, e.g. the Section 4
        ablations ``simplify=False`` / ``memoize=False`` or
        ``budget=10_000`` for the backtracking engine.
    """

    def __init__(self, graph: Graph, schema: Optional[Schema] = None,
                 engine: Union[str, object, None] = None,
                 reference: bool = False,
                 cache_max_entries: Optional[int] = None,
                 compiled: Optional[CompiledSchema] = None,
                 subject_filter: Optional[Callable[[SubjectTerm], bool]] = None,
                 **engine_options):
        if "cache" in engine_options:
            raise TypeError("the Validator owns the derivative cache; bound it "
                            "with cache_max_entries")
        if reference and (compiled is not None or cache_max_entries is not None):
            raise ValueError("reference=True runs without a compiled schema "
                             "or a derivative cache")
        if compiled is not None and compiled.schema is not schema:
            raise ValueError("compiled belongs to another schema")
        self._graph = graph
        self._schema = schema
        self.reference = reference
        self.cache_max_entries = cache_max_entries
        self._worker_engine_spec = _make_engine_spec(engine, engine_options)
        if not reference and engine in (None, "derivatives"):
            engine_options["cache"] = DerivativeCache(max_entries=cache_max_entries)
        self._engine = get_engine(engine, **engine_options)
        #: restricts which subjects appear in bulk reports and the maintained
        #: baseline.  A resident shard worker validates (and maintains) only
        #: the subjects it owns; reference targets outside the filter are
        #: still derived on demand from the full local graph — the filter
        #: governs report coverage, not reachability.
        self.subject_filter = subject_filter
        self._compiled: Optional[CompiledSchema] = None
        self._signature_cache: Optional[SignatureCache] = None
        if not reference and schema is not None:
            self._compiled = compiled if compiled is not None \
                else CompiledSchema(schema)
            self._signature_cache = SignatureCache(max_entries=cache_max_entries)
        #: the persistent shared context and the graph generation it
        #: describes; a graph mutation makes it stale.
        self._context: Optional[FixpointContext] = None
        self._context_generation: Optional[int] = None
        #: the run state: the labels, per-pair entries and graph generation
        #: of the maintained baseline.  The entry table is the only record
        #: of the run's verdicts; reports and typings are views of it.
        #: ``revalidate`` consumes the graph's change journal against this
        #: generation (production only; the reference always rebuilds).
        self._incremental_labels: Optional[Tuple[ShapeLabel, ...]] = None
        self._incremental_entries: Optional[
            Dict[Tuple[ObjectTerm, ShapeLabel], ValidationReportEntry]] = None
        self._incremental_generation: Optional[int] = None
        #: the schema's reference analysis, built on the first revalidation.
        self._reference_index: Optional[object] = None

    # -- inputs ----------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The validated graph (bound at construction)."""
        return self._graph

    @property
    def schema(self) -> Optional[Schema]:
        """The schema (bound at construction)."""
        return self._schema

    @property
    def engine(self):
        """The matching engine (bound at construction)."""
        return self._engine

    @property
    def compiled(self) -> Optional[CompiledSchema]:
        """The compiled tables of the schema (None for the reference).

        Built once at construction (or adopted from the ``compiled``
        argument).
        """
        return self._compiled

    @property
    def signature_cache(self) -> Optional[SignatureCache]:
        """The validator-owned signature cache (None for the reference).

        Bounded by ``cache_max_entries``.  Graph mutations need no
        invalidation because typed signatures embed the neighbourhood
        structure and the typing bits they describe.
        """
        return self._signature_cache

    def store_stats(self) -> Dict[str, object]:
        """Storage-layer counters of the validated graph.

        A passthrough to :meth:`Graph.store_stats`, so callers holding
        only the validator (services, the CLI) can report the triple and
        cached-neighbourhood counts without reaching into the graph.
        """
        return self.graph.store_stats()

    # -- contexts ---------------------------------------------------------------
    def _new_context(self) -> ValidationContext:
        if self.schema is None:
            raise SchemaError("shape references need a schema-aware validation context")
        matcher = self.engine.match_neighbourhood
        if self.reference:
            from .reference import ReferenceContext

            return ReferenceContext(self.graph, self.schema, matcher)
        return FixpointContext(self.graph, self.compiled, matcher, self.signature_cache)

    def _bulk_context(self) -> Optional[FixpointContext]:
        """The persistent shared context (None for the reference).

        Rebuilt when the graph mutated since it was built (tracked through
        :attr:`Graph.generation`); the other inputs cannot change.
        """
        if self.reference:
            return None
        generation = self.graph.generation
        if self._context is None or self._context_generation != generation:
            self._context = self._new_context()
            self._context_generation = generation
        return self._context

    # -- expression-level API -----------------------------------------------------
    def node_matches_expression(self, node: SubjectTerm, expr: ShapeExpr) -> MatchResult:
        """Match the neighbourhood of ``node`` against a bare expression."""
        context = self._new_context() if self.schema is not None else None
        neighbourhood = self.graph.neighbourhood(node)
        return self.engine.match_neighbourhood(expr, neighbourhood, context)

    # -- schema-level API ----------------------------------------------------------
    def validate_node(self, node: SubjectTerm,
                      label: Union[ShapeLabel, str, None] = None
                      ) -> ValidationReportEntry:
        """Validate one node against one shape label (default: the start shape).

        The single-pair API: the pair is solved in a fresh context, so the
        answer never depends on what earlier calls settled.
        """
        pair = (node, self._resolve_label(label))
        context = None if self.reference else self._new_context()
        return self._validate_pairs([pair], context).entries[0]

    def validate_map(self, shape_map: Mapping[SubjectTerm, Union[ShapeLabel, str]]
                     ) -> ValidationReport:
        """Validate every ``node → label`` association of a shape map."""
        return self._validate_pairs([(node, self._resolve_label(label))
                                     for node, label in shape_map.items()])

    def infer_typing(self, nodes: Optional[Iterable[SubjectTerm]] = None,
                     labels: Optional[Iterable[Union[ShapeLabel, str]]] = None
                     ) -> ShapeTyping:
        """Compute a shape typing for the graph (Section 8).

        Tries every combination of the given nodes (default: every subject
        node of the graph) and labels (default: every label of the schema)
        and returns the typing containing the associations that validate.
        Outside the reference, all combinations are solved together.
        """
        if self.schema is None:
            raise SchemaError("infer_typing requires a schema")
        node_list = list(nodes) if nodes is not None else sorted(
            self.graph.nodes(), key=lambda term: term.sort_key()
        )
        label_list = [self._resolve_label(label) for label in labels] if labels \
            else list(self.schema.labels())
        return self._validate_pairs(_product(node_list, label_list)).typing

    def conforming_nodes(self, label: Union[ShapeLabel, str, None] = None
                         ) -> List[SubjectTerm]:
        """Return the subject nodes that conform to ``label`` (Example 2)."""
        label = self._resolve_label(label)
        nodes = sorted(self.graph.nodes(), key=lambda term: term.sort_key())
        return [entry.node for entry in self._validate_pairs(
            _product(nodes, [label])) if entry.conforms]

    def validate_graph(self, labels: Optional[Sequence[Union[ShapeLabel, str]]] = None
                       ) -> ValidationReport:
        """Validate every subject node against every (or the given) labels.

        Runs the serial bulk path unless :meth:`_schedule` hands the run to
        another scheduler (the resident shard fleet of
        :class:`repro.service.sharding.ShardedValidator`); verdicts are
        identical either way.  The run becomes the maintained baseline.
        """
        if self.schema is None:
            raise SchemaError("validate_graph requires a schema")
        label_list = [self._resolve_label(label) for label in labels] if labels \
            else list(self.schema.labels())
        scheduled = self._schedule(label_list)
        report = scheduled if scheduled is not None else self._validate_pairs(
            _product(self._owned_subjects(), label_list))
        self._incremental_labels = tuple(label_list)
        self._incremental_entries = {(entry.node, entry.label): entry
                                     for entry in report.entries}
        self._incremental_generation = self.graph.generation
        if scheduled is not None:
            # a scheduler's entries come in its own order
            report = ValidationReport(self.maintained_report().entries,
                                      scheduled.stats)
        return report

    def _schedule(self, label_list: Sequence[ShapeLabel],
                  restrict: Optional[FrozenSet[ObjectTerm]] = None,
                  ) -> Optional[ValidationReport]:
        """The scheduling seam: hand a run to another scheduler, or not.

        Returns the report of a run the scheduler answered — an entry for
        every subject × label on a full run, for every affected subject ×
        label when ``restrict`` (incremental revalidation's affected
        closure) is given, in any order, and the run's stats — with the
        scheduler's settled verdicts already merged into the shared
        context.  ``None`` means "run serially", which is all the
        base class ever answers.
        """
        return None

    def _validate_pairs(self, pairs: Sequence[Tuple[ObjectTerm, ShapeLabel]],
                        context: Optional[FixpointContext] = None,
                        ) -> ValidationReport:
        """Validate ``(node, label)`` pairs: the one path of every run.

        In production the pairs go to one context (default: the shared
        one) in one call: :meth:`FixpointContext.verdicts` demands the
        unsettled pairs into one worklist, solves the greatest fixpoint
        once, and reads every verdict from the settled stores.  The context
        starts a fresh stats record for the call, which becomes the
        report's.  The reference gives every pair a fresh
        :class:`~repro.shex.reference.ReferenceContext` and merges their
        stats into the report's.
        """
        if self.reference:
            stats, entries = MatchStats(), []
            for node, label in pairs:
                fresh = self._new_context()
                result = fresh.check_reference(node, label)
                stats.merge(fresh.stats)
                entries.append(ValidationReportEntry(
                    node, label, result.matched, result.reason,
                    result.limit_exceeded))
            return ValidationReport(entries, stats)
        if context is None:
            context = self._bulk_context()
        stats = context.stats = MatchStats()
        return ValidationReport([
            ValidationReportEntry(node, label, conforms, reason)
            for (node, label), (conforms, reason)
            in zip(pairs, context.verdicts(pairs))], stats)

    def _owns(self, node: SubjectTerm) -> bool:
        """Whether bulk reports cover ``node`` (True without a filter)."""
        return self.subject_filter is None or self.subject_filter(node)

    def _owned_subjects(self) -> List[SubjectTerm]:
        """The subjects bulk reports cover, in canonical (``sort_key``) order."""
        return sorted((node for node in self.graph.nodes() if self._owns(node)),
                      key=lambda term: term.sort_key())

    # -- session hooks --------------------------------------------------------------
    @property
    def maintained_generation(self) -> Optional[int]:
        """Graph generation of the maintained baseline (None before a run).

        The service layer stamps this into every response so clients can
        invalidate their local verdict caches when the graph moves.
        """
        return self._incremental_generation

    def maintained_entry(self, node: ObjectTerm,
                         label: Union[ShapeLabel, str, None] = None
                         ) -> Optional[ValidationReportEntry]:
        """Serve a ``(node, label)`` verdict from the maintained baseline.

        This is the warm read path of validation-as-a-service: the entry
        comes straight from the delta-updated table the last
        ``validate_graph`` / ``revalidate`` round left behind — no engine, no
        context, no fresh run.  Returns ``None`` when no baseline exists or
        the pair is not part of it (unknown subject, label outside the
        baseline's label set).  Callers are responsible for checking
        :attr:`maintained_generation` against the graph's generation; the
        entry describes the graph *as of the baseline*.
        """
        if self._incremental_entries is None:
            return None
        return self._incremental_entries.get((node, self._resolve_label(label)))

    def maintained_report(self) -> Optional[ValidationReport]:
        """Build the full report of the maintained baseline, on demand.

        The report lists exactly the baseline's entry table, in canonical
        order (subjects by ``sort_key``, then the baseline's labels), as a
        fresh ``validate_graph`` lists them.  Like :meth:`maintained_entry`
        it describes the graph *as of the baseline*, whatever has happened
        to the graph since.  Returns ``None`` before a baseline exists.
        """
        table = self._incremental_entries
        if table is None:
            return None
        nodes = sorted({node for node, _ in table}, key=lambda term: term.sort_key())
        return ValidationReport(entries=[
            table[(node, label)]
            for node in nodes for label in self._incremental_labels])

    # -- incremental revalidation --------------------------------------------------
    def revalidate(self, labels: Optional[Sequence[Union[ShapeLabel, str]]] = None,
                   allow_full_rebuild: bool = True) -> RevalidationResult:
        """Revalidate only what the graph's mutations can have changed.

        Consumes the graph's change journal against the maintained
        baseline: the dirty subjects are closed under reverse
        reference-reachability (:func:`repro.shex.partition.affected_nodes`),
        the shared context drops exactly those nodes' settled verdicts
        (:meth:`FixpointContext.retract_nodes`), and only the affected
        subjects are re-run — re-solved against the retained verdicts, which
        the fixpoint reads as fixed — through the serial bulk loop unless
        :meth:`_schedule` takes the restricted round.  The affected pairs of
        the entry table are replaced; every other entry is reused as-is.
        No work here grows with the whole graph except the ``conforms``
        scan of the table; the full report is :meth:`maintained_report`.

        Falls back to a full ``validate_graph`` — flagged via
        ``full_rebuild`` — when no baseline exists, the label set changed,
        the journal overflowed, the validator is the reference, or the shared
        context was rebuilt behind the baseline's back.  Verdicts are
        identical to a fresh full run either way.  With
        ``allow_full_rebuild=False`` the fallback raises
        :class:`IncrementalFallback` instead, so services can refuse (or
        surface) the unbounded re-run.
        """
        if self.schema is None:
            raise SchemaError("revalidate requires a schema")
        label_list = tuple(
            self._resolve_label(label) for label in labels
        ) if labels else tuple(self.schema.labels())

        def full_rebuild(reason: str, message: str) -> RevalidationResult:
            if not allow_full_rebuild:
                raise IncrementalFallback(reason, message)
            report = self.validate_graph(labels=label_list)
            return self._result(
                report, frozenset(),
                frozenset(entry.node for entry in report.entries), True)

        if not self._incremental_baseline_valid(label_list):
            return full_rebuild(
                "no-baseline",
                "no usable incremental baseline (first run, label-set change "
                "or invalidated shared context); a full run is required")
        dirty = self.graph.changes_since(self._incremental_generation)
        if dirty is None:
            # journal overflow (or truncation): the change set is unknowable.
            return full_rebuild(
                "journal-overflow",
                "the graph's change journal overflowed since the baseline; "
                "the change set is unknowable and a full run is required")
        if not dirty:
            return self._result(ValidationReport(), dirty, frozenset(), False)

        from .partition import ReferenceIndex, affected_nodes

        if self._reference_index is None:
            self._reference_index = ReferenceIndex(self.schema)
        affected = affected_nodes(self.graph, self.schema, dirty,
                                  index=self._reference_index)
        retracted = self._context.retract_nodes(affected)
        # the retained context is now consistent with the mutated graph:
        # re-stamp it so the bulk machinery below (and later calls) reuse it
        # instead of rebuilding from scratch.
        self._context_generation = self.graph.generation

        # an affected node with no out-arcs is not (or no longer) a subject
        graph = self.graph
        affected_subjects = sorted(
            (node for node in affected
             if graph.degree(node) and self._owns(node)),
            key=lambda term: term.sort_key(),
        )
        rerun = ValidationReport()
        if affected_subjects:
            try:
                scheduled = self._schedule(label_list, affected)
                rerun = scheduled if scheduled is not None else \
                    self._validate_pairs(_product(affected_subjects, label_list))
            except IncrementalFallback as error:
                # a scheduler (e.g. the resident shard fleet) declared the
                # restricted run unanswerable; honour the caller's rebuild
                # policy exactly like a coordinator-detected fallback.
                return full_rebuild(error.reason, str(error))
            except Exception:
                # the re-run died mid-round (a fleet worker crash, or a
                # match past the derivative budget): no baseline state has
                # moved yet, but the context was already re-stamped to the
                # mutated generation.  Stamp it back to the baseline
                # generation so the retained baseline stays usable and a
                # retried round can still answer incrementally (the
                # retraction above is idempotent — the retry recomputes the
                # same affected set and retracts the same nodes — and an
                # aborted solve settles only final verdicts).
                self._context_generation = self._incremental_generation
                raise
        new_entries = {(entry.node, entry.label): entry for entry in rerun}

        # delta-update the baseline table: drop every affected pair (this
        # covers subjects that no longer exist), then insert the re-runs.
        table = self._incremental_entries
        for node in affected:
            for label in label_list:
                table.pop((node, label), None)
        delta_entries: List[ValidationReportEntry] = []
        for node in affected_subjects:
            for label in label_list:
                entry = new_entries[(node, label)]
                table[(node, label)] = entry
                delta_entries.append(entry)
        self._incremental_generation = graph.generation
        return self._result(ValidationReport(delta_entries, rerun.stats), dirty,
                            affected, False, retracted)

    def _result(self, delta: ValidationReport, dirty: FrozenSet[SubjectTerm],
                affected: FrozenSet[ObjectTerm], full_rebuild: bool,
                retracted: int = 0) -> RevalidationResult:
        """Summarise a round against the maintained entry table."""
        table = self._incremental_entries
        return RevalidationResult(
            delta=delta, dirty=dirty, affected=affected,
            full_rebuild=full_rebuild,
            conforms=all(entry.conforms for entry in table.values()),
            pairs=len(table), retracted=retracted)

    def _incremental_baseline_valid(self, label_list: Tuple[ShapeLabel, ...]) -> bool:
        """True when the maintained baseline is still incrementally usable.

        Beyond a baseline existing for the same label set, the retained
        shared context must still be the one that produced it: its
        generation must equal the baseline generation (if anything rebuilt
        the context since — a ``validate_node`` after an unseen mutation,
        say — its verdicts no longer pair with the baseline's entries).
        """
        return (self._incremental_entries is not None
                and self._incremental_labels == label_list
                and self._context is not None
                and self._context_generation == self._incremental_generation)

    # -- helpers -----------------------------------------------------------------
    def _resolve_label(self, label: Union[ShapeLabel, str, None]) -> ShapeLabel:
        if label is None:
            if self.schema is None or self.schema.start is None:
                raise SchemaError("no shape label given and the schema has no start shape")
            return self.schema.start
        if isinstance(label, ShapeLabel):
            return label
        return ShapeLabel(label)


def _product(nodes: Iterable[ObjectTerm], labels: Sequence[ShapeLabel]
             ) -> List[Tuple[ObjectTerm, ShapeLabel]]:
    """``nodes × labels`` in node-major order, the order of every bulk report."""
    return [(node, label) for node in nodes for label in labels]


# -- the worker engine recipe -------------------------------------------------------
def _make_engine_spec(engine: Union[str, object, None],
                      engine_options: Mapping[str, object]) -> Optional[tuple]:
    """Build the picklable ``(name, options)`` worker recipe.

    Worker processes rebuild their validator — and with it a private
    derivative cache — from this spec instead of receiving the parent's
    engine object.  Engine *objects* passed to the validator cannot be
    shipped; the spec is ``None`` then and sharded validation refuses to run.
    """
    if engine is not None and not isinstance(engine, str):
        return None
    return (engine or "derivatives", dict(engine_options))
