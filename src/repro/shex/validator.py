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
from time import perf_counter
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
from .backtracking import BacktrackingEngine
from .cache import DerivativeCache, SignatureCache
from .compiled import CompiledSchema
from .derivatives import DerivativeEngine
from .expressions import ShapeExpr
from .results import MatchResult, MatchStats, ValidationReportEntry
from .schema import Schema, SchemaError, ValidationContext
from .typing import ShapeLabel, ShapeTyping

__all__ = ["Validator", "ValidationReport", "RevalidationResult",
           "IncrementalFallback", "get_engine", "ENGINES"]


class IncrementalFallback(Exception):
    """Raised by ``revalidate(allow_full_rebuild=False)`` instead of rebuilding.

    ``reason`` is a stable machine-readable code: ``"journal-overflow"`` (the
    graph's change journal overflowed, so the change set is unknowable) or
    ``"no-baseline"`` (no usable incremental baseline: first run, label-set
    change, ``reference=True``, or the shared context was invalidated
    behind the baseline's back).  Long-lived services set
    ``allow_full_rebuild=False`` so an unbounded full re-run never hides
    inside what looks like a cheap delta; they map this exception to a typed
    service error (:class:`repro.service.api.ServiceError`).
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


#: registry of engine factories keyed by their public names.
ENGINES = {
    "derivatives": DerivativeEngine,
    "backtracking": BacktrackingEngine,
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
    """The outcome of validating a shape map or a whole graph."""

    entries: List[ValidationReportEntry] = field(default_factory=list)
    typing: ShapeTyping = field(default_factory=ShapeTyping.empty)

    @property
    def conforms(self) -> bool:
        """True when every requested (node, shape) pair conforms."""
        return all(entry.conforms for entry in self.entries)

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

    def total_stats(self) -> MatchStats:
        """Aggregate the per-entry statistics into one record."""
        total = MatchStats()
        for entry in self.entries:
            total.merge(entry.stats)
        return total


@dataclass
class RevalidationResult:
    """The outcome of one :meth:`Validator.revalidate` round.

    ``report`` is the full, delta-updated report (entry objects for
    unaffected pairs are reused from the previous round); ``delta`` holds
    exactly the recomputed entries.  ``dirty`` is the journal's per-subject
    change set, ``affected`` its reverse-reachability closure along the
    reference graph, ``retracted`` the number of settled verdicts dropped
    before re-running.  ``full_rebuild`` is True when incremental reuse was
    impossible (first run, journal overflow, label-set change, or state
    invalidated behind the validator's back) and everything was recomputed.
    """

    report: ValidationReport
    delta: ValidationReport
    dirty: FrozenSet[SubjectTerm]
    affected: FrozenSet[ObjectTerm]
    full_rebuild: bool
    retracted: int = 0

    @property
    def conforms(self) -> bool:
        """True when every pair of the full updated report conforms."""
        return self.report.conforms

    def stats(self) -> Dict[str, int]:
        """Summary counters (journal/closure sizes) for traces and the CLI."""
        return {
            "dirty_subjects": len(self.dirty),
            "affected_nodes": len(self.affected),
            "revalidated_pairs": len(self.delta),
            "reused_pairs": len(self.report) - len(self.delta),
            "retracted_verdicts": self.retracted,
            "full_rebuild": int(self.full_rebuild),
        }


class Validator:
    """Validate RDF graphs against Shape Expression schemas.

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
        ``conforming_nodes`` — thread **one** :class:`ValidationContext`
        through the whole run (and keep it across runs, rebuilding it when
        the graph mutates), a :class:`~repro.shex.compiled.CompiledSchema`
        settles statically decidable pairs and indexes arc atoms, a
        :class:`~repro.shex.cache.SignatureCache` answers subjects whose
        neighbourhood signature was already settled, and a named
        derivatives engine gets a global
        :class:`~repro.shex.cache.DerivativeCache`.  True runs the paper's
        reference semantics instead: a fresh context per node and no
        compiled, signature or derivative caches.  Verdicts are identical;
        only failure *reasons* may differ (the prefilter and signature
        cache word them statically).
    max_recursion_depth:
        recursion budget handed to every context this validator creates.
    cache_max_entries:
        LRU bound of the production derivative cache (default: unbounded).
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
                 max_recursion_depth: int = 500,
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
        self.graph = graph
        self.schema = schema
        self.reference = reference
        self.cache_max_entries = cache_max_entries
        self._worker_engine_spec = _make_engine_spec(engine, engine_options)
        if not reference and engine in (None, "derivatives"):
            engine_options["cache"] = DerivativeCache(max_entries=cache_max_entries)
        self.engine = get_engine(engine, **engine_options)
        self.max_recursion_depth = max_recursion_depth
        #: restricts which subjects appear in bulk reports and the maintained
        #: baseline.  A resident shard worker validates (and maintains) only
        #: the subjects it owns; reference targets outside the filter are
        #: still derived on demand from the full local graph — the filter
        #: governs report coverage, not reachability.
        self.subject_filter = subject_filter
        self._compiled = compiled
        self._atoms_adopted = False
        #: neighbourhood-signature verdict dedupe, rebuilt on schema change.
        self._signature_cache: Optional[SignatureCache] = None
        self._signature_cache_schema: Optional[Schema] = None
        self._context: Optional[ValidationContext] = None
        self._context_key: Optional[tuple] = None
        #: incremental-revalidation baseline: the labels, per-pair entries and
        #: graph generation of the last full ``validate_graph`` run.
        #: ``revalidate`` consumes the graph's change journal against this
        #: generation (production only; the reference always rebuilds).
        self._incremental_labels: Optional[Tuple[ShapeLabel, ...]] = None
        self._incremental_entries: Optional[
            Dict[Tuple[ObjectTerm, ShapeLabel], ValidationReportEntry]] = None
        self._incremental_typing: Optional[ShapeTyping] = None
        self._incremental_generation: Optional[int] = None
        #: schema-level reference analysis, cached per schema object so the
        #: watch-style revalidate loop never re-walks the shape expressions.
        self._reference_index: Optional[object] = None
        self._reference_index_schema: Optional[Schema] = None

    # -- schema compilation -------------------------------------------------------
    @property
    def compiled(self) -> Optional[CompiledSchema]:
        """The compiled tables for the current schema (None for the reference).

        Compiled lazily, once per schema object: reassigning ``schema``
        triggers a recompile on the next use.  The engine's global derivative
        cache (when present) adopts the compiled atom tables so the per-label
        atom walk is never repeated.
        """
        if self.reference or self.schema is None:
            return None
        if self._compiled is None or self._compiled.schema is not self.schema:
            self._compiled = CompiledSchema(self.schema)
            self._atoms_adopted = False
        if not self._atoms_adopted:
            # seed the engine's derivative cache whether the compiled schema
            # was built here or handed in ready-made
            cache = getattr(self.engine, "cache", None)
            if cache is not None:
                cache.adopt_atoms(self._compiled.atom_tables())
            self._atoms_adopted = True
        return self._compiled

    @property
    def signature_cache(self) -> Optional[SignatureCache]:
        """The validator-owned signature cache (None for the reference).

        One cache per schema object: reassigning ``schema`` starts from an
        empty table (signatures are keyed by the compiled schema's atom order
        and must not cross schemas).  Graph mutations need no invalidation
        because signatures embed the neighbourhood structure they describe.
        """
        if self.reference or self.schema is None:
            return None
        if self._signature_cache is None \
                or self._signature_cache_schema is not self.schema:
            self._signature_cache = SignatureCache()
            self._signature_cache_schema = self.schema
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
        index = self._schema_reference_index() if self.schema is not None else None
        context = ValidationContext(self.graph, self.schema,
                                    self.engine.match_neighbourhood,
                                    max_recursion_depth=self.max_recursion_depth,
                                    compiled=self.compiled,
                                    reference_index=index)
        context.signature_cache = self.signature_cache
        return context

    def _bulk_context(self) -> Optional[ValidationContext]:
        """The persistent shared context (None for the reference).

        The context is rebuilt automatically when anything it was derived
        from changed: graph mutations (tracked through
        :attr:`Graph.generation`) or reassignment of ``graph``, ``schema``,
        ``engine`` or ``max_recursion_depth``.
        """
        if self.reference:
            return None
        # objects are compared by identity (and kept referenced so their ids
        # cannot be recycled); the generation captures in-place graph edits.
        sources = (self.graph, self.schema, self.engine, self.compiled,
                   self.max_recursion_depth,
                   getattr(self.graph, "generation", None))
        stale = (self._context is None or self._context_key is None
                 or any(new is not old
                        for new, old in zip(sources[:4], self._context_key[:4]))
                 or sources[4:] != self._context_key[4:])
        if stale:
            self._context = self._new_context()
            self._context_key = sources
        return self._context

    def reset_context(self) -> None:
        """Drop the persistent shared context explicitly.

        Graph mutations and graph/schema/engine reassignment are detected
        automatically; this is only needed when state the matcher consults
        changed *behind* one of those objects (e.g. an engine option was
        flipped in place).
        """
        self._context = None
        self._context_key = None
        self._incremental_labels = None
        self._incremental_entries = None
        self._incremental_typing = None
        self._incremental_generation = None

    # -- expression-level API -----------------------------------------------------
    def node_matches_expression(self, node: SubjectTerm, expr: ShapeExpr) -> MatchResult:
        """Match the neighbourhood of ``node`` against a bare expression."""
        context = self._new_context() if self.schema is not None else None
        neighbourhood = self.graph.neighbourhood(node)
        return self.engine.match_neighbourhood(expr, neighbourhood, context)

    # -- schema-level API ----------------------------------------------------------
    def validate_node(self, node: SubjectTerm,
                      label: Union[ShapeLabel, str, None] = None,
                      context: Optional[ValidationContext] = None
                      ) -> ValidationReportEntry:
        """Validate one node against one shape label (default: the start shape).

        A fresh context is used unless ``context`` is given (the bulk
        operations pass their shared context here).  The entry's stats are an
        independent snapshot of the work done *for this entry* — never an
        alias of the (possibly shared) context record.
        """
        label = self._resolve_label(label)
        if context is None:
            context = self._new_context()
        before = context.stats.copy()
        result = context.check_reference(node, label)
        entry_stats = context.stats.delta_since(before).merge(result.stats)
        return ValidationReportEntry(
            node=node, label=label, conforms=result.matched,
            reason=result.reason, stats=entry_stats,
            limit_exceeded=result.limit_exceeded,
        )

    def validate_map(self, shape_map: Mapping[SubjectTerm, Union[ShapeLabel, str]]
                     ) -> ValidationReport:
        """Validate every ``node → label`` association of a shape map."""
        context = self._bulk_context()
        report = ValidationReport()
        conforming: List[Tuple[ObjectTerm, ShapeLabel]] = []
        for node, label in shape_map.items():
            entry = self.validate_node(node, label, context=context)
            report.entries.append(entry)
            if entry.conforms:
                conforming.append((node, self._resolve_label(label)))
        report.typing = ShapeTyping.from_pairs(conforming)
        return report

    def infer_typing(self, nodes: Optional[Iterable[SubjectTerm]] = None,
                     labels: Optional[Iterable[Union[ShapeLabel, str]]] = None
                     ) -> ShapeTyping:
        """Compute a shape typing for the graph (Section 8).

        Tries every combination of the given nodes (default: every subject
        node of the graph) and labels (default: every label of the schema)
        and returns the typing containing the associations that validate.
        Outside the reference, verdicts established while checking one
        combination are reused by every later one.
        """
        if self.schema is None:
            raise SchemaError("infer_typing requires a schema")
        node_list = list(nodes) if nodes is not None else sorted(
            self.graph.nodes(), key=lambda term: term.sort_key()
        )
        label_list = [self._resolve_label(label) for label in labels] if labels \
            else list(self.schema.labels())
        context = self._bulk_context()
        return ShapeTyping.from_pairs(
            (node, label)
            for node in node_list
            for label in label_list
            if self.validate_node(node, label, context=context).conforms
        )

    def conforming_nodes(self, label: Union[ShapeLabel, str, None] = None
                         ) -> List[SubjectTerm]:
        """Return the subject nodes that conform to ``label`` (Example 2)."""
        label = self._resolve_label(label)
        context = self._bulk_context()
        nodes = sorted(self.graph.nodes(), key=lambda term: term.sort_key())
        return [node for node in nodes
                if self.validate_node(node, label, context=context).conforms]

    def validate_graph(self, labels: Optional[Sequence[Union[ShapeLabel, str]]] = None
                       ) -> ValidationReport:
        """Validate every subject node against every (or the given) labels.

        Runs the serial bulk path unless :meth:`_schedule` hands the run to
        another scheduler (the resident shard fleet of
        :class:`repro.service.sharding.ShardedValidator`); verdicts are
        identical either way.
        """
        if self.schema is None:
            raise SchemaError("validate_graph requires a schema")
        label_list = [self._resolve_label(label) for label in labels] if labels \
            else list(self.schema.labels())
        entries = self._schedule(label_list)
        if entries is None:
            report = self._validate_graph_serial(label_list)
        else:
            report = self._assemble_report(label_list, entries)
        self._record_incremental_baseline(label_list, report)
        return report

    def _schedule(self, label_list: Sequence[ShapeLabel],
                  restrict: Optional[FrozenSet[ObjectTerm]] = None,
                  ) -> Optional[Dict[Tuple[ObjectTerm, ShapeLabel],
                                     ValidationReportEntry]]:
        """The scheduling seam: hand a run to another scheduler, or not.

        Returns the per-pair entries of a run the scheduler answered — every
        subject × label on a full run, every affected subject × label when
        ``restrict`` (incremental revalidation's affected closure) is given
        — with the scheduler's settled verdicts already merged into the
        shared context.  ``None`` means "run serially", which is all the
        base class ever answers.
        """
        return None

    def _record_incremental_baseline(self, label_list: Sequence[ShapeLabel],
                                     report: ValidationReport) -> None:
        """Remember a full run so ``revalidate`` can delta-update it.

        The reference records it too, so :meth:`maintained_entry` serves its
        verdicts; its ``revalidate`` still always rebuilds.
        """
        self._incremental_labels = tuple(label_list)
        self._incremental_entries = {
            (entry.node, entry.label): entry for entry in report.entries
        }
        self._incremental_typing = report.typing
        self._incremental_generation = getattr(self.graph, "generation", None)

    def _validate_pairs_serial(self, context: Optional[ValidationContext],
                               label_list: Sequence[ShapeLabel],
                               subjects: Sequence[SubjectTerm],
                               ) -> List[ValidationReportEntry]:
        """Validate ``subjects × label_list`` in order, signature first.

        Each ``(node, label)`` pair is probed against the signature cache
        first — the cached verdict is a pure function of the canonical
        neighbourhood signature for *any* label, so a repeated structure is
        answered in one dictionary hit before any prefilter scan or matching
        frame is constructed.  The labels the cache cannot answer go to the
        compiled-schema prefilter, whose decisions are themselves recorded
        under the signature (they are signature-pure too); only the
        remainder goes through :meth:`validate_node` and the engine — whose
        settled verdict is stored back for every later lookalike subject.
        """
        use_prefilter = context is not None and context.compiled is not None
        cache = context.signature_cache if context is not None else None
        entries: List[ValidationReportEntry] = []
        for node in subjects:
            answered: Dict[ShapeLabel, ValidationReportEntry] = {}
            if cache is not None:
                for label in label_list:
                    hit = _signature_probe(context, cache, node, label)
                    if hit is not None:
                        answered[label] = hit
            pending = [label for label in label_list
                       if label not in answered] if answered else label_list
            decisions = (context.prefilter_node(node, pending)
                         if pending and use_prefilter else None)
            for label in label_list:
                entry = answered.get(label)
                if entry is None:
                    decision = decisions.get(label) if decisions else None
                    if decision is not None:
                        entry = _decided_entry(node, label, decision)
                        if cache is not None:
                            _prefilter_signature_store(context, cache, node,
                                                       label, decision)
                    else:
                        entry = self.validate_node(node, label, context=context)
                        if cache is not None:
                            _signature_store(context, cache, node, label, entry)
                entries.append(entry)
        return entries

    def _owns(self, node: SubjectTerm) -> bool:
        """Whether bulk reports cover ``node`` (True without a filter)."""
        return self.subject_filter is None or self.subject_filter(node)

    def _validate_graph_serial(self, label_list: Sequence[ShapeLabel]) -> ValidationReport:
        """The single-process bulk path: one shared context, sorted node order."""
        context = self._bulk_context()
        subjects = sorted((node for node in self.graph.nodes()
                           if self._owns(node)),
                          key=lambda term: term.sort_key())
        report = ValidationReport(
            entries=self._validate_pairs_serial(context, label_list, subjects))
        report.typing = ShapeTyping.from_pairs(
            (entry.node, entry.label) for entry in report.entries if entry.conforms
        )
        return report

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

    # -- incremental revalidation --------------------------------------------------
    def revalidate(self, labels: Optional[Sequence[Union[ShapeLabel, str]]] = None,
                   allow_full_rebuild: bool = True) -> RevalidationResult:
        """Revalidate only what the graph's mutations can have changed.

        Consumes the graph's change journal against the last full
        ``validate_graph`` baseline: the dirty subjects are closed under
        reverse reference-reachability (:func:`repro.shex.partition.affected_nodes`),
        the shared context drops exactly those nodes' settled verdicts
        (:meth:`ValidationContext.retract_nodes`), and only the affected
        subjects are re-run — through the serial bulk loop unless
        :meth:`_schedule` takes the restricted round.  Everything else
        (verdicts, typing entries, report entries) is reused as-is.

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
            return RevalidationResult(
                report=report, delta=report, dirty=frozenset(),
                affected=frozenset(entry.node for entry in report.entries),
                full_rebuild=True,
            )

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
        table = self._incremental_entries
        if not dirty:
            report = self._assemble_report(label_list, table,
                                           self._incremental_typing)
            return RevalidationResult(
                report=report, delta=ValidationReport(), dirty=dirty,
                affected=frozenset(), full_rebuild=False,
            )

        from .partition import affected_nodes

        affected = affected_nodes(self.graph, self.schema, dirty,
                                  index=self._schema_reference_index(),
                                  compiled=self.compiled)
        context = self._context
        retracted = context.retract_nodes(affected)
        # the retained context is now consistent with the mutated graph:
        # re-key it so the bulk machinery below (and later calls) reuse it
        # instead of rebuilding from scratch.
        self._context_key = (self.graph, self.schema, self.engine,
                             self.compiled, self.max_recursion_depth,
                             self.graph.generation)

        subject_set = set(self.graph.nodes())
        affected_subjects = sorted(
            (node for node in affected
             if node in subject_set and self._owns(node)),
            key=lambda term: term.sort_key(),
        )
        new_entries: Dict[Tuple[ObjectTerm, ShapeLabel], ValidationReportEntry] = {}
        scheduled = None
        if affected_subjects:
            try:
                scheduled = self._schedule(label_list, affected)
            except IncrementalFallback as error:
                # a scheduler (e.g. the resident shard fleet) declared the
                # restricted run unanswerable; honour the caller's rebuild
                # policy exactly like a coordinator-detected fallback.
                return full_rebuild(error.reason, str(error))
            except Exception:
                # the scheduler died mid-round (a fleet worker crash, say):
                # no baseline state has moved yet, but the context key was
                # already advanced to the mutated generation.  Restore it to
                # the baseline generation so the retained baseline stays
                # usable and a retried round can still answer incrementally
                # (the retraction above is idempotent — the retry recomputes
                # the same affected set and retracts the same nodes).
                self._context_key = (self.graph, self.schema, self.engine,
                                     self.compiled,
                                     self.max_recursion_depth,
                                     self._incremental_generation)
                raise
        if scheduled is not None:
            new_entries = scheduled
        elif affected_subjects:
            entries_list = self._validate_pairs_serial(context, label_list,
                                                       affected_subjects)
            new_entries = {(entry.node, entry.label): entry
                           for entry in entries_list}

        # delta-update the baseline table: drop every affected pair (this
        # covers subjects that no longer exist), then insert the re-runs.
        for node in affected:
            for label in label_list:
                table.pop((node, label), None)
        delta_entries: List[ValidationReportEntry] = []
        for node in affected_subjects:
            for label in label_list:
                entry = new_entries[(node, label)]
                table[(node, label)] = entry
                delta_entries.append(entry)
        self._incremental_generation = self.graph.generation

        delta = ValidationReport(entries=delta_entries)
        delta.typing = ShapeTyping.from_pairs(
            (entry.node, entry.label) for entry in delta_entries if entry.conforms
        )
        # the full report's typing is maintained incrementally too: drop the
        # affected nodes' associations and fold the delta's back in — two
        # dict copies, never a re-derivation from the report's entries.
        typing = self._incremental_typing.without_nodes(affected)
        typing = typing.combine(delta.typing)
        self._incremental_typing = typing
        report = self._assemble_report(label_list, table, typing)
        return RevalidationResult(
            report=report, delta=delta, dirty=dirty,
            affected=affected, full_rebuild=False, retracted=retracted,
        )

    def _schema_reference_index(self):
        """The schema's :class:`~repro.shex.partition.ReferenceIndex`, cached
        per schema object so repeated revalidation rounds never re-walk the
        shape expressions."""
        from .partition import ReferenceIndex

        if self._reference_index is None \
                or self._reference_index_schema is not self.schema:
            self._reference_index = ReferenceIndex(self.schema)
            self._reference_index_schema = self.schema
        return self._reference_index

    def _incremental_baseline_valid(self, label_list: Tuple[ShapeLabel, ...]) -> bool:
        """True when the last full run's state is still incrementally usable.

        Beyond a baseline existing for the same label set, the retained
        shared context must still be the one that produced it: the identity
        components of the context key must match the validator's current
        sources, and the key's generation must equal the baseline generation
        (if anything rebuilt or mutated the context since — a ``validate_node``
        after an unseen mutation, say — its verdicts no longer pair with the
        baseline's entries).
        """
        if self.reference or self._incremental_entries is None \
                or self._incremental_labels != label_list \
                or self._context is None:
            return False
        key = self._context_key
        return (key is not None
                and key[0] is self.graph
                and key[1] is self.schema
                and key[2] is self.engine
                and key[3] is self.compiled
                and key[4] == self.max_recursion_depth
                and key[5] == self._incremental_generation)

    def _assemble_report(
        self, label_list: Sequence[ShapeLabel],
        table: Dict[Tuple[ObjectTerm, ShapeLabel], ValidationReportEntry],
        typing: Optional[ShapeTyping] = None,
    ) -> ValidationReport:
        """Build the full report from a per-pair table, canonical order.

        Without ``typing`` the report's typing is derived from its entries.
        """
        report = ValidationReport()
        entries = report.entries
        for node in sorted(self.graph.nodes(), key=lambda term: term.sort_key()):
            if not self._owns(node):
                continue
            for label in label_list:
                entries.append(table[(node, label)])
        report.typing = typing if typing is not None else ShapeTyping.from_pairs(
            (entry.node, entry.label) for entry in entries if entry.conforms)
        return report

    # -- helpers -----------------------------------------------------------------
    def _resolve_label(self, label: Union[ShapeLabel, str, None]) -> ShapeLabel:
        if label is None:
            if self.schema is None or self.schema.start is None:
                raise SchemaError("no shape label given and the schema has no start shape")
            return self.schema.start
        if isinstance(label, ShapeLabel):
            return label
        return ShapeLabel(label)


# -- the bulk prefilter fast lane ---------------------------------------------------
def _decided_entry(node: ObjectTerm, label: ShapeLabel,
                   decision) -> ValidationReportEntry:
    """Build a report entry for a prefilter-decided ``(node, label)`` pair.

    The fast lane of the bulk paths: when the compiled-schema prefilter
    settles a pair, it never reaches
    :meth:`ValidationContext.check_reference` — no matching frame, no
    hypothesis bookkeeping, no per-entry statistics snapshotting.  The
    verdict itself was already recorded in the context by
    ``prefilter_node`` / ``prefilter_check``.
    """
    if decision.matched:
        return ValidationReportEntry(
            node=node, label=label, conforms=True,
            stats=MatchStats(prefilter_accepts=1),
        )
    # the entry carries the node and label already; reusing the memoised
    # reason string verbatim keeps the reject lane allocation-light
    return ValidationReportEntry(
        node=node, label=label, conforms=False,
        reason=decision.reason,
        stats=MatchStats(prefilter_rejects=1),
    )


# -- the signature dedupe lane ------------------------------------------------------
def _signature_probe(context: ValidationContext, cache: SignatureCache,
                     node: ObjectTerm, label: ShapeLabel
                     ) -> Optional[ValidationReportEntry]:
    """Answer ``(node, label)`` from the signature cache, if possible.

    Returns ``None`` when the pair is already settled in the context (the
    settled lane of ``check_reference`` is cheaper and keeps its own reason
    strings), the subject is signature-open (``node_signature`` returned
    ``None``), or the signature has no cached verdict yet.  On a hit the
    verdict is recorded in the context — exactly what a full engine run
    would have settled — so later references to ``node`` reuse it.
    """
    if context.is_confirmed(node, label) or context.is_failed(node, label):
        return None
    stats = context.stats
    start = perf_counter()
    signature = context.node_signature(node)
    cached = cache.lookup(signature, label) if signature is not None else None
    stats.signature_time += perf_counter() - start
    if signature is None:
        return None
    if cached is None:
        stats.signature_misses += 1
        return None
    conforms, reason = cached
    stats.signature_hits += 1
    if conforms:
        context.confirm(node, label)
    else:
        context.record_failure(node, label)
    return ValidationReportEntry(node=node, label=label, conforms=conforms,
                                 reason=reason,
                                 stats=MatchStats(signature_hits=1))


def _signature_store(context: ValidationContext, cache: SignatureCache,
                     node: ObjectTerm, label: ShapeLabel,
                     entry: ValidationReportEntry) -> None:
    """Record an engine-settled verdict under the subject's signature.

    Only *settled* outcomes are stored: budget-limited entries and verdicts
    the context did not settle (still provisional behind a hypothesis) never
    enter the cache — the two soundness gates of :class:`SignatureCache`.
    """
    if entry.limit_exceeded:
        return
    if entry.conforms:
        if not context.is_confirmed(node, label):
            return
    elif not context.is_failed(node, label):
        return
    stats = context.stats
    start = perf_counter()
    signature = context.node_signature(node)
    stats.signature_time += perf_counter() - start
    if signature is None:
        return
    reason = "" if entry.conforms else (
        "neighbourhood signature matches a structure that does not "
        f"satisfy {label}")
    cache.store(signature, label, entry.conforms, reason)
    stats.signature_dedupes += 1


def _prefilter_signature_store(context: ValidationContext, cache: SignatureCache,
                               node: ObjectTerm, label: ShapeLabel,
                               decision) -> None:
    """Record a prefilter-decided verdict under the subject's signature.

    Sound for the same reason the engine-path store is: everything the
    prefilter consults — the predicate multiset and the screenable
    constraint verdicts of each object — is a pure function of the
    canonical neighbourhood signature, so equal signatures always replay
    the same decision.  Storing it lets later lookalike subjects skip the
    prefilter scan too, not just the engine run.  The prefilter's reason
    strings name predicates, never the node, so serving them verbatim to a
    lookalike stays accurate.
    """
    stats = context.stats
    start = perf_counter()
    signature = context.node_signature(node)
    stats.signature_time += perf_counter() - start
    if signature is None:
        return
    cache.store(signature, label, decision.matched, decision.reason)
    stats.signature_dedupes += 1


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
