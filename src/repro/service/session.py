"""The :class:`ValidationSession` facade: one lifecycle for every surface.

A session owns a graph, a warm :class:`~repro.shex.validator.Validator`
(shared context, compiled schema, global derivative cache) and a lock, and
exposes the service lifecycle the CLI, the HTTP server and in-process
callers all share:

``validate()``
    the initial (or explicit) full run — records the maintained baseline.
``apply_changes()`` / ``apply_delta()``
    a batched mutation routed through the change journal → closure →
    retraction → re-run loop; serialized by the session lock so two deltas
    can never interleave ``retract_nodes`` with a running validation.
``verdict()``
    a point query answered **from the maintained entry table** — no engine, no
    fresh run, ever.  If the baseline cannot answer, the session raises a
    typed :class:`~repro.service.api.ServiceError`; it never silently falls
    back to validating.
``stats()``
    the unified :class:`~repro.service.api.ServiceStats` counters.

Failures surface as :class:`ServiceError` with stable codes (see
``api.py``), which the HTTP layer maps to non-200 statuses verbatim.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..rdf import Graph, ParseError
from ..rdf.ntriples import iter_ntriples, parse_term
from ..rdf.terms import ObjectTerm, Triple
from ..shex.derivatives import DerivativeBudgetExceeded
from ..shex.results import MatchStats
from ..shex.schema import Schema, SchemaError
from ..shex.typing import ShapeLabel
from ..shex.validator import (
    IncrementalFallback,
    RevalidationResult,
    ValidationReport,
    Validator,
)
from .api import (
    DeltaRequest,
    DeltaResponse,
    ServiceStats,
    ValidationRequest,
    VerdictResponse,
)
from .api import ServiceError

__all__ = ["ValidationSession", "collect_stats"]

LabelArg = Union[ShapeLabel, str, None]


def collect_stats(validator: Validator, totals: MatchStats,
                  session_info: Optional[dict] = None) -> ServiceStats:
    """Snapshot a validator's subsystem counters into one :class:`ServiceStats`.

    The single source of the unified stats structure: sessions build theirs
    here, and the CLI's shape-map path reuses it so ``--cache-stats`` output
    is one format everywhere.  ``totals``, the summed run stats, is the only
    source of the ``prefilter`` and ``profile`` counters.
    """
    graph = validator.graph
    store = dict(graph.store_stats())
    journal = dict(graph.journal.stats())
    compiled = validator.compiled
    if compiled is None:
        prefilter = {}
    else:
        prefilter = {
            "accepts": totals.prefilter_accepts,
            "rejects": totals.prefilter_rejects,
            "reference_checks": totals.reference_checks,
            "schema": dict(compiled.stats()),
        }
    cache_obj = getattr(validator.engine, "cache", None)
    if cache_obj is None:
        cache = {}
    else:
        cache = dict(cache_obj.stats())
        cache["hit_rate"] = round(cache_obj.hit_rate, 4)
    signature_obj = getattr(validator, "signature_cache", None)
    if signature_obj is None:
        signature = {}
    else:
        signature = dict(signature_obj.stats())
        signature["hit_rate"] = round(signature_obj.hit_rate, 4)
    profile = {
        "signature_hits": totals.signature_hits,
        "signature_misses": totals.signature_misses,
        "signature_dedupes": totals.signature_dedupes,
        "signature_time": round(totals.signature_time, 6),
        "prefilter_time": round(totals.prefilter_time, 6),
        "dispatch_time": round(totals.dispatch_time, 6),
        "backtrack_time": round(totals.backtrack_time, 6),
        "cache_time": round(totals.cache_time, 6),
    }
    if not any(profile.values()):
        profile = {}
    context = getattr(validator, "_context", None)
    verdicts = dict(context.settled_counts()) if context is not None else {}
    entries = getattr(validator, "_incremental_entries", None)
    verdicts["maintained_pairs"] = len(entries) if entries else 0
    fleet_stats = getattr(validator, "fleet_stats", None)
    fleet = fleet_stats() if callable(fleet_stats) else {}
    return ServiceStats(
        generation=graph.generation,
        store=store, journal=journal, prefilter=prefilter,
        cache=cache, signature=signature, profile=profile,
        verdicts=verdicts,
        session=dict(session_info or {}),
        fleet=fleet)


class ValidationSession:
    """A warm, lock-serialized validation lifecycle around one graph.

    The validator runs the one production configuration (see
    :class:`Validator`); ``cache_max_entries`` bounds its derivative cache.
    ``reference=True`` swaps in the paper's reference semantics — a fresh
    context per node and no caches — so its deltas are always full
    rebuilds (``no-baseline`` unless ``allow_full_rebuild``).
    ``shards > 1`` runs on a resident shard fleet (``0``/``1`` means
    serial; the fleet rejects ``reference``).  The session takes
    ownership of ``graph``:
    mutate it only through :meth:`apply_changes`, or the maintained baseline
    goes stale and verdict queries start failing with ``stale-baseline``.
    """

    def __init__(self, graph: Graph, schema: Schema, *,
                 engine: Union[str, object, None] = None,
                 shards: int = 0,
                 reference: bool = False,
                 cache_max_entries: Optional[int] = None,
                 fleet_response_timeout: float = 120.0,
                 fault_plan=None,
                 delta_ledger_size: int = 256):
        self.graph = graph
        self.schema = schema
        self.shards = max(shards, 0)
        options = dict(engine=engine, reference=reference,
                       cache_max_entries=cache_max_entries)
        if self.shards > 1:
            from .sharding import ShardedValidator  # loads the fleet stack

            self.validator: Validator = ShardedValidator(
                graph, schema, shards=self.shards,
                fleet_response_timeout=fleet_response_timeout,
                fault_plan=fault_plan, **options)
        else:
            self.validator = Validator(graph, schema, **options)
        self._lock = threading.RLock()
        #: the stats of every full run and delta round, summed.
        self._totals = MatchStats()
        self._full_runs = 0
        self._delta_rounds = 0
        self._verdict_queries = 0
        self._closed = False
        #: bounded applied-delta ledger: delta_id → record.  A record exists
        #: from the moment the delta's triples land in the graph, so a retry
        #: after *any* later failure (dropped response, crashed shard) finds
        #: it and never re-applies.  Eviction is FIFO — the ledger size is
        #: the retry window, and a retry older than the window surfaces as
        #: ``generation-conflict`` via ``expected_generation`` instead of
        #: silently double-applying.
        self._ledger: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._ledger_size = max(delta_ledger_size, 1)
        self._replayed_deltas = 0

    # -- construction from the wire ------------------------------------------------
    @classmethod
    def from_request(cls, request: ValidationRequest, *,
                     default_schema: Optional[Schema] = None,
                     default_shards: int = 0,
                     cache_max_entries: Optional[int] = None,
                     fleet_response_timeout: float = 120.0,
                     fault_plan=None,
                     delta_ledger_size: int = 256,
                     ) -> "ValidationSession":
        """Build a session from a :class:`ValidationRequest` payload.

        Parse failures become typed errors: ``schema-error`` for the ShExC
        text, ``parse-error`` for the RDF payload, ``bad-request`` for a
        ``labels`` entry the schema does not define — the codes the server
        returns as HTTP 400.
        """
        if request.schema:
            try:
                schema = Schema.from_shexc(request.schema)
            except (ParseError, SchemaError) as error:
                raise ServiceError("schema-error", str(error), 400) from error
        elif default_schema is not None:
            schema = default_schema
        else:
            raise ServiceError("schema-error",
                               "no schema in the request and the server has "
                               "no preloaded schema", 400)
        for label in request.labels or ():
            # an unknown or empty name is the client's mistake: reject it
            # before the graph is parsed or any shard worker starts
            try:
                schema.expression(label)
            except (SchemaError, ValueError) as error:
                raise ServiceError("bad-request", f"labels: {error}",
                                   400) from error
        try:
            graph = Graph.parse(request.data, format=request.data_format)
        except ParseError as error:
            raise ServiceError("parse-error", str(error), 400) from error
        shards = request.shards if request.shards is not None else default_shards
        if shards < 0:
            raise ServiceError("bad-request", "shards must be >= 0", 400)
        return cls(graph, schema, shards=shards,
                   cache_max_entries=cache_max_entries,
                   fleet_response_timeout=fleet_response_timeout,
                   fault_plan=fault_plan,
                   delta_ledger_size=delta_ledger_size)

    # -- lifecycle -----------------------------------------------------------------
    def validate(self, labels: Optional[Sequence[LabelArg]] = None
                 ) -> ValidationReport:
        """Run (or re-run) the full validation and refresh the baseline."""
        with self._lock:
            self._check_open()
            try:
                report = self.validator.validate_graph(labels=labels)
            except DerivativeBudgetExceeded as error:
                raise ServiceError("limit-exceeded", str(error), 422) from error
            self._full_runs += 1
            self._totals.merge(report.stats)
            return report

    def apply_changes(self, add: Iterable[Triple] = (),
                      remove: Iterable[Triple] = (),
                      labels: Optional[Sequence[LabelArg]] = None,
                      allow_full_rebuild: bool = False,
                      ) -> Tuple[DeltaResponse, RevalidationResult]:
        """Apply one batched mutation and revalidate incrementally.

        The whole edit lands as a single change-journal batch; the
        incremental pass re-runs only the affected closure.  When the
        journal cannot answer (overflow) or no baseline exists, the delta
        *is applied* but revalidation raises ``journal-overflow`` /
        ``no-baseline`` (HTTP 409) unless ``allow_full_rebuild`` opts into
        the unbounded full re-run.  Recovery after the error: send an empty
        delta with ``allow_full_rebuild=True`` (or call :meth:`validate`).
        """
        with self._lock:
            self._check_open()
            return self._apply_and_revalidate(
                list(add), list(remove), labels, allow_full_rebuild)

    def _apply_and_revalidate(self, add: List[Triple], remove: List[Triple],
                              labels, allow_full_rebuild: bool,
                              ledger_record: Optional[Dict[str, Any]] = None,
                              skip_mutation: bool = False,
                              ) -> Tuple[DeltaResponse, RevalidationResult]:
        """The delta core (caller holds the lock): mutate, stage, revalidate.

        With ``skip_mutation=True`` (a ledgered retry whose triples already
        landed) the mutation and fleet staging are skipped and the recorded
        added/removed counts are reused; only the revalidation re-runs —
        the journal still holds the dirty records, so the round converges
        to the same baseline the un-dropped original would have reached.
        """
        graph = self.graph
        if skip_mutation:
            added = ledger_record["added"]
            removed = ledger_record["removed"]
        else:
            added = removed = 0
            with graph.batch():
                if add:
                    before = len(graph)
                    graph.add_all(add)
                    added = len(graph) - before
                if remove:
                    before = len(graph)
                    graph.remove_all(remove)
                    removed = before - len(graph)
            if ledger_record is not None:
                # the point of no return: from here a retry must not
                # re-apply, whatever happens to staging or revalidation.
                ledger_record["applied"] = True
                ledger_record["added"] = added
                ledger_record["removed"] = removed
            # keep resident shard replicas mirroring the coordinator graph:
            # the same delta is broadcast to the fleet before revalidation so
            # each shard's local journal → closure → re-run round sees it.
            stage = getattr(self.validator, "stage_fleet_delta", None)
            if stage is not None:
                stage(add, remove)
        try:
            result = self.validator.revalidate(
                labels=labels, allow_full_rebuild=allow_full_rebuild)
        except IncrementalFallback as error:
            raise ServiceError(error.reason,
                               f"delta applied (+{added}/-{removed}) but "
                               f"not revalidated: {error}", 409,
                               self.generation) from error
        except DerivativeBudgetExceeded as error:
            raise ServiceError("limit-exceeded",
                               f"delta applied (+{added}/-{removed}) but "
                               f"not revalidated: {error}", 422,
                               self.generation) from error
        self._delta_rounds += 1
        self._totals.merge(result.delta.stats)
        stats = result.stats()
        response = DeltaResponse(
            generation=self.validator.maintained_generation or 0,
            added=added, removed=removed,
            dirty_subjects=stats["dirty_subjects"],
            affected_nodes=stats["affected_nodes"],
            revalidated_pairs=stats["revalidated_pairs"],
            reused_pairs=stats["reused_pairs"],
            retracted_verdicts=stats["retracted_verdicts"],
            full_rebuild=result.full_rebuild,
            conforms=result.conforms,
        )
        return response, result

    def apply_delta(self, request: DeltaRequest) -> DeltaResponse:
        """The wire-level delta entry point: N-Triples text in, counters out.

        This is where the exactly-once contract lives.  A request carrying a
        ``delta_id`` is recorded in the bounded per-session ledger *before*
        anything can fail after the mutation; a retry with the same id

        * replays the original :class:`DeltaResponse` verbatim when the
          first attempt completed (the response was dropped on the wire),
        * skips the mutation and re-runs only the revalidation when the
          first attempt applied the triples but died before producing a
          response (a crashed shard mid-round),
        * re-applies from scratch only when the first attempt never reached
          the graph at all.

        ``expected_generation`` (when set) is checked before any new apply:
        a mismatch is a typed ``generation-conflict`` 409 — the guard that
        catches retries old enough to have fallen out of the ledger.
        """
        try:
            add = list(iter_ntriples(request.add)) if request.add else []
            remove = list(iter_ntriples(request.remove)) if request.remove else []
        except ParseError as error:
            raise ServiceError("parse-error", str(error), 400) from error
        fingerprint = (request.add, request.remove, request.labels,
                       request.allow_full_rebuild)
        with self._lock:
            self._check_open()
            delta_id = request.delta_id
            record = self._ledger.get(delta_id) if delta_id else None
            if record is not None:
                if record["fingerprint"] != fingerprint:
                    raise ServiceError(
                        "bad-request",
                        f"delta_id {delta_id!r} was already used for a "
                        "different delta; idempotency keys must be unique "
                        "per edit", 400)
                self._ledger.move_to_end(delta_id)
                if record["response"] is not None:
                    self._replayed_deltas += 1
                    return record["response"]
                if record["applied"]:
                    # triples landed but the original round never produced a
                    # response: finish the revalidation without re-applying.
                    self._replayed_deltas += 1
                    response, _ = self._apply_and_revalidate(
                        add, remove, request.labels,
                        request.allow_full_rebuild,
                        ledger_record=record, skip_mutation=True)
                    record["response"] = response
                    return response
                # the first attempt never mutated the graph — fall through
                # to a fresh apply under the same ledger record.
            if request.expected_generation is not None \
                    and request.expected_generation != self.generation:
                raise ServiceError(
                    "generation-conflict",
                    f"delta expected generation "
                    f"{request.expected_generation} but the graph is at "
                    f"{self.generation}; re-read and re-derive the delta "
                    "before retrying", 409)
            if record is None and delta_id:
                record = {"fingerprint": fingerprint, "applied": False,
                          "added": 0, "removed": 0, "response": None}
                self._ledger[delta_id] = record
                while len(self._ledger) > self._ledger_size:
                    self._ledger.popitem(last=False)
            response, _ = self._apply_and_revalidate(
                add, remove, request.labels, request.allow_full_rebuild,
                ledger_record=record)
            if record is not None:
                record["response"] = response
            return response

    def verdict(self, node: Union[ObjectTerm, str],
                shape: LabelArg = None,
                include_reason: bool = False,
                allow_degraded: bool = False) -> VerdictResponse:
        """Serve one verdict from the maintained entry table — never a fresh run.

        ``node`` may be a term or its N-Triples rendering; ``shape`` a label
        or name (default: the schema's start shape).  The response's
        ``generation`` is the baseline generation, which this method
        guarantees equals the graph's current generation — otherwise it
        raises ``stale-baseline`` instead of serving outdated state.

        ``allow_degraded=True`` relaxes exactly that guarantee, explicitly:
        while the baseline is stale (a delta's revalidation died mid-round
        and the fleet has not healed yet), the verdict is served from the
        pair's owning *live* shard replica when possible (whose shard-local
        baseline may already include the delta), else from the
        coordinator's last complete baseline.  Degraded responses carry
        ``degraded=True`` and the ``missing_shards`` that could not answer;
        a fresh baseline makes ``allow_degraded`` a no-op, so healthy reads
        stay byte-identical.
        """
        with self._lock:
            self._check_open()
            self._verdict_queries += 1
            generation = self.validator.maintained_generation
            if generation is None:
                raise ServiceError(
                    "no-baseline",
                    "no maintained baseline; run a full validation first", 409)
            stale = generation != getattr(self.graph, "generation", generation)
            if stale and not allow_degraded:
                raise ServiceError(
                    "stale-baseline",
                    "the graph mutated outside the session; re-run "
                    "validation to refresh the baseline", 409)
            if isinstance(node, str):
                try:
                    term = parse_term(node)
                except ParseError as error:
                    raise ServiceError("parse-error",
                                       f"bad node term: {error}", 400) from error
            else:
                term = node
            try:
                label = self.validator._resolve_label(shape)
            except SchemaError as error:
                raise ServiceError("bad-request", str(error), 400) from error
            if stale:
                return self._degraded_verdict(term, label, generation,
                                              include_reason)
            entry = self.validator.maintained_entry(term, label)
            if entry is None:
                raise ServiceError(
                    "verdict-not-found",
                    f"({term.n3()}, {label.name}) is outside the maintained "
                    f"baseline", 404)
            reason: Optional[str] = None
            if include_reason and entry.reason:
                reason = entry.reason
            return VerdictResponse(node=term.n3(), shape=label.name,
                                   conforms=entry.conforms,
                                   generation=generation, reason=reason)

    def _degraded_verdict(self, term: ObjectTerm, label: ShapeLabel,
                          baseline_generation: int,
                          include_reason: bool) -> VerdictResponse:
        """Best-effort verdict while the coordinator baseline is stale.

        Preference order: the owning live shard's replica baseline (may be
        fresher than the coordinator after a partial round), then the
        coordinator's last complete baseline.  Never heals the fleet —
        degraded reads must stay cheap while the dead shard waits for the
        next write to respawn it.
        """
        missing: Tuple[int, ...] = ()
        degraded_entry = getattr(self.validator, "degraded_entry", None)
        if degraded_entry is not None:
            entry, shard_generation, owner_missing = degraded_entry(term,
                                                                    label)
            dead = getattr(self.validator, "dead_shards", lambda: ())()
            missing = tuple(sorted(set(owner_missing) | set(dead)))
            if entry is not None:
                reason = entry.reason if include_reason and entry.reason \
                    else None
                return VerdictResponse(
                    node=term.n3(), shape=label.name,
                    conforms=entry.conforms,
                    generation=(shard_generation
                                if shard_generation is not None
                                else baseline_generation),
                    reason=reason, degraded=True, missing_shards=missing)
        entry = self.validator.maintained_entry(term, label)
        if entry is None:
            raise ServiceError(
                "verdict-unavailable",
                f"({term.n3()}, {label.name}) cannot be served degraded: "
                "not in any live shard's baseline nor the coordinator's "
                "last complete baseline", 503)
        reason = entry.reason if include_reason and entry.reason else None
        return VerdictResponse(node=term.n3(), shape=label.name,
                               conforms=entry.conforms,
                               generation=baseline_generation,
                               reason=reason, degraded=True,
                               missing_shards=missing)

    # -- observability -------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Snapshot every subsystem counter into one :class:`ServiceStats`."""
        with self._lock:
            self._check_open()
            return collect_stats(self.validator, self._totals, {
                "full_runs": self._full_runs,
                "delta_rounds": self._delta_rounds,
                "verdict_queries": self._verdict_queries,
                "replayed_deltas": self._replayed_deltas,
                "ledger_entries": len(self._ledger),
                "shards": self.shards,
            })

    def health(self) -> Dict[str, Any]:
        """Cheap liveness info — deliberately **lock-free**.

        ``/healthz`` must answer while a long delta holds the session lock,
        so this reads plain attributes only (python attribute reads are
        atomic enough for a health probe; a torn counter is acceptable, a
        blocked probe is not).  No worker round-trips either: fleet health
        comes from the coordinator-side bookkeeping.
        """
        info: Dict[str, Any] = {
            "closed": self._closed,
            "generation": getattr(self.graph, "generation", 0),
            "maintained_generation":
                getattr(self.validator, "maintained_generation", None),
            "full_runs": self._full_runs,
            "delta_rounds": self._delta_rounds,
            "replayed_deltas": self._replayed_deltas,
        }
        fleet = getattr(self.validator, "_fleet", None)
        if fleet is not None and fleet.workers:
            info["fleet"] = fleet.health()
        return info

    @property
    def generation(self) -> int:
        return getattr(self.graph, "generation", 0)

    def close(self) -> None:
        """Mark the session unusable and release its resident shard fleet."""
        with self._lock:
            self._closed = True
            close_fleet = getattr(self.validator, "close_fleet", None)
            if close_fleet is not None:
                close_fleet()

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("session-closed",
                               "this validation session was closed", 409)
