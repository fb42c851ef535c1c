"""Hash-sharded bulk validation: the service's scale-out scheduler.

:class:`ShardedValidator` partitions the *subjects* across worker processes
by a deterministic hash of their N-Triples rendering (:func:`shard_of`), so
the work spreads across ``shards`` workers whatever the reference structure
of the graph looks like.

The shard processes live for the validator's lifetime
(:class:`~repro.service.fleet.ShardFleet`).  Each worker owns a full
shard-local graph replica with its own bounded journal and a maintained
baseline restricted to the subjects it owns; deltas are broadcast to the
replicas and each worker runs the incremental revalidate loop locally.
Warm rounds cost queue round-trips, not process forks.

Correctness rides on the settled-verdict merge protocol: each worker derives
cross-shard reference targets locally from its whole-graph replica, and only
the verdicts its context **settled** merge back into the coordinator's
shared context.  Provisional, hypothesis-dependent and budget-poisoned state
never crosses a process boundary, so verdicts are identical to the serial
path (``docs/architecture.md``, "settled-verdict merge rule").  Cross-shard
targets may be derived redundantly by several shards; redundant derivation
of a *settled* verdict is idempotent.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..rdf.terms import ObjectTerm
from ..shex.results import MatchStats, ValidationReportEntry
from ..shex.typing import ShapeLabel
from ..shex.validator import IncrementalFallback, ValidationReport, Validator
from .api import ServiceError
from .fleet import ShardFleet, shard_of

__all__ = ["ShardedValidator", "shard_of"]


class ShardedValidator(Validator):
    """A :class:`Validator` whose scheduler shards by subject hash.

    Both ``validate_graph`` and ``revalidate`` route through the overridden
    ``_schedule``, so full runs and incremental rounds shard the same way.
    ``shards <= 1`` (or too little work) falls back to the serial path.  The
    shard workers are a persistent :class:`~repro.service.fleet.ShardFleet`;
    call :meth:`close_fleet` (or let the owning session's ``close`` do it)
    to release the processes.
    """

    def __init__(self, *args, shards: int = 2,
                 fleet_response_timeout: float = 120.0,
                 fleet_journal_limits: Optional[Sequence[Optional[int]]] = None,
                 fault_plan=None,
                 **kwargs):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        super().__init__(*args, **kwargs)
        self.shards = shards
        self._fleet: Optional[ShardFleet] = None
        self._fleet_response_timeout = fleet_response_timeout
        #: deterministic fault schedule forwarded to the fleet (chaos tests).
        self._fault_plan = fault_plan
        #: per-shard journal-bound overrides (test hook); ``None`` entries
        #: inherit the coordinator graph's journal bound.
        self._fleet_journal_limits = fleet_journal_limits
        #: coordinator generation the replicas mirror (None = never loaded).
        self._fleet_generation: Optional[int] = None
        #: label tuple the replicas' baselines cover.
        self._fleet_labels: Optional[Tuple[ShapeLabel, ...]] = None

    # -- dispatch -------------------------------------------------------------
    def _schedule(self, label_list: Sequence[ShapeLabel],
                  restrict: Optional[FrozenSet[ObjectTerm]] = None,
                  ) -> Optional[ValidationReport]:
        if self.shards <= 1:
            return None
        if self.reference:
            raise ValueError(
                "sharded validation shares settled verdicts across shards "
                "and is incompatible with reference=True")
        if self._worker_engine_spec is None:
            raise ValueError(
                "sharded validation needs an engine constructible by name "
                "so worker processes can rebuild it")
        if restrict is None:
            return self._fleet_full_run(label_list)
        return self._fleet_delta_run(label_list, restrict)

    # -- resident fleet: lifecycle --------------------------------------------
    def _ensure_fleet(self) -> ShardFleet:
        if self._fleet is None:
            self._fleet = ShardFleet(
                self.shards,
                response_timeout=self._fleet_response_timeout,
                journal_limits=self._fleet_journal_limits,
                fault_plan=self._fault_plan)
        self._fleet.start()
        return self._fleet

    def close_fleet(self) -> None:
        """Shut the resident workers down (idempotent)."""
        if self._fleet is not None:
            self._fleet.shutdown()
            self._fleet = None
        self._fleet_generation = None
        self._fleet_labels = None

    def _load_payload(self, labels: Tuple[ShapeLabel, ...], triples: list,
                      shard_index: int) -> tuple:
        bound = None
        if self._fleet_journal_limits is not None \
                and shard_index < len(self._fleet_journal_limits):
            bound = self._fleet_journal_limits[shard_index]
        if bound is None:
            bound = self.graph.journal.max_entries
        return (self.schema, self._worker_engine_spec, self.compiled,
                triples, list(labels), bound, self.cache_max_entries)

    def _fleet_load(self, fleet: ShardFleet,
                    labels: Tuple[ShapeLabel, ...]) -> List[tuple]:
        """(Re)load every replica from the coordinator's current graph.

        Respawns dead workers first, then ships the full triple list and a
        warm full owned run to each shard.  Returns the per-shard
        ``(entries, confirmed, failed)`` results.
        """
        for worker in list(fleet.workers):
            if worker.failed or worker.process is None \
                    or not worker.process.is_alive():
                fleet.respawn(worker)
        triples = list(self.graph)
        payloads = [self._load_payload(labels, triples, index)
                    for index in range(fleet.shards)]
        outcomes = fleet.broadcast("load", payloads, per_worker=True)
        for worker in fleet.workers:
            worker.loaded = True
        self._fleet_generation = self.graph.generation
        self._fleet_labels = labels
        return outcomes

    def _fleet_synced(self, fleet: ShardFleet,
                      labels: Tuple[ShapeLabel, ...]) -> bool:
        return (bool(fleet.workers)
                and all(worker.loaded and not worker.failed
                        and worker.process is not None
                        and worker.process.is_alive()
                        for worker in fleet.workers)
                and self._fleet_generation == self.graph.generation
                and self._fleet_labels == labels)

    # -- resident fleet: scheduling -------------------------------------------
    def _fleet_full_run(self, label_list: Sequence[ShapeLabel]
                        ) -> Optional[ValidationReport]:
        subject_count = sum(1 for _ in self.graph.nodes())
        if subject_count <= 1:
            return None
        context = self._bulk_context()
        labels = tuple(label_list)
        fleet = self._ensure_fleet()
        if self._fleet_synced(fleet, labels):
            # warm replicas: a full owned re-run per shard, no reload.
            outcomes = fleet.broadcast("run", list(labels))
        else:
            outcomes = self._fleet_load(fleet, labels)
        entries, stats = self._merge_outcomes(context, outcomes)
        return ValidationReport(list(entries.values()), stats)

    def _fleet_delta_run(self, label_list: Sequence[ShapeLabel],
                         restrict: FrozenSet[ObjectTerm],
                         ) -> Optional[ValidationReport]:
        """One resident incremental round: check, revalidate, merge.

        Two-phase: every shard first confirms (``check``) that its local
        journal and baseline can answer the round *without mutating
        anything*; only then does the ``revalidate`` broadcast run.  A
        journal overflow on one shard therefore surfaces as a typed
        :class:`IncrementalFallback` while every sibling's baseline is still
        intact.
        """
        fleet = self._fleet
        labels = tuple(label_list)
        if fleet is None or not fleet.workers:
            # no resident state yet (first run was serial/degenerate):
            # let the coordinator's serial path answer this round.
            return None
        if any(worker.failed or worker.process is None
               or not worker.process.is_alive() for worker in fleet.workers):
            # heal: respawn + warm-load dead workers from the coordinator's
            # current graph (the delta was already applied to it), leaving
            # healthy replicas warm.  The reloaded shard's round below is a
            # no-op delta; its verdicts are pulled from its fresh baseline.
            self._heal_workers(fleet, labels)
        if self._fleet_generation != self.graph.generation \
                or self._fleet_labels != labels:
            # the replicas missed a mutation (out-of-band edit between
            # rounds): resident state is stale, answer serially and let the
            # next full run reload the fleet.
            return None

        checks = fleet.broadcast("check", list(labels))
        for outcome in checks:
            if outcome is not None:
                raise IncrementalFallback(outcome[0], outcome[1])
        outcomes = fleet.broadcast("revalidate", list(labels))
        context = self._bulk_context()
        entries, stats = self._merge_outcomes(context, outcomes)

        # coverage: the caller needs every (affected subject × label) pair.
        # A freshly healed shard reports an empty delta — pull the missing
        # pairs from its maintained baseline instead.
        wanted = [(node, label) for node in restrict
                  if self.graph.degree(node) for label in labels]
        missing = [pair for pair in wanted if pair not in entries]
        if missing:
            by_shard: Dict[int, List[tuple]] = {}
            for pair in missing:
                by_shard.setdefault(shard_of(pair[0], self.shards),
                                    []).append(pair)
            for shard_index, pairs in by_shard.items():
                worker = fleet.workers[shard_index]
                for pair, entry in zip(pairs,
                                       fleet.request(worker, "verdicts",
                                                     pairs)):
                    if entry is not None:
                        entries[pair] = entry
        still_missing = sorted({pair[0] for pair in wanted
                                if pair not in entries},
                               key=lambda term: term.sort_key())
        if still_missing:
            # safety net: derive the stragglers on the coordinator itself.
            stragglers = self._validate_pairs(
                [(node, label) for node in still_missing for label in labels],
                context)
            stats.merge(stragglers.stats)
            for entry in stragglers:
                entries[(entry.node, entry.label)] = entry
        return ValidationReport(list(entries.values()), stats)

    def _heal_workers(self, fleet: ShardFleet,
                      labels: Tuple[ShapeLabel, ...]) -> None:
        """Respawn and warm-load dead workers only; keep live replicas warm."""
        triples = None
        for worker in list(fleet.workers):
            if not worker.failed and worker.process is not None \
                    and worker.process.is_alive():
                continue
            fresh = fleet.respawn(worker)
            if triples is None:
                triples = list(self.graph)
            fleet.request(fresh, "load",
                          self._load_payload(labels, triples, fresh.index))
            fresh.loaded = True

    def _merge_outcomes(self, context, outcomes
                        ) -> Tuple[Dict[Tuple[ObjectTerm, ShapeLabel],
                                        ValidationReportEntry], MatchStats]:
        """Merge shard entries and run stats under the settled-verdict protocol."""
        entries: Dict[Tuple[ObjectTerm, ShapeLabel], ValidationReportEntry] = {}
        stats = MatchStats()
        new_confirmed: List[Tuple[ObjectTerm, ShapeLabel]] = []
        new_failed: List[Tuple[ObjectTerm, ShapeLabel]] = []
        seen: Set[Tuple[ObjectTerm, ShapeLabel]] = set()
        for worker_entries, confirmed, failed, worker_stats in outcomes:
            stats.merge(worker_stats)
            for entry in worker_entries:
                entries[(entry.node, entry.label)] = entry
            # two shards can settle the same cross-shard target; the
            # verdicts agree (determinism), keep the first occurrence
            for pair in confirmed:
                if pair not in seen:
                    seen.add(pair)
                    new_confirmed.append(pair)
            for pair in failed:
                if pair not in seen:
                    seen.add(pair)
                    new_failed.append(pair)
        context.seed_settled(new_confirmed, new_failed)
        return entries, stats

    # -- resident fleet: session hooks ----------------------------------------
    def stage_fleet_delta(self, add, remove) -> None:
        """Broadcast an already-applied coordinator delta to the replicas.

        Called by the session *after* the coordinator graph's batch, before
        ``revalidate``.  Replicas receive the full delta (they must stay
        whole-graph mirrors so cross-shard targets keep deriving locally);
        only the revalidation *work* is partitioned by ownership.  A worker
        dying mid-stage is tolerated — it is respawned and warm-loaded on
        the next fleet operation; the survivors stay in sync.
        """
        fleet = self._fleet
        if self.shards <= 1 or fleet is None \
                or not any(worker.loaded for worker in fleet.workers):
            return
        add = list(add)
        remove = list(remove)
        if add or remove:
            fleet.broadcast("apply", (add, remove), tolerate_death=True)
        self._fleet_generation = self.graph.generation

    def dead_shards(self) -> Tuple[int, ...]:
        """Shard indices whose resident worker is currently down (no heal)."""
        fleet = self._fleet
        if self.shards <= 1 or fleet is None or not fleet.workers:
            return ()
        return tuple(worker.index for worker in fleet.workers
                     if worker.failed or not worker.loaded
                     or worker.process is None
                     or not worker.process.is_alive())

    def degraded_entry(self, node, label):
        """Serve one pair from its owning live shard, without healing.

        Returns ``(entry, shard_generation, missing_shards)``.  ``entry`` is
        the owning replica's baseline entry (``None`` when that shard is
        dead, unloaded, or has never derived the pair);
        ``shard_generation`` is the replica's maintained generation (its
        baseline may be fresher than the coordinator's after a partial
        round).  This path must never respawn or warm-load — degraded reads
        are the *cheap* escape hatch while the next write heals the fleet —
        so a dead owner simply lands in ``missing_shards``.
        """
        fleet = self._fleet
        if self.shards <= 1 or fleet is None or not fleet.workers:
            return None, None, ()
        shard_index = shard_of(node, self.shards)
        worker = fleet.workers[shard_index]
        if worker.failed or not worker.loaded or worker.process is None \
                or not worker.process.is_alive():
            return None, None, (shard_index,)
        try:
            generation, entries = fleet.request(worker, "baseline",
                                                [(node, label)])
        except (ServiceError, RuntimeError, IncrementalFallback):
            # the owner died under us (or errored): report, don't heal.
            return None, None, (shard_index,)
        return entries[0], generation, ()

    def fleet_stats(self, include_workers: bool = True) -> Dict[str, object]:
        """Fleet health for :class:`~repro.service.api.ServiceStats`."""
        info: Dict[str, object] = {"shards": self.shards}
        fleet = self._fleet
        if fleet is None or not fleet.workers:
            info["started"] = False
            return info
        info["started"] = True
        info.update(fleet.health())
        if include_workers:
            try:
                info["workers"] = fleet.broadcast("stats", None,
                                                  tolerate_death=True)
            except Exception:  # noqa: BLE001 — stats must never take a server down
                info["workers"] = []
        return info
