"""Resident shard fleet: persistent worker processes with shard-local state.

The scheduler behind ``serve --shards N``.  The shard workers stay
**resident** for the lifetime of a session, the way a serving fleet keeps
model replicas warm:

* each worker owns a full **shard-local graph replica** with its own bounded
  :class:`~repro.rdf.journal.ChangeJournal`,
* each worker runs a :class:`~repro.shex.validator.Validator` restricted (via
  ``subject_filter``) to the subjects its shard owns by
  :func:`shard_of` — so the worker maintains a shard-local incremental
  baseline and runs the incremental revalidate loop locally,
* deltas are **broadcast** to every replica (replicas must stay whole so
  cross-shard reference targets keep deriving from shard-local state), while
  the revalidation *work* is hash-partitioned by subject ownership,
* only **settled** verdicts ever travel back to the coordinator, under the
  settled-verdict merge protocol.

The coordinator talks to each worker over an explicit request/response queue
pair.  Commands: ``load`` (replica + warm full run), ``apply`` (one delta
batch), ``check`` (can a restricted round be answered without mutating?),
``revalidate`` (the shard-local incremental round), ``run`` (full owned
re-run on the resident replica), ``verdicts`` (baseline lookups), ``stats``
and ``shutdown``.  ``check`` before ``revalidate`` makes the round
two-phase: a journal overflow on *one* shard surfaces as a typed fallback
before *any* shard has advanced its baseline, so sibling shards are never
corrupted by a partial round.

Worker death is detected by polling liveness while waiting for a response
and surfaces as a typed 503 (``fleet-worker-died``); the next fleet
operation respawns and warm-loads the dead worker from the coordinator's
current graph.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..rdf.graph import Graph
from ..shex.results import MatchStats
from ..shex.validator import IncrementalFallback, Validator
from .api import ServiceError
from .faults import FaultInjector, FaultPlan

__all__ = ["ShardFleet", "shard_of"]


def shard_of(node, shards: int) -> int:
    """The shard owning ``node``: ``crc32`` of its N-Triples rendering.

    Deterministic across processes and interpreter runs (unlike python's
    salted ``hash``), so a client, the coordinator and every worker agree on
    the partition without coordination.
    """
    return zlib.crc32(node.n3().encode("utf-8")) % shards


class _OwnedBy:
    """Picklable-by-construction ownership predicate for one shard."""

    __slots__ = ("shards", "shard_index")

    def __init__(self, shards: int, shard_index: int):
        self.shards = shards
        self.shard_index = shard_index

    def __call__(self, node) -> bool:
        return shard_of(node, self.shards) == self.shard_index


class _ShardReplica:
    """Worker-side state: the shard-local graph, journal and validator."""

    def __init__(self, shard_index: int, shards: int, schema, engine_spec,
                 compiled, triples, journal_max_entries: int):
        self.shard_index = shard_index
        self.shards = shards
        self.graph = Graph(journal_max_entries=journal_max_entries)
        with self.graph.batch():
            self.graph.add_all(triples)
        name, options = engine_spec
        self.validator = Validator(
            self.graph, schema, engine=name, compiled=compiled,
            subject_filter=_OwnedBy(shards, shard_index), **options)
        self.rounds = 0
        self.full_runs = 0
        #: the stats of every run on this replica, summed.
        self.totals = MatchStats()

    # -- commands -------------------------------------------------------------
    def run(self, labels) -> Tuple[list, list, list, MatchStats]:
        """Full owned validation; returns (entries, confirmed, failed, stats)."""
        report = self.validator.validate_graph(labels=list(labels) or None)
        self.full_runs += 1
        self.totals.merge(report.stats)
        context = self.validator._bulk_context()
        confirmed, failed = context.settled_verdicts()
        return list(report.entries), list(confirmed), list(failed), report.stats

    def apply(self, add, remove) -> int:
        """Apply one delta batch to the replica; returns the generation."""
        with self.graph.batch():
            if add:
                self.graph.add_all(add)
            if remove:
                self.graph.remove_all(remove)
        return self.graph.generation

    def check(self, labels) -> Optional[Tuple[str, str]]:
        """Phase 1 of a restricted round: answerable without mutating?

        Returns ``None`` when the shard-local baseline and journal can
        answer an incremental round, else the ``(reason, message)`` the
        coordinator should raise as :class:`IncrementalFallback` — *before*
        any shard's baseline has moved.
        """
        validator = self.validator
        label_tuple = tuple(labels) if labels \
            else tuple(validator.schema.labels())
        if not validator._incremental_baseline_valid(label_tuple):
            return ("no-baseline",
                    f"shard {self.shard_index} has no usable incremental "
                    "baseline; a full run is required")
        if self.graph.changes_since(validator._incremental_generation) is None:
            return ("journal-overflow",
                    f"shard {self.shard_index}'s change journal overflowed "
                    "since its baseline; the change set is unknowable and a "
                    "full run is required")
        return None

    def revalidate(self, labels) -> Tuple[list, list, list, MatchStats]:
        """The shard-local incremental loop; returns only the affected delta.

        ``(delta_entries, confirmed, failed, stats)`` where the settled
        lists are restricted to the round's affected closure — the verdicts
        this round actually (re-)derived — and the round's run stats.
        Unaffected baseline verdicts never re-cross the process boundary.
        """
        result = self.validator.revalidate(labels=list(labels) or None,
                                           allow_full_rebuild=False)
        self.rounds += 1
        self.totals.merge(result.delta.stats)
        context = self.validator._bulk_context()
        confirmed, failed = context.settled_verdicts()
        affected = result.affected
        new_confirmed = [pair for pair in confirmed if pair[0] in affected]
        new_failed = [pair for pair in failed if pair[0] in affected]
        return (list(result.delta.entries), new_confirmed, new_failed,
                result.delta.stats)

    def verdicts(self, pairs) -> list:
        """Baseline entries for ``pairs`` (``None`` → the whole baseline)."""
        table = self.validator._incremental_entries or {}
        if pairs is None:
            return list(table.values())
        return [table.get(tuple(pair)) for pair in pairs]

    def baseline(self, pairs) -> Tuple[Optional[int], list]:
        """Like :meth:`verdicts`, plus the shard-local baseline generation.

        Degraded reads need both: a live shard's replica may be *ahead of or
        behind* the coordinator's baseline after a partial round, and the
        caller must report the generation each served verdict describes.
        """
        return self.validator._incremental_generation, self.verdicts(pairs)

    def stats(self) -> Dict[str, Any]:
        return {
            "shard": self.shard_index,
            "triples": len(self.graph),
            "generation": self.graph.generation,
            "rounds": self.rounds,
            "full_runs": self.full_runs,
            "maintained_pairs": len(self.validator._incremental_entries or ()),
            "signature_hits": self.totals.signature_hits,
            "journal": dict(self.graph.journal.stats()),
        }


def _maybe_crash(injector: Optional[FaultInjector], point: str) -> None:
    """Die like a real crash if ``point`` fires: no cleanup, no response.

    ``os._exit`` (not ``sys.exit``) so no ``finally`` blocks, atexit hooks
    or queue feeder threads get to flush — exactly what a SIGKILL'd or
    OOM-killed worker looks like to the coordinator.
    """
    if injector is not None and injector.fire(point) is not None:
        os._exit(1)


def _respond(responses: multiprocessing.Queue,
             injector: Optional[FaultInjector], message) -> None:
    """Enqueue one response, subject to the stall/drop injection points."""
    if injector is not None:
        spec = injector.fire("fleet.stall")
        if spec is not None and spec.delay > 0:
            time.sleep(spec.delay)
        if injector.fire("fleet.drop-response") is not None:
            return
    responses.put(message)


def _fleet_worker_main(shard_index: int, shards: int,
                       requests: multiprocessing.Queue,
                       responses: multiprocessing.Queue,
                       fault_plan: Optional[FaultPlan] = None) -> None:
    """One resident worker: a command loop over the shard replica.

    Every response is tagged: ``("ok", payload)``, ``("fallback",
    (reason, message))`` for a declared incremental fallback, or
    ``("error", message)`` for anything else — the worker never dies on a
    request-level failure, only on queue breakage or ``shutdown``.

    When a :class:`FaultPlan` was shipped at spawn, the worker rebuilds its
    own :class:`FaultInjector` scoped to its shard index; the crash points
    straddle the ``apply`` and ``revalidate`` commands and every response
    passes the stall/drop points.  Occurrence counters are per process, so
    a respawned worker starts counting from zero — deterministic given the
    command sequence it sees.
    """
    injector = (FaultInjector(fault_plan, shard=shard_index)
                if fault_plan else None)
    replica: Optional[_ShardReplica] = None
    while True:
        try:
            command, payload = requests.get()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        try:
            if command == "shutdown":
                responses.put(("ok", None))
                break
            if command == "load":
                (schema, engine_spec, compiled, triples, labels,
                 journal_max_entries) = payload
                replica = _ShardReplica(
                    shard_index, shards, schema, engine_spec, compiled,
                    triples, journal_max_entries)
                _respond(responses, injector, ("ok", replica.run(labels)))
            elif command == "stats":
                _respond(responses, injector,
                         ("ok", replica.stats() if replica is not None
                          else {"shard": shard_index, "loaded": False}))
            elif replica is None:
                _respond(responses, injector,
                         ("error",
                          f"shard {shard_index} received {command!r} "
                          "before 'load'"))
            elif command == "run":
                _respond(responses, injector, ("ok", replica.run(payload)))
            elif command == "apply":
                _maybe_crash(injector, "fleet.crash-before-apply")
                generation = replica.apply(*payload)
                _maybe_crash(injector, "fleet.crash-after-apply")
                _respond(responses, injector, ("ok", generation))
            elif command == "check":
                _respond(responses, injector, ("ok", replica.check(payload)))
            elif command == "revalidate":
                _maybe_crash(injector, "fleet.crash-before-revalidate")
                outcome = replica.revalidate(payload)
                _maybe_crash(injector, "fleet.crash-after-revalidate")
                _respond(responses, injector, ("ok", outcome))
            elif command == "verdicts":
                _respond(responses, injector,
                         ("ok", replica.verdicts(payload)))
            elif command == "baseline":
                _respond(responses, injector,
                         ("ok", replica.baseline(payload)))
            else:
                _respond(responses, injector,
                         ("error", f"unknown fleet command {command!r}"))
        except IncrementalFallback as error:
            _respond(responses, injector,
                     ("fallback", (error.reason, str(error))))
        except Exception as error:  # noqa: BLE001 — report, don't die
            _respond(responses, injector,
                     ("error", f"{type(error).__name__}: {error}"))


class _FleetWorker:
    """Coordinator-side handle on one resident worker process."""

    __slots__ = ("index", "process", "requests", "responses", "loaded",
                 "failed")

    def __init__(self, index: int, process, requests, responses):
        self.index = index
        self.process = process
        self.requests = requests
        self.responses = responses
        self.loaded = False
        self.failed = False


class ShardFleet:
    """The coordinator's handle on a set of resident shard workers.

    Owns process lifecycle (spawn, liveness, respawn accounting, shutdown)
    and the request/response plumbing; the *scheduling* (what to broadcast,
    how to merge) lives in :class:`~repro.service.sharding.ShardedValidator`.
    """

    def __init__(self, shards: int, *, response_timeout: float = 120.0,
                 journal_limits: Optional[Sequence[Optional[int]]] = None,
                 fault_plan: Optional[FaultPlan] = None):
        if shards < 2:
            raise ValueError("a shard fleet needs at least 2 shards")
        self.shards = shards
        self.response_timeout = response_timeout
        #: optional per-shard journal-bound overrides (test hook); ``None``
        #: entries fall back to the coordinator graph's bound.
        self.journal_limits = list(journal_limits) if journal_limits else None
        #: deterministic fault schedule shipped to every worker at spawn;
        #: each worker scopes its own injector to its shard index.
        self.fault_plan = fault_plan if fault_plan else None
        self.workers: List[_FleetWorker] = []
        self.respawns = 0
        self._ctx = multiprocessing.get_context()
        self._closed = False

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        self._check_open()
        if self.workers:
            return
        self.workers = [self._spawn(index) for index in range(self.shards)]

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError(
                "fleet-closed",
                "the shard fleet has been shut down; spawning workers on a "
                "closed fleet is not allowed — create a new session instead",
                409)

    def _spawn(self, index: int) -> _FleetWorker:
        requests = self._ctx.Queue()
        responses = self._ctx.Queue()
        process = self._ctx.Process(
            target=_fleet_worker_main,
            args=(index, self.shards, requests, responses, self.fault_plan),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        process.start()
        return _FleetWorker(index, process, requests, responses)

    def respawn(self, worker: _FleetWorker) -> _FleetWorker:
        """Replace a dead worker with a fresh (unloaded) process."""
        self._check_open()
        if worker.process is not None and worker.process.is_alive():
            worker.process.terminate()
        fresh = self._spawn(worker.index)
        self.workers[worker.index] = fresh
        self.respawns += 1
        return fresh

    def shutdown(self, *, force: bool = False) -> None:
        """Stop every worker: graceful ``shutdown`` command, then terminate."""
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            process = worker.process
            if process is None or not process.is_alive():
                continue
            try:
                if force:
                    process.terminate()
                else:
                    worker.requests.put(("shutdown", None))
            except (ValueError, OSError):  # queue already closed
                process.terminate()
        for worker in self.workers:
            process = worker.process
            if process is None:
                continue
            process.join(timeout=2 if not force else 0.5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1)
        self.workers = []

    def __del__(self):
        # GC safety net: a leaked fleet must not strand daemon processes.
        try:
            self.shutdown(force=True)
        except Exception:
            pass

    # -- request plumbing -----------------------------------------------------
    def send(self, worker: _FleetWorker, command: str, payload=None) -> None:
        worker.requests.put((command, payload))

    def collect(self, worker: _FleetWorker):
        """One response from ``worker``; typed 503 on death or timeout.

        Returns the tagged ``(kind, payload)`` tuple the worker produced.
        """
        deadline = time.monotonic() + self.response_timeout
        while True:
            try:
                return worker.responses.get(timeout=0.2)
            except queue.Empty:
                if worker.process is None or not worker.process.is_alive():
                    worker.failed = True
                    worker.loaded = False
                    raise ServiceError(
                        "fleet-worker-died",
                        f"shard {worker.index}'s resident worker died "
                        "mid-request; it will be respawned and warm-loaded "
                        "on the next fleet operation",
                        503) from None
                if time.monotonic() > deadline:
                    worker.failed = True
                    worker.loaded = False
                    raise ServiceError(
                        "fleet-worker-died",
                        f"shard {worker.index}'s resident worker is "
                        f"unresponsive (no reply in {self.response_timeout}s)",
                        503) from None

    def request(self, worker: _FleetWorker, command: str, payload=None):
        """Send one command and unwrap its ``ok`` response.

        Raises :class:`IncrementalFallback` on a declared fallback,
        :class:`ServiceError` on worker death/timeouts, ``RuntimeError`` on
        a worker-side exception.
        """
        self.send(worker, command, payload)
        kind, value = self.collect(worker)
        if kind == "ok":
            return value
        if kind == "fallback":
            reason, message = value
            raise IncrementalFallback(reason, message)
        raise RuntimeError(f"shard {worker.index} worker error: {value}")

    def broadcast(self, command: str, payloads, *, per_worker: bool = False,
                  tolerate_death: bool = False) -> List[Any]:
        """Send to every live worker first, then collect — true parallelism.

        ``payloads`` is one shared payload, or (``per_worker=True``) a list
        indexed by shard.  Responses are unwrapped like :meth:`request`; the
        first fallback or error wins, but every outstanding response is
        drained first so the queues stay aligned with the command stream.
        With ``tolerate_death=True`` a worker dying mid-broadcast is only
        *marked* failed (for later respawn) instead of failing the call —
        used when staging deltas, where the surviving replicas must keep up
        regardless.
        """
        targets = [worker for worker in self.workers if not worker.failed]
        if not targets:
            raise ServiceError(
                "fleet-worker-died",
                "no live shard workers remain; the fleet must be reloaded",
                503)
        for worker in targets:
            self.send(worker, command,
                      payloads[worker.index] if per_worker else payloads)
        outcomes: List[Any] = []
        first_error: Optional[BaseException] = None
        for worker in targets:
            try:
                kind, value = self.collect(worker)
            except ServiceError as error:
                if not tolerate_death and first_error is None:
                    first_error = error
                continue
            if kind == "ok":
                outcomes.append(value)
            elif kind == "fallback" and first_error is None:
                reason, message = value
                first_error = IncrementalFallback(reason, message)
            elif kind == "error" and first_error is None:
                first_error = RuntimeError(
                    f"shard {worker.index} worker error: {value}")
        if first_error is not None:
            raise first_error
        return outcomes

    # -- introspection --------------------------------------------------------
    @property
    def live_workers(self) -> int:
        return sum(1 for worker in self.workers
                   if not worker.failed and worker.process is not None
                   and worker.process.is_alive())

    def health(self) -> Dict[str, Any]:
        """Cheap coordinator-side fleet health (no worker round-trips)."""
        return {
            "shards": self.shards,
            "workers_alive": self.live_workers,
            "workers_loaded": sum(1 for w in self.workers if w.loaded),
            "respawns": self.respawns,
            "pids": [worker.process.pid if worker.process is not None else None
                     for worker in self.workers],
        }
