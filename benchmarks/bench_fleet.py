#!/usr/bin/env python3
"""B16 — resident shard fleet: warm delta rounds against the serial session.

:class:`~repro.service.sharding.ShardedValidator` runs on a *resident*
fleet: shard worker processes live for the session, each owning a
shard-local graph replica, change journal and maintained baseline, so a
delta round is a pair of queue round-trips.  This benchmark drives a
``shards=2`` session and a serial one through the same session API:

* **round timings** (reported, not gated): identical community workloads
  take the same sequence of delta + full-verdict-sweep rounds through both
  sessions; the mean round wall time of each is reported,
* **per-round byte identity** (gates every run): each round's
  :class:`DeltaResponse` and every default (reason-less) verdict response
  must serialise byte-identically across the serial and ``--shards 2``
  sessions,
* **fleet health** (gates every run): the resident fleet must finish with
  zero respawns and the same worker pids it started with,
* **kill-one-worker heal round** (gates every run): after SIGKILLing one
  shard worker, degraded reads (``allow_degraded``) must answer from the
  surviving shard and the coordinator baseline *without blocking on the
  dead shard or triggering a respawn*; the next delta round must heal the
  fleet (respawn + warm load) and converge to verdicts byte-identical to
  a never-killed serial session.  Heal latency is reported as the wall
  time of that first post-kill round.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py            # full run
    PYTHONPATH=src python benchmarks/bench_fleet.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_fleet.py --json BENCH_fleet.json

Exit status: 0 on success, 1 on any byte mismatch, fleet respawn or failed
heal round.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from repro.service import (
    DeltaRequest,
    FaultPlan,
    FaultSpec,
    ServiceError,
    ValidationSession,
)
from repro.service.fleet import shard_of
from repro.workloads import generate_community_workload, person_schema

sys.setrecursionlimit(100_000)

FOAF_AGE = "<http://xmlns.com/foaf/0.1/age>"
FOAF_NAME = "<http://xmlns.com/foaf/0.1/name>"
XSD_INT = "<http://www.w3.org/2001/XMLSchema#integer>"


def _workload(scale: int, seed: int):
    return generate_community_workload(num_communities=max(scale // 8, 2),
                                       people_per_community=8, seed=seed)


def _round_delta(nodes, round_index):
    """One reversible mutation per round touching two subjects (so the
    restricted re-run is non-trivial on both shards with high odds):
    break a person with a duplicate age on even rounds, repair them on odd
    rounds, and always add a valid-preserving alias to a second person."""
    victim = nodes[round_index % len(nodes)]
    extra = nodes[(round_index + 7) % len(nodes)]
    breaking = f'{victim.n3()} {FOAF_AGE} "9999"^^{XSD_INT} .\n'
    naming = f'{extra.n3()} {FOAF_NAME} "Alias{round_index}" .\n'
    if round_index % 2 == 0:
        return naming + breaking, ""
    return naming, breaking


def _verdict_blob(session, nodes):
    return tuple(json.dumps(session.verdict(node.n3()).to_json(),
                            sort_keys=True) for node in nodes)


def run_fleet_rounds(scale: int, rounds: int, seed: int) -> dict:
    """Identical delta + verdict-sweep rounds through a serial and a
    resident ``shards=2`` session; both are timed."""
    modes = [("serial", {}), ("resident", {"shards": 2})]
    sessions = {}
    for name, kwargs in modes:
        workload = _workload(scale, seed)
        sessions[name] = ValidationSession(workload.graph, person_schema(),
                                           **kwargs)
    nodes = sorted(_workload(scale, seed).all_nodes,
                   key=lambda term: term.value)

    byte_mismatches = 0
    times = {name: [] for name, _ in modes}
    try:
        for session in sessions.values():
            session.validate()
        fleet_before = sessions["resident"].stats().to_json()["fleet"]

        for round_index in range(rounds):
            add, remove = _round_delta(nodes, round_index)
            request = DeltaRequest(add=add, remove=remove)
            responses = {}
            blobs = {}
            for name, session in sessions.items():
                start = time.perf_counter()
                response = session.apply_delta(request)
                blob = _verdict_blob(session, nodes)
                elapsed = time.perf_counter() - start
                responses[name] = json.dumps(response.to_json(),
                                             sort_keys=True)
                blobs[name] = blob
                times[name].append(elapsed)
            if len(set(responses.values())) != 1 or len(set(blobs.values())) != 1:
                byte_mismatches += 1

        fleet_after = sessions["resident"].stats().to_json()["fleet"]
    finally:
        for session in sessions.values():
            session.close()

    return {
        "workload": "community",
        "nodes": len(nodes),
        "rounds": rounds,
        "shards": 2,
        "resident_round_ms": round(statistics.mean(times["resident"]) * 1e3, 3),
        "serial_round_ms": round(statistics.mean(times["serial"]) * 1e3, 3),
        "byte_identical": byte_mismatches == 0,
        "byte_mismatch_rounds": byte_mismatches,
        "fleet_pids_stable": fleet_before.get("pids")
        == fleet_after.get("pids"),
        "fleet_respawns": fleet_after.get("respawns", 0),
        "fleet_worker_rounds": [worker.get("rounds", 0) for worker
                                in fleet_after.get("workers", [])],
    }


def run_heal_round(scale: int, seed: int) -> dict:
    """Kill one resident worker mid-round, exercise degraded reads during
    the outage, then measure how long the idempotent retry takes to heal
    the fleet and converge back to serial-identical verdicts.

    The kill is a seeded :class:`FaultSpec` (the shard 0 worker
    ``os._exit``\\ s just before its second revalidation) rather than an
    external SIGKILL, because only a mid-round death leaves the stale
    baseline window where degraded reads matter — a worker killed between
    rounds is healed by the next write before anyone notices."""
    plan = FaultPlan(specs=(
        FaultSpec(point="fleet.crash-before-revalidate", shard=0,
                  hits=(1,)),), seed=seed)
    workload = _workload(scale, seed)
    serial_workload = _workload(scale, seed)
    session = ValidationSession(workload.graph, person_schema(), shards=2,
                                fault_plan=plan,
                                fleet_response_timeout=30.0)
    serial = ValidationSession(serial_workload.graph, person_schema())
    nodes = sorted(workload.all_nodes, key=lambda term: term.value)
    result: dict = {"workload": "community", "nodes": len(nodes),
                    "shards": 2, "fault_plan": plan.to_json()}
    try:
        session.validate()
        serial.validate()

        # one warm round first, so heal latency is measured against a
        # settled fleet and the serial twin stays in lock-step
        add, remove = _round_delta(nodes, 0)
        start = time.perf_counter()
        session.apply_delta(DeltaRequest(add=add, remove=remove))
        result["warm_round_ms"] = round((time.perf_counter() - start) * 1e3,
                                        3)
        serial.apply_delta(DeltaRequest(add=add, remove=remove))

        # round 1: the shard 0 worker dies before revalidating — the
        # delta is applied but the round surfaces a typed 503
        add, remove = _round_delta(nodes, 1)
        request = DeltaRequest(add=add, remove=remove, delta_id="heal-1")
        killed = False
        try:
            session.apply_delta(request)
        except ServiceError as error:
            killed = error.code == "fleet-worker-died"
        result["worker_killed"] = killed

        # degraded reads during the outage: one node owned by the dead
        # shard, one by the survivor.  Neither may block on the corpse
        # (the fleet timeout is 30s; anything near it means we waited on
        # the dead worker) and neither may trigger a heal — degraded
        # reads are read-only by contract.
        respawns_before = session.health()["fleet"]["respawns"]
        dead_node = next(n for n in nodes if shard_of(n, 2) == 0)
        live_node = next(n for n in nodes if shard_of(n, 2) == 1)
        start = time.perf_counter()
        dead_verdict = session.verdict(dead_node.n3(), allow_degraded=True)
        live_verdict = session.verdict(live_node.n3(), allow_degraded=True)
        degraded_ms = (time.perf_counter() - start) * 1e3
        result["degraded_read_ms"] = round(degraded_ms, 3)
        result["degraded_reads_answered"] = (
            dead_verdict.conforms is not None
            and live_verdict.conforms is not None
            and 0 in (dead_verdict.missing_shards or ())
            and 0 in (live_verdict.missing_shards or ()))
        result["degraded_reads_blocked"] = degraded_ms > 2_000.0
        result["degraded_reads_respawned"] = \
            session.health()["fleet"]["respawns"] != respawns_before

        # the idempotent retry heals: respawn + warm load + converge,
        # without re-applying the already-applied delta
        start = time.perf_counter()
        session.apply_delta(request)
        result["heal_round_ms"] = round((time.perf_counter() - start) * 1e3,
                                        3)
        serial.apply_delta(DeltaRequest(add=add, remove=remove))
        health = session.health()["fleet"]
        result["respawns"] = health["respawns"]
        result["workers_alive"] = health["workers_alive"]
        result["byte_identical_after_heal"] = \
            _verdict_blob(session, nodes) == _verdict_blob(serial, nodes)
    finally:
        session.close()
        serial.close()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke scale")
    parser.add_argument("--json", metavar="PATH",
                        help="write the result table to PATH as JSON")
    parser.add_argument("--rounds", type=int, default=None,
                        help="delta + verdict-sweep rounds per mode")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    scale, rounds = (24, 3) if args.quick else (64, 10)
    rounds = args.rounds if args.rounds is not None else rounds

    print(f"== resident fleet vs serial session "
          f"(scale={scale}, rounds={rounds}, shards=2) ==")
    row = run_fleet_rounds(scale, rounds, args.seed)
    print(f"  resident round : {row['resident_round_ms']}ms mean "
          f"(delta + {row['nodes']}-verdict sweep)")
    print(f"  serial round   : {row['serial_round_ms']}ms mean")
    print(f"  checks         : "
          f"(byte_identical={row['byte_identical']}, "
          f"pids_stable={row['fleet_pids_stable']}, "
          f"respawns={row['fleet_respawns']})")

    print(f"== kill-one-worker heal round (scale={scale}, shards=2) ==")
    heal = run_heal_round(scale, args.seed)
    print(f"  warm round     : {heal['warm_round_ms']}ms")
    print(f"  degraded reads : {heal['degraded_read_ms']}ms during outage "
          f"(answered={heal['degraded_reads_answered']}, "
          f"respawned={heal['degraded_reads_respawned']})")
    print(f"  heal round     : {heal['heal_round_ms']}ms "
          f"(respawns={heal['respawns']}, "
          f"byte_identical={heal['byte_identical_after_heal']})")

    failures = []
    if not row["byte_identical"]:
        failures.append(f"{row['byte_mismatch_rounds']} rounds were not "
                        "byte-identical across serial/resident")
    if not row["fleet_pids_stable"]:
        failures.append("resident fleet pids changed mid-benchmark")
    if row["fleet_respawns"]:
        failures.append(f"resident fleet respawned {row['fleet_respawns']} "
                        "workers")
    if not heal["worker_killed"]:
        failures.append("fault injection did not kill the shard 0 worker")
    if not heal["degraded_reads_answered"]:
        failures.append("degraded reads during the outage did not answer "
                        "with verdicts + missing_shards")
    if heal["degraded_reads_blocked"]:
        failures.append(f"degraded reads took {heal['degraded_read_ms']}ms "
                        "— they blocked on the dead shard")
    if heal["degraded_reads_respawned"]:
        failures.append("degraded reads triggered a fleet respawn; reads "
                        "must never heal")
    if not heal["respawns"]:
        failures.append("the retry round did not respawn the dead worker")
    if not heal["byte_identical_after_heal"]:
        failures.append("post-heal verdicts diverged from the serial twin")

    result = {
        "benchmark": "fleet",
        "quick": args.quick,
        "fleet_rounds": row,
        "heal_round": heal,
        "failures": failures,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
        print(f"wrote {args.json}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
