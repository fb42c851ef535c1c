#!/usr/bin/env python3
"""B15 — validation-as-a-service: mixed traffic, warm-path speedup, identity.

PR 7 adds ``repro serve``: a stdlib HTTP server holding warm
:class:`~repro.service.session.ValidationSession`\\ s whose verdict queries
are answered from the maintained incremental baseline — never a fresh run.
This benchmark drives the service the way a client fleet would and gates the
claims:

* **mixed read/write traffic** (the headline numbers): a warm server holding
  the community workload takes sustained rounds of verdict GETs interleaved
  with delta POSTs; per-request wall latencies aggregate into p50/p99 and
  QPS for both operation classes,
* **verdict identity after every delta round** (gates every run): after each
  delta the full verdict set fetched over HTTP must match a fresh direct
  :class:`Validator` run on a replica graph mutated the same way, plus the
  workload's ground truth,
* **warm vs cold** (full runs gate ≥10×, ``--min-warm-speedup``): the mean
  warm verdict query — a baseline lookup through the session — against cold
  per-request validation (a fresh ``Validator`` + ``validate_node`` per
  query, what a stateless service would do),
* **byte identity across server modes** (gates every run): serial and
  ``--shards 2`` sessions must serialise every default
  (reason-less) verdict response byte-identically on the sparse, person and
  community workloads, before and after a delta.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py            # full run
    PYTHONPATH=src python benchmarks/bench_service.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_service.py --json BENCH_service.json

Exit status: 0 on success, 1 on any verdict/byte mismatch or (full runs) a
missed warm-path speedup threshold.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

from repro.rdf.ntriples import iter_ntriples
from repro.service import (
    DeltaRequest,
    ServiceClient,
    ValidationRequest,
    ValidationSession,
    serve,
)
from repro.shex import Validator
from repro.workloads import (
    generate_community_workload,
    generate_person_workload,
    person_schema,
)

sys.setrecursionlimit(100_000)

FOAF_AGE = "<http://xmlns.com/foaf/0.1/age>"
FOAF_NAME = "<http://xmlns.com/foaf/0.1/name>"
XSD_INT = "<http://www.w3.org/2001/XMLSchema#integer>"


def _workload(kind: str, scale: int, seed: int):
    if kind == "sparse":
        return generate_person_workload(num_people=scale, knows_probability=0.0,
                                        seed=seed)
    if kind == "person":
        return generate_person_workload(num_people=scale, seed=seed)
    return generate_community_workload(num_communities=max(scale // 8, 2),
                                       people_per_community=8, seed=seed)


def _percentile(samples, q):
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _latency_row(samples):
    return {
        "requests": len(samples),
        "mean_ms": round(statistics.mean(samples) * 1e3, 4) if samples else 0.0,
        "p50_ms": round(_percentile(samples, 0.50) * 1e3, 4),
        "p99_ms": round(_percentile(samples, 0.99) * 1e3, 4),
    }


def _round_delta(nodes, round_index):
    """One reversible mutation per round: break a person with a duplicate
    age on even rounds, repair them on odd rounds, and always add one
    valid-preserving extra name to a second person."""
    victim = nodes[round_index % len(nodes)]
    extra = nodes[(round_index + 7) % len(nodes)]
    breaking = (f'{victim.n3()} {FOAF_AGE} "9999"^^{XSD_INT} .\n')
    naming = (f'{extra.n3()} {FOAF_NAME} "Alias{round_index}" .\n')
    if round_index % 2 == 0:
        return naming + breaking, ""
    return naming, breaking


def run_mixed_traffic(scale: int, rounds: int, queries_per_round: int,
                      seed: int) -> dict:
    """Sustained read/write traffic against a warm server over real HTTP.

    Identity gate: after every delta round the complete verdict set fetched
    over the wire must equal a fresh direct run on an identically-mutated
    replica graph.
    """
    workload = _workload("community", scale, seed)
    replica = _workload("community", scale, seed)
    nodes = workload.all_nodes
    rng = random.Random(seed)

    verdict_latencies = []
    delta_latencies = []
    mismatches = 0
    wall_start = time.perf_counter()
    with serve(person_schema()) as server:
        server.start_background()
        setup = ServiceClient(server.host, server.port)
        graph_id = setup.load_graph(ValidationRequest(
            data=workload.graph.serialize("ntriples"),
            data_format="ntriples"))["graph_id"]

        for round_index in range(rounds):
            # a fresh client per round: every verdict GET is a cache miss,
            # so the latencies below are true server round-trips
            client = ServiceClient(server.host, server.port)
            for node in rng.sample(nodes, min(queries_per_round, len(nodes))):
                start = time.perf_counter()
                client.verdict(graph_id, node.n3())
                verdict_latencies.append(time.perf_counter() - start)

            add, remove = _round_delta(nodes, round_index)
            start = time.perf_counter()
            client.apply_delta(graph_id, DeltaRequest(add=add, remove=remove))
            delta_latencies.append(time.perf_counter() - start)

            replica.graph.add_all(iter_ntriples(add))
            if remove:
                replica.graph.remove_all(iter_ntriples(remove))
            direct = Validator(replica.graph, person_schema()).validate_graph()
            for entry in direct.entries:
                served = client.verdict(graph_id, entry.node.n3(),
                                        entry.label.name)
                if served.conforms != entry.conforms:
                    mismatches += 1
    wall = time.perf_counter() - wall_start

    total_requests = len(verdict_latencies) + len(delta_latencies)
    return {
        "workload": "community",
        "nodes": len(nodes),
        "triples": len(workload.graph),
        "rounds": rounds,
        "verdicts": _latency_row(verdict_latencies),
        "deltas": _latency_row(delta_latencies),
        "qps": round(total_requests / wall, 2) if wall else 0.0,
        "wall_s": round(wall, 3),
        "identity_ok": mismatches == 0,
        "mismatches": mismatches,
    }


def run_warm_vs_cold(scale: int, queries: int, seed: int) -> dict:
    """Warm baseline lookups vs cold per-request validation, same graph."""
    workload = _workload("community", scale, seed)
    nodes = workload.all_nodes
    rng = random.Random(seed)
    sample = [rng.choice(nodes) for _ in range(queries)]

    session = ValidationSession(workload.graph, workload.schema)
    session.validate()
    start = time.perf_counter()
    warm_verdicts = [session.verdict(node).conforms for node in sample]
    warm = time.perf_counter() - start

    cold_source = _workload("community", scale, seed)
    start = time.perf_counter()
    cold_verdicts = []
    for node in sample:
        validator = Validator(cold_source.graph, person_schema())
        cold_verdicts.append(validator.validate_node(node).conforms)
    cold = time.perf_counter() - start

    return {
        "queries": queries,
        "warm_mean_us": round(warm / queries * 1e6, 2),
        "cold_mean_us": round(cold / queries * 1e6, 2),
        "speedup": round(cold / warm, 1) if warm else float("inf"),
        "identity_ok": warm_verdicts == cold_verdicts,
    }


def run_byte_identity(kind: str, scale: int, seed: int) -> dict:
    """Serial and shards=2 sessions must serialise identically."""
    modes = [("serial", {}), ("shards2", {"shards": 2})]
    sessions = []
    for _, kwargs in modes:
        workload = _workload(kind, scale, seed)
        session = ValidationSession(workload.graph, workload.schema, **kwargs)
        session.validate()
        sessions.append(session)
    nodes = _workload(kind, scale, seed).all_nodes
    delta, _ = _round_delta(nodes, 0)

    def payloads():
        return [
            tuple(json.dumps(session.verdict(node.n3()).to_json(),
                             sort_keys=True) for node in nodes)
            for session in sessions
        ]

    before = payloads()
    for session in sessions:
        session.apply_delta(DeltaRequest(add=delta))
    after = payloads()
    for session in sessions:
        session.close()
    identical = before[0] == before[1] and after[0] == after[1]
    return {"workload": kind, "nodes": len(nodes), "byte_identical": identical}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke scale; thresholds reported, not gated")
    parser.add_argument("--json", metavar="PATH",
                        help="write the result table to PATH as JSON")
    parser.add_argument("--rounds", type=int, default=None,
                        help="delta rounds of mixed traffic")
    parser.add_argument("--queries", type=int, default=None,
                        help="verdict queries per round")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--min-warm-speedup", type=float, default=10.0,
                        help="required warm/cold ratio on full runs")
    args = parser.parse_args(argv)

    if args.quick:
        scale, rounds, queries = 24, 3, 30
    else:
        scale, rounds, queries = 64, 8, 150
    rounds = args.rounds if args.rounds is not None else rounds
    queries = args.queries if args.queries is not None else queries

    print(f"== mixed read/write traffic (scale={scale}, rounds={rounds}, "
          f"queries/round={queries}) ==")
    traffic = run_mixed_traffic(scale, rounds, queries, args.seed)
    print(f"  verdict GET : p50={traffic['verdicts']['p50_ms']}ms "
          f"p99={traffic['verdicts']['p99_ms']}ms "
          f"({traffic['verdicts']['requests']} requests)")
    print(f"  delta POST  : p50={traffic['deltas']['p50_ms']}ms "
          f"p99={traffic['deltas']['p99_ms']}ms "
          f"({traffic['deltas']['requests']} requests)")
    print(f"  overall     : {traffic['qps']} req/s over {traffic['wall_s']}s; "
          f"identity_ok={traffic['identity_ok']}")

    print("== warm baseline lookup vs cold per-request validation ==")
    warm_cold = run_warm_vs_cold(scale, queries, args.seed)
    print(f"  warm={warm_cold['warm_mean_us']}us "
          f"cold={warm_cold['cold_mean_us']}us "
          f"speedup={warm_cold['speedup']}x "
          f"identity_ok={warm_cold['identity_ok']}")

    byte_rows = []
    print("== byte identity across serial / --shards 2 ==")
    for kind in ("sparse", "person", "community"):
        row = run_byte_identity(kind, scale, args.seed)
        byte_rows.append(row)
        print(f"  {kind:<10} nodes={row['nodes']:<4} "
              f"byte_identical={row['byte_identical']}")

    failures = []
    if not traffic["identity_ok"]:
        failures.append(f"{traffic['mismatches']} verdict mismatches against "
                        "the fresh direct run")
    if not warm_cold["identity_ok"]:
        failures.append("warm and cold verdicts disagree")
    for row in byte_rows:
        if not row["byte_identical"]:
            failures.append(f"{row['workload']}: server modes are not "
                            "byte-identical")
    if not args.quick and warm_cold["speedup"] < args.min_warm_speedup:
        failures.append(f"warm-path speedup {warm_cold['speedup']}x is below "
                        f"the {args.min_warm_speedup}x threshold")

    result = {
        "benchmark": "service",
        "quick": args.quick,
        "mixed_traffic": traffic,
        "warm_vs_cold": warm_cold,
        "byte_identity": byte_rows,
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
