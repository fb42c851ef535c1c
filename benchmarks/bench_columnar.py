#!/usr/bin/env python3
"""B14 — columnar term store: memory, scan throughput and verdict identity.

PR 6 adds a dictionary-encoded columnar storage backend: a ``TermDictionary``
interning every term to a dense integer id and a ``ColumnarGraph`` whose
SPO/POS/OSP indexes are sorted ``array('q')`` segments with binary-search
neighbourhood scans and streaming N-Triples ingest.  This benchmark compares
the two backends on identical data:

* **verdict identity** (gates every run): validating the sparse, person and
  community workloads must produce entry-for-entry identical reports and
  typings on both stores,
* **memory footprint**: tracemalloc-measured resident bytes per triple when
  each store is built from the same serialized N-Triples (full runs gate a
  ≥3× columnar advantage on the community workload, ``--min-memory-ratio``),
* **neighbourhood-scan throughput**: cold ``neighbourhood_any`` scans over
  every node with per-store caches cleared each round (full runs gate a ≥2×
  columnar speedup, ``--min-scan-speedup``),
* **streaming ingest** (full runs): a synthetic N-Triples stream is fed
  line-by-line into ``ColumnarGraph.ingest_ntriples``; the peak decoded tail
  must stay bounded by one segment.

Usage::

    PYTHONPATH=src python benchmarks/bench_columnar.py            # full run
    PYTHONPATH=src python benchmarks/bench_columnar.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_columnar.py --json out.json

Exit status: 0 on success, 1 on any verdict mismatch or (full runs) a missed
memory / scan threshold.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import tracemalloc

from repro.rdf import ColumnarGraph, Graph, serialize_ntriples
from repro.shex import Validator
from repro.workloads import generate_community_workload, generate_person_workload

sys.setrecursionlimit(100_000)


def _verdicts(report):
    return {(entry.node, str(entry.label)): entry.conforms for entry in report}


def _workload(kind: str, scale: int, seed: int, store: str):
    if kind == "sparse":
        return generate_person_workload(num_people=scale, knows_probability=0.0,
                                        seed=seed, store=store)
    if kind == "person":
        return generate_person_workload(num_people=scale, seed=seed, store=store)
    return generate_community_workload(num_communities=max(scale // 8, 2),
                                       people_per_community=8, seed=seed,
                                       store=store)


def run_verdict_round(kind: str, scale: int, seed: int) -> dict:
    """Validate the same workload on both stores; reports must be identical."""
    rows = {}
    for store in ("dict", "columnar"):
        workload = _workload(kind, scale, seed, store)
        validator = Validator(workload.graph, workload.schema)
        gc.collect()
        start = time.perf_counter()
        report = validator.validate_graph()
        elapsed = time.perf_counter() - start
        truth_ok = all(
            _verdicts(report)[(node, "Person")] == (node in set(workload.valid_nodes))
            for node in workload.all_nodes)
        rows[store] = {"verdicts": _verdicts(report), "typing": report.typing,
                       "seconds": elapsed, "truth_ok": truth_ok,
                       "triples": len(workload.graph)}
    agree = (rows["dict"]["verdicts"] == rows["columnar"]["verdicts"]
             and rows["dict"]["typing"] == rows["columnar"]["typing"])
    return {
        "workload": kind,
        "triples": rows["dict"]["triples"],
        "pairs": len(rows["dict"]["verdicts"]),
        "dict_s": rows["dict"]["seconds"],
        "columnar_s": rows["columnar"]["seconds"],
        "agree": agree,
        "ground_truth_ok": rows["dict"]["truth_ok"] and rows["columnar"]["truth_ok"],
    }


def run_memory_round(scale: int, seed: int) -> dict:
    """Build both stores from the same N-Triples text inside tracemalloc."""
    source = _workload("community", scale, seed, "dict")
    data = serialize_ntriples(source.graph)
    triples = len(source.graph)
    del source
    usage = {}
    for store in ("dict", "columnar"):
        gc.collect()
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        if store == "dict":
            graph = Graph.parse(data, format="ntriples")
        else:
            graph = ColumnarGraph()
            graph.ingest_ntriples(data.splitlines())
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        usage[store] = max(after - before, 1)
        del graph
    ratio = usage["dict"] / usage["columnar"]
    return {
        "triples": triples,
        "dict_bytes": usage["dict"],
        "columnar_bytes": usage["columnar"],
        "dict_bytes_per_triple": usage["dict"] / triples,
        "columnar_bytes_per_triple": usage["columnar"] / triples,
        "memory_ratio": ratio,
    }


def run_scan_round(scale: int, seed: int, repeats: int) -> dict:
    """Cold neighbourhood scans: materialise ``Σgₙ`` for every node.

    Each round clears the per-store neighbourhood caches, then times
    ``neighbourhood_any`` across all subject nodes — the exact store call
    validation makes when it first touches a node.  Best-of-``repeats``
    throughput is reported for both stores (consuming the result afterwards
    costs the same on either store and is the caller's business).
    """
    graphs = {}
    nodes_scanned = triples_visited = 0
    for store in ("dict", "columnar"):
        graph = _workload("community", scale, seed, store).graph
        nodes = [node for node in graph.nodes() if graph.degree(node)]
        nodes_scanned = len(nodes)
        triples_visited = sum(graph.degree(node) for node in nodes)
        graphs[store] = (graph, nodes)

    def cold_sweep(store: str) -> float:
        graph, nodes = graphs[store]
        graph._neigh_sets.clear()
        graph._neigh_ordered.clear()
        getattr(graph, "_neigh_any", {}).clear()
        scan = graph.neighbourhood_any
        start = time.perf_counter()
        for node in nodes:
            scan(node)
        elapsed = time.perf_counter() - start
        return triples_visited / elapsed if elapsed else float("inf")

    # interleave the rounds so CPU frequency drift hits both stores alike
    rates = {"dict": 0.0, "columnar": 0.0}
    gc.disable()
    try:
        for _ in range(repeats):
            for store in rates:
                rates[store] = max(rates[store], cold_sweep(store))
    finally:
        gc.enable()
    return {
        "nodes_scanned": nodes_scanned,
        "triples_visited": triples_visited,
        "dict_triples_per_s": rates["dict"],
        "columnar_triples_per_s": rates["columnar"],
        "scan_speedup": rates["columnar"] / rates["dict"],
    }


def run_ingest_round(num_triples: int) -> dict:
    """Stream a synthetic N-Triples file; the decoded tail stays one segment."""

    def lines():
        person = 0
        emitted = 0
        while emitted < num_triples:
            subject = f"<http://example.org/person{person}>"
            yield (f"{subject} <http://xmlns.com/foaf/0.1/age> "
                   f'"{20 + person % 70}"'
                   "^^<http://www.w3.org/2001/XMLSchema#integer> .")
            emitted += 1
            if emitted < num_triples:
                yield (f"{subject} <http://xmlns.com/foaf/0.1/name> "
                       f'"Person {person}" .')
                emitted += 1
            person += 1

    graph = ColumnarGraph()
    gc.collect()
    start = time.perf_counter()
    ingested = graph.ingest_ntriples(lines())
    elapsed = time.perf_counter() - start
    stats = graph.store_stats()
    return {
        "triples": ingested,
        "seconds": elapsed,
        "triples_per_s": ingested / elapsed if elapsed else float("inf"),
        "segments": stats["segments"],
        "segment_size": stats["segment_size"],
        "peak_tail_rows": stats["peak_tail_rows"],
        "tail_bounded": stats["peak_tail_rows"] <= stats["segment_size"],
        "index_bytes": stats["index_bytes"],
        "bytes_per_triple": stats["index_bytes"] / max(ingested, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, verdict gates only (CI smoke run)")
    parser.add_argument("--scale", type=int, default=None,
                        help="workload size knob (default: 24 quick, 96 full)")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--repeats", type=int, default=7,
                        help="scan-throughput rounds, best-of (default 7)")
    parser.add_argument("--ingest-triples", type=int, default=1_000_000,
                        help="streaming-ingest size for full runs "
                             "(default 1,000,000)")
    parser.add_argument("--min-memory-ratio", type=float, default=3.0,
                        help="fail a full run when dict resident bytes per "
                             "triple are not at least this multiple of "
                             "columnar's (default 3.0)")
    parser.add_argument("--min-scan-speedup", type=float, default=2.0,
                        help="fail a full run below this columnar-vs-dict "
                             "cold-scan speedup (default 2.0)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the result rows as JSON (CI artifact)")
    args = parser.parse_args(argv)

    scale = args.scale or (24 if args.quick else 96)
    ok = True
    payload = {"benchmark": "columnar", "quick": args.quick, "scale": scale,
               "min_memory_ratio": args.min_memory_ratio,
               "min_scan_speedup": args.min_scan_speedup}

    print(f"{'workload':>10} {'triples':>8} {'dict':>9} "
          f"{'columnar':>9} {'agree':>6}")
    verdict_rows = []
    for kind in ("sparse", "person", "community"):
        row = run_verdict_round(kind, scale, args.seed)
        verdict_rows.append(row)
        print(f"{row['workload']:>10} {row['triples']:>8} "
              f"{row['dict_s'] * 1000:>7.1f}ms "
              f"{row['columnar_s'] * 1000:>7.1f}ms "
              f"{'yes' if row['agree'] else 'NO':>6}")
        if not row["agree"]:
            print(f"  !! {kind}: stores disagree", file=sys.stderr)
            ok = False
        if not row["ground_truth_ok"]:
            print(f"  !! {kind}: verdicts disagree with ground truth",
                  file=sys.stderr)
            ok = False
    payload["verdict_rounds"] = verdict_rows

    memory = run_memory_round(scale, args.seed)
    payload["memory"] = memory
    print(f"memory: dict {memory['dict_bytes_per_triple']:.0f} B/triple, "
          f"columnar {memory['columnar_bytes_per_triple']:.0f} B/triple "
          f"({memory['memory_ratio']:.2f}x)")

    scan = run_scan_round(scale, args.seed, args.repeats)
    payload["scan"] = scan
    print(f"scan: dict {scan['dict_triples_per_s']:,.0f} triples/s, "
          f"columnar {scan['columnar_triples_per_s']:,.0f} triples/s "
          f"({scan['scan_speedup']:.2f}x)")

    gates_checked = not args.quick
    if gates_checked:
        if memory["memory_ratio"] < args.min_memory_ratio:
            print(f"!! memory ratio {memory['memory_ratio']:.2f}x below the "
                  f"{args.min_memory_ratio:.1f}x threshold", file=sys.stderr)
            ok = False
        if scan["scan_speedup"] < args.min_scan_speedup:
            print(f"!! scan speedup {scan['scan_speedup']:.2f}x below the "
                  f"{args.min_scan_speedup:.1f}x threshold", file=sys.stderr)
            ok = False
        ingest = run_ingest_round(args.ingest_triples)
        payload["ingest"] = ingest
        print(f"ingest: {ingest['triples']:,} triples in "
              f"{ingest['seconds']:.1f}s "
              f"({ingest['triples_per_s']:,.0f} triples/s, "
              f"{ingest['segments']} segments, "
              f"peak tail {ingest['peak_tail_rows']} rows)")
        if not ingest["tail_bounded"]:
            print("!! streaming ingest exceeded one segment of decoded tail",
                  file=sys.stderr)
            ok = False
    payload["gates_checked"] = gates_checked
    payload["ok"] = ok

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
