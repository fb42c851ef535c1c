#!/usr/bin/env python3
"""B9 — bulk validation: production vs the per-node ``reference=True`` oracle.

The seed implementation rebuilt a fresh ``ValidationContext`` for every
``(node, label)`` pair, so ``validate_graph`` / ``infer_typing`` re-validated
shared sub-structures from scratch — exactly the redundancy the Section 8
typing context was meant to eliminate.  That per-node run survives as the
reference (``Validator(reference=True)``: no compiled, signature or
derivative caches either).  This benchmark measures production against it:

* one **shared context** per run (confirmed/failed verdicts propagate),
* **hash-consed expressions** + the **global cross-node derivative cache**,
* **predicate-indexed cached neighbourhoods** in the graph,
* the compiled-schema prefilter and the signature cache.

Every configuration is checked against the workload's ground truth and
against the reference before any number is reported, so the speedup cannot
hide a verdict change.  On small sizes the backtracking engine is run
through the same production bulk path as an engine-agreement check.  Two
deterministic counter gates run on every size, quick runs included, so the
fast paths cannot stop firing unnoticed:

* the production derivative cache misses at most ``--max-cache-misses``
  times (default 7, the figure the committed ``BENCH_bulk_validation.json``
  records at every size: the workload has seven distinct derivatives);
* the engine runs at most once per distinct typed signature (the entries
  of the signature cache): every pair the greatest-fixpoint solve matches
  goes through the signature lane first.  The recursive descent this
  replaced ran the engine once per pair it reached.

Engine runs are counted in an untimed second production run whose engine
counts its calls; the timed run is the plain production ``Validator``.

Usage::

    PYTHONPATH=src python benchmarks/bench_bulk_validation.py          # full
    PYTHONPATH=src python benchmarks/bench_bulk_validation.py --quick  # CI smoke

Exit status: 0 on success, 1 when any verdict disagrees, a counter misses
its gate or the speedup on the largest size is below the --min-speedup
threshold (default 2.0).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.shex import BacktrackingEngine, DerivativeCache, DerivativeEngine, Validator
from repro.workloads import generate_person_workload

# the reference recurses one Python call stack per knows-hop (engine +
# context frames); the interpreter default of 1000 is too tight for it at
# the large sizes
sys.setrecursionlimit(100_000)


class _CountingEngine(DerivativeEngine):
    """The production derivatives engine, counting its neighbourhood matches."""

    def __init__(self):
        super().__init__(cache=DerivativeCache())
        self.runs = 0

    def match_neighbourhood(self, expr, triples, context=None):
        self.runs += 1
        return super().match_neighbourhood(expr, triples, context)


def _verdicts(report):
    return {(entry.node, str(entry.label)): entry.conforms for entry in report}


def run_size(num_people: int, seed: int, check_backtracking: bool) -> dict:
    """Validate one workload size with every configuration and time it."""
    workload = generate_person_workload(
        num_people=num_people, invalid_fraction=0.2, seed=seed)
    graph, schema = workload.graph, workload.schema
    expected = {
        (node, "Person"): node in set(workload.valid_nodes)
        for node in workload.all_nodes
    }

    start = time.perf_counter()
    baseline = Validator(graph, schema, reference=True)
    baseline_report = baseline.validate_graph()
    baseline_time = time.perf_counter() - start

    start = time.perf_counter()
    bulk = Validator(graph, schema)
    bulk_report = bulk.validate_graph()
    bulk_time = time.perf_counter() - start

    baseline_verdicts = _verdicts(baseline_report)
    bulk_verdicts = _verdicts(bulk_report)
    agree = baseline_verdicts == bulk_verdicts
    # the typings must agree too, not just the per-entry verdicts
    typing_agree = (baseline_report.typing.to_dict()
                    == bulk_report.typing.to_dict())
    ground_truth_ok = all(
        bulk_verdicts[key] == value for key, value in expected.items())

    counting = _CountingEngine()
    Validator(graph, schema, engine=counting).validate_graph()

    backtracking_ok = True
    if check_backtracking:
        bt = Validator(graph, schema, engine=BacktrackingEngine(budget=5_000_000))
        backtracking_ok = _verdicts(bt.validate_graph()) == bulk_verdicts

    return {
        "people": num_people,
        "triples": len(graph),
        "baseline_s": baseline_time,
        "bulk_s": bulk_time,
        "speedup": baseline_time / bulk_time if bulk_time else float("inf"),
        "cache": bulk.engine.cache.stats(),
        "engine_runs": counting.runs,
        "typed_signatures": len(bulk.signature_cache),
        "agree": agree,
        "typing_agree": typing_agree,
        "ground_truth_ok": ground_truth_ok,
        "backtracking_ok": backtracking_ok,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes only (CI smoke run)")
    parser.add_argument("--sizes", type=int, nargs="*",
                        help="explicit workload sizes (number of people)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="fail when the largest size is below this speedup")
    parser.add_argument("--max-cache-misses", type=int, default=7,
                        help="fail when the production derivative cache "
                             "misses more often than this at any size "
                             "(default 7, the committed figure)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the result rows as JSON (CI artifact)")
    args = parser.parse_args(argv)

    sizes = args.sizes or ([20, 40] if args.quick else [20, 60, 120, 240])

    print(f"{'people':>7} {'triples':>8} {'reference':>11} {'production':>11} "
          f"{'speedup':>8} {'cache misses':>13} {'engine runs':>12} "
          f"{'signatures':>11}")
    ok = True
    rows = []
    last_speedup = 0.0
    for size in sizes:
        row = run_size(size, args.seed, check_backtracking=size <= 20)
        rows.append(row)
        misses = row["cache"]["misses"]
        print(f"{row['people']:>7} {row['triples']:>8} "
              f"{row['baseline_s'] * 1000:>9.1f}ms {row['bulk_s'] * 1000:>9.1f}ms "
              f"{row['speedup']:>7.1f}x {misses:>13} {row['engine_runs']:>12} "
              f"{row['typed_signatures']:>11}")
        if not (row["agree"] and row["typing_agree"] and row["ground_truth_ok"]
                and row["backtracking_ok"]):
            print(f"  !! verdict mismatch at size {size}: agree={row['agree']} "
                  f"typing={row['typing_agree']} "
                  f"ground_truth={row['ground_truth_ok']} "
                  f"backtracking={row['backtracking_ok']}", file=sys.stderr)
            ok = False
        if misses > args.max_cache_misses:
            print(f"  !! {misses} derivative cache misses at size {size}, "
                  f"above the {args.max_cache_misses} gate", file=sys.stderr)
            ok = False
        if row["engine_runs"] > row["typed_signatures"]:
            print(f"  !! {row['engine_runs']} engine runs at size {size} for "
                  f"{row['typed_signatures']} distinct typed signatures",
                  file=sys.stderr)
            ok = False
        last_speedup = row["speedup"]

    if last_speedup < args.min_speedup:
        print(f"!! speedup {last_speedup:.1f}x below the "
              f"{args.min_speedup:.1f}x threshold", file=sys.stderr)
        ok = False

    if args.json:
        payload = {
            "benchmark": "bulk_validation",
            "quick": args.quick,
            "min_speedup": args.min_speedup,
            "max_cache_misses": args.max_cache_misses,
            "results": rows,
            "ok": ok,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
