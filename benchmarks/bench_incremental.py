#!/usr/bin/env python3
"""B13 — incremental revalidation: journal + retraction vs full re-runs.

PR 5 adds a change journal to the graph, a reverse-reachability closure over
the reference graph and a sound retraction protocol in the shared validation
context, so that after k of N subjects mutate, ``Validator.revalidate``
re-runs only the affected region instead of rebuilding everything.  This
benchmark measures that on the community workload (one reference-graph SCC
per community): mutating a member dirties its community — and, through the
``foaf:knows @<Person>`` cascade, exactly its community — so the affected
closure stays k-proportional while the graph grows.

Two checks gate every timing:

* verdict agreement: the delta-updated report must equal a fresh full
  ``validate_graph`` on the mutated graph, entry for entry, and the ground
  truth of untouched communities must be preserved,
* on full runs, a ≥5× speedup (``--min-speedup``) of ``revalidate`` over a
  fresh full validation at the smallest k (k ≪ N).

Usage::

    PYTHONPATH=src python benchmarks/bench_incremental.py            # full run
    PYTHONPATH=src python benchmarks/bench_incremental.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_incremental.py --json out.json

Exit status: 0 on success, 1 on any verdict mismatch or (full runs) a missed
speedup threshold.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from repro.rdf import FOAF, Literal, Triple
from repro.shex import Validator
from repro.workloads import generate_community_workload

sys.setrecursionlimit(100_000)


def _verdicts(report):
    return {(entry.node, str(entry.label)): entry.conforms for entry in report}


def run_mutation_round(num_communities: int, people: int, k: int,
                       seed: int) -> dict:
    """Mutate ``k`` subjects of an N-subject graph; time incremental vs full.

    The mutation adds a duplicate ``foaf:age`` to one valid member of ``k``
    distinct communities (applied as one batch, so the journal coalesces it
    into a single generation step).  The incremental arm consumes the journal
    through ``revalidate``; the full arm validates the *same mutated graph*
    from scratch with a fresh validator — both see identical warm
    neighbourhood caches, so the comparison isolates the validation work.
    """
    workload = generate_community_workload(
        num_communities=num_communities, people_per_community=people, seed=seed)
    graph, schema = workload.graph, workload.schema
    validator = Validator(graph, schema)
    gc.collect()
    start = time.perf_counter()
    validator.validate_graph()
    baseline_s = time.perf_counter() - start
    # untimed warm-up round: one mutate → revalidate → undo → revalidate
    # cycle pays every one-time cost (partition module import, lazy memos)
    # and restores the exact baseline state before the measured round
    probe = Triple(workload.valid_nodes[-1], FOAF.age, Literal(498))
    graph.add(probe)
    warmup = validator.revalidate()
    assert not warmup.full_rebuild
    graph.remove(probe)
    warmup = validator.revalidate()
    assert not warmup.full_rebuild

    # one victim in each of k distinct communities
    victims = []
    seen_communities = set()
    for node in workload.valid_nodes:
        community = str(node.value).rsplit("_", 1)[0]
        if community not in seen_communities:
            seen_communities.add(community)
            victims.append(node)
        if len(victims) == k:
            break
    assert len(victims) == k, "not enough communities for the requested k"
    graph.add_all(Triple(victim, FOAF.age, Literal(499)) for victim in victims)

    gc.collect()
    start = time.perf_counter()
    result = validator.revalidate()
    incremental_s = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    fresh = Validator(graph, schema).validate_graph()
    full_s = time.perf_counter() - start

    incremental = _verdicts(result.report)
    agree = incremental == _verdicts(fresh) \
        and result.report.typing == fresh.typing
    # untouched communities keep their ground truth; mutated communities
    # cascade to invalid through the knows reference ring
    mutated = {str(v.value).rsplit("_", 1)[0] for v in victims}
    ground_truth_ok = all(
        incremental[(node, "Person")] == (node in set(workload.valid_nodes))
        for node in workload.all_nodes
        if str(node.value).rsplit("_", 1)[0] not in mutated
    ) and all(not incremental[(victim, "Person")] for victim in victims)

    stats = result.stats()
    return {
        "communities": num_communities,
        "people_per_community": people,
        "subjects": len(workload.all_nodes),
        "triples": len(graph),
        "k": k,
        "dirty_subjects": stats["dirty_subjects"],
        "affected_nodes": stats["affected_nodes"],
        "revalidated_pairs": stats["revalidated_pairs"],
        "reused_pairs": stats["reused_pairs"],
        "full_rebuild": bool(result.full_rebuild),
        "baseline_s": baseline_s,
        "incremental_s": incremental_s,
        "full_s": full_s,
        "speedup": full_s / incremental_s if incremental_s else float("inf"),
        "agree": agree,
        "ground_truth_ok": ground_truth_ok,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, agreement checks only (CI smoke run)")
    parser.add_argument("--communities", type=int, default=None,
                        help="number of communities (default: 8 quick, 48 full)")
    parser.add_argument("--people", type=int, default=None,
                        help="people per community (default: 8 quick, 12 full)")
    parser.add_argument("--edits", type=int, nargs="*",
                        help="explicit k values (mutated subjects per round)")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="fail a full run below this incremental-vs-full "
                             "speedup at the smallest k (default 5.0)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the result rows as JSON (CI artifact)")
    args = parser.parse_args(argv)

    communities = args.communities or (8 if args.quick else 48)
    people = args.people or (8 if args.quick else 12)
    edits = args.edits or ([1, 2] if args.quick else [1, 4, 16])

    print(f"{'subjects':>9} {'k':>4} {'affected':>9} {'full':>9} "
          f"{'incremental':>12} {'speedup':>8}")
    ok = True
    rows = []
    for k in edits:
        row = run_mutation_round(communities, people, k, args.seed)
        rows.append(row)
        print(f"{row['subjects']:>9} {row['k']:>4} {row['affected_nodes']:>9} "
              f"{row['full_s'] * 1000:>7.1f}ms "
              f"{row['incremental_s'] * 1000:>10.1f}ms "
              f"{row['speedup']:>7.2f}x")
        if row["full_rebuild"]:
            print(f"  !! k={k}: revalidate fell back to a full rebuild",
                  file=sys.stderr)
            ok = False
        if not row["agree"]:
            print(f"  !! k={k}: incremental verdicts disagree with a fresh "
                  "full run", file=sys.stderr)
            ok = False
        if not row["ground_truth_ok"]:
            print(f"  !! k={k}: verdicts disagree with ground truth",
                  file=sys.stderr)
            ok = False

    speedup_checked = False
    if rows and not args.quick:
        speedup_checked = True
        smallest = min(rows, key=lambda row: row["k"])
        if smallest["speedup"] < args.min_speedup:
            print(f"!! speedup {smallest['speedup']:.2f}x at k={smallest['k']} "
                  f"below the {args.min_speedup:.1f}x threshold",
                  file=sys.stderr)
            ok = False

    if args.json:
        payload = {
            "benchmark": "incremental",
            "quick": args.quick,
            "min_speedup": args.min_speedup,
            "speedup_checked": speedup_checked,
            "rounds": rows,
            "ok": ok,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
