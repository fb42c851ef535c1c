#!/usr/bin/env python3
"""B12 — compiled-schema fast paths: production vs the ``reference=True`` oracle.

PR 4 adds a :class:`~repro.shex.compiled.CompiledSchema` precomputation
layer: per-label nullability, first/required-predicate sets, sound
cardinality bounds, value screens and predicate-indexed atom tables, all
computed once per schema.  This benchmark measures the end-to-end effect on
the workload the layer is designed for — **sparse mismatch**: a
knowledge-base-style graph where most ``(node, label)`` pairs are statically
undecidable-to-match (wrong predicates, violated cardinalities, screened
value types), so the prefilter settles them without ever touching the
derivative engine.

Production (compiled schema, signature and derivative caches, shared
context) is compared with the reference (a fresh context per node and none
of them).  Four checks gate the run:

* verdict agreement between production and the reference on the
  sparse-mismatch workload itself (plus its ground truth),
* verdict agreement on the person and community workloads,
* a deterministic counter gate on every run, quick ones included: the
  prefilter rejects at least ``--min-prefilter-rejects`` (default 1) pairs
  at every sparse-mismatch size, so the fast path cannot stop firing
  unnoticed,
* on full runs, a ≥2× end-to-end speedup (``--min-speedup``) of production
  over the reference on the largest sparse-mismatch size.

Usage::

    PYTHONPATH=src python benchmarks/bench_precompile.py            # full run
    PYTHONPATH=src python benchmarks/bench_precompile.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_precompile.py --json out.json

Exit status: 0 on success, 1 on any verdict mismatch, a missed counter gate
or (full runs) a missed speedup threshold.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time

from repro.rdf import EX, XSD, Graph, Literal, Triple
from repro.shex import Schema, Validator
from repro.workloads import generate_community_workload, generate_person_workload

sys.setrecursionlimit(100_000)

#: a small catalogue schema: five shapes over mostly-disjoint predicates,
#: one of them recursive through ``ex:vendor @<Vendor>``.
CATALOGUE_SHEXC = """\
PREFIX ex:  <http://example.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>

<Product> {
  ex:sku    xsd:string ,
  ex:price  xsd:integer ,
  ex:vendor @<Vendor> *
}
<Vendor> {
  ex:vname  xsd:string + ,
  ex:partner @<Vendor> *
}
<Reading> {
  ex:value  xsd:integer ,
  ex:unit   xsd:string
}
<Event> {
  ex:start  xsd:string ,
  ex:venue  xsd:string ,
  ex:grade  xsd:integer ?
}
<Review> {
  ex:stars  xsd:integer ,
  ex:text   xsd:string +
}
"""


def generate_sparse_mismatch(num_nodes: int, seed: int):
    """A graph where most nodes statically cannot match any catalogue shape.

    Node kinds (cycled deterministically):

    * ``alien``      — predicates no shape mentions (closed-world reject),
    * ``overfull``   — two ``ex:price`` arcs (cardinality reject),
    * ``missing``    — ``ex:sku`` only (required-predicate reject),
    * ``mistyped``   — ``ex:price`` carrying a string (value-screen reject),
    * ``product``    — a valid Product referencing a valid Vendor (the only
      nodes the engine genuinely has to run on).

    Returns ``(graph, schema, expected)`` where ``expected`` maps
    ``(node, label-string)`` to the ground-truth verdict.
    """
    rng = random.Random(seed)
    graph = Graph()
    schema = Schema.from_shexc(CATALOGUE_SHEXC)
    labels = ["Event", "Product", "Reading", "Review", "Vendor"]
    expected = {}

    vendor = EX["vendor0"]
    graph.add(Triple(vendor, EX.vname, Literal("ACME")))
    for label in labels:
        expected[(vendor, label)] = label == "Vendor"

    kinds = ["alien", "overfull", "missing", "mistyped", "product"]
    for index in range(num_nodes):
        node = EX[f"item{index}"]
        kind = kinds[index % len(kinds)]
        conforms = {label: False for label in labels}
        if kind == "alien":
            for arc_index in range(rng.randint(3, 6)):
                graph.add(Triple(node, EX[f"meta{arc_index}"],
                                 Literal(rng.randint(0, 9))))
        elif kind == "overfull":
            graph.add(Triple(node, EX.sku, Literal(f"sku-{index}")))
            price = rng.randint(1, 99)
            graph.add(Triple(node, EX.price, Literal(price)))
            graph.add(Triple(node, EX.price, Literal(price + 1)))
        elif kind == "missing":
            graph.add(Triple(node, EX.sku, Literal(f"sku-{index}")))
        elif kind == "mistyped":
            graph.add(Triple(node, EX.sku, Literal(f"sku-{index}")))
            graph.add(Triple(node, EX.price,
                             Literal(str(rng.randint(1, 99)), datatype=XSD.string)))
        else:  # a genuinely valid product
            graph.add(Triple(node, EX.sku, Literal(f"sku-{index}")))
            graph.add(Triple(node, EX.price, Literal(rng.randint(1, 99))))
            graph.add(Triple(node, EX.vendor, vendor))
            conforms["Product"] = True
        for label in labels:
            expected[(node, label)] = conforms[label]
    return graph, schema, expected


def _verdicts(report):
    return {(entry.node, str(entry.label)): entry.conforms for entry in report}


def run_sparse_size(num_nodes: int, seed: int) -> dict:
    """Time production vs the reference on one sparse-mismatch size.

    Each arm validates its own structurally identical graph (same generator,
    same seed) so neither inherits the other's neighbourhood caches: the
    timings are true end-to-end costs including schema compilation.
    """
    graph, schema, expected = generate_sparse_mismatch(num_nodes, seed)
    reference_graph, reference_schema, _ = generate_sparse_mismatch(num_nodes, seed)

    gc.collect()
    start = time.perf_counter()
    production_report = Validator(graph, schema).validate_graph()
    production_s = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    reference_report = Validator(reference_graph, reference_schema,
                             reference=True).validate_graph()
    reference_s = time.perf_counter() - start

    production_verdicts = _verdicts(production_report)
    stats = production_report.stats
    return {
        "nodes": num_nodes,
        "triples": len(graph),
        "pairs": len(production_report),
        "production_s": production_s,
        "reference_s": reference_s,
        "speedup": reference_s / production_s if production_s else float("inf"),
        "prefilter_accepts": stats.prefilter_accepts,
        "prefilter_rejects": stats.prefilter_rejects,
        "agree": production_verdicts == _verdicts(reference_report),
        "ground_truth_ok": all(
            production_verdicts[key] == value for key, value in expected.items()
        ),
    }


def run_agreement(quick: bool) -> list:
    """Verdict-check production vs the reference on the standard workloads."""
    person = generate_person_workload(num_people=30 if quick else 120, seed=7)
    community = generate_community_workload(
        num_communities=4 if quick else 12, seed=7)
    rows = []
    for name, workload in (("person", person), ("community", community)):
        production = Validator(workload.graph, workload.schema).validate_graph()
        reference = Validator(workload.graph, workload.schema,
                              reference=True).validate_graph()
        verdicts = _verdicts(production)
        rows.append({
            "workload": name,
            "pairs": len(production),
            "agree": verdicts == _verdicts(reference),
            "ground_truth_ok": all(
                verdicts[(node, "Person")] == (node in set(workload.valid_nodes))
                for node in workload.all_nodes
            ),
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, agreement checks only (CI smoke run)")
    parser.add_argument("--nodes", type=int, nargs="*",
                        help="explicit sparse-mismatch sizes (node counts)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="fail a full run below this production-vs-"
                             "reference speedup on the largest size "
                             "(default 2.0)")
    parser.add_argument("--min-prefilter-rejects", type=int, default=1,
                        help="fail any run in which a sparse-mismatch size "
                             "has fewer prefilter rejects (default 1)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the result rows as JSON (CI artifact)")
    args = parser.parse_args(argv)

    sizes = args.nodes or ([400] if args.quick else [1000, 4000])

    print(f"{'nodes':>7} {'triples':>8} {'pairs':>7} {'reference':>9} "
          f"{'production':>9} {'speedup':>8} {'rejected':>9}")
    ok = True
    sparse_rows = []
    for size in sizes:
        row = run_sparse_size(size, args.seed)
        sparse_rows.append(row)
        print(f"{row['nodes']:>7} {row['triples']:>8} {row['pairs']:>7} "
              f"{row['reference_s'] * 1000:>7.1f}ms {row['production_s'] * 1000:>7.1f}ms "
              f"{row['speedup']:>7.2f}x {row['prefilter_rejects']:>9}")
        if not row["agree"]:
            print(f"  !! production verdicts disagree with the reference "
                  f"at {size} nodes", file=sys.stderr)
            ok = False
        if row["prefilter_rejects"] < args.min_prefilter_rejects:
            print(f"  !! {row['prefilter_rejects']} prefilter rejects at "
                  f"{size} nodes, below the {args.min_prefilter_rejects} gate",
                  file=sys.stderr)
            ok = False
        if not row["ground_truth_ok"]:
            print(f"  !! verdicts disagree with ground truth at {size} nodes",
                  file=sys.stderr)
            ok = False

    agreement_rows = run_agreement(args.quick)
    for row in agreement_rows:
        status = "ok" if row["agree"] and row["ground_truth_ok"] else "MISMATCH"
        print(f"agreement {row['workload']:>10} "
              f"({row['pairs']} pairs): {status}")
        if status != "ok":
            print(f"  !! {row['workload']}: production and reference "
                  "verdicts (or ground truth) disagree", file=sys.stderr)
            ok = False

    speedup_checked = False
    if sparse_rows and not args.quick:
        speedup_checked = True
        final = sparse_rows[-1]
        if final["speedup"] < args.min_speedup:
            print(f"!! speedup {final['speedup']:.2f}x on the sparse-mismatch "
                  f"workload below the {args.min_speedup:.1f}x threshold",
                  file=sys.stderr)
            ok = False

    if args.json:
        payload = {
            "benchmark": "precompile",
            "quick": args.quick,
            "min_speedup": args.min_speedup,
            "min_prefilter_rejects": args.min_prefilter_rejects,
            "speedup_checked": speedup_checked,
            "sparse_mismatch": sparse_rows,
            "agreement": agreement_rows,
            "ok": ok,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
