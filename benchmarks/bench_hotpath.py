#!/usr/bin/env python3
"""B14 — hot path: neighbourhood-signature verdict dedupe end to end.

PR 10 adds a :class:`~repro.shex.cache.SignatureCache` that folds every
signature-closed subject onto its canonical neighbourhood signature and
serves repeat structures from a dictionary instead of the derivative
engine.  This benchmark measures that on the hub-heavy knowledge-base
workload (:func:`repro.workloads.generate_kb_workload`): thousands of
entities stamped from a few dozen structural templates, a handful of
power-law hubs referencing them, and facet-heavy constraints the compiled
value screen refuses, so every entity would reach the engine without the
cache.

Two arms compare production against the ``reference=True`` oracle (a fresh
context per node, no compiled, signature or derivative caches) — serial
bulk validation, and incremental revalidation after a wide mutation, which
the reference answers with a full rebuild.  Three checks gate the run:

* verdict identity: production and the reference agree on every
  ``(node, label)`` pair, in every arm,
* a deterministic counter gate on every run, quick ones included: the
  signature cache answers at least ``--min-hit-rate`` of the serial arm's
  lookups — by default 0.95 on full runs (the committed
  ``BENCH_hotpath.json`` shows 0.9595) and 0.69 on quick ones (0.6917 at
  the quick size) — so the fast path cannot stop firing unnoticed,
* on full runs, a ≥3× single-core end-to-end speedup (``--min-speedup``)
  of the production serial arm over the reference.

A small backtracking-engine round rides along so the per-phase profile in
the JSON artifact exercises every wall counter (``backtrack_time``
included); the artifact fails the run if any per-phase counter is zero.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py             # full run
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick     # CI smoke
    PYTHONPATH=src python benchmarks/bench_hotpath.py --json out.json

Exit status: 0 on success, 1 on any verdict mismatch, missed counter or
speedup gate (the latter on full runs only) or missing profile counter.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from repro.rdf import EX, Literal, Triple
from repro.service.session import collect_stats
from repro.shex import BacktrackingEngine, Validator
from repro.workloads import generate_kb_workload, generate_person_workload

sys.setrecursionlimit(100_000)

#: the per-phase wall counters the profile must populate.
_PHASE_COUNTERS = ("signature_time", "prefilter_time", "dispatch_time",
                   "backtrack_time", "cache_time")

#: the shapes a KB deployment actually targets: entities against <Entity>,
#: hubs against <Hub>.  The nullable <Note> shape is still exercised — every
#: hub's ``ex:seeAlso`` arcs resolve it through the reference machinery.
_LABELS = ("Entity", "Hub")


def _verdicts(report):
    return {(entry.node, str(entry.label)): entry.conforms for entry in report}


def _timed_full(workload, *, reference: bool):
    validator = Validator(workload.graph, workload.schema, reference=reference)
    gc.collect()
    start = time.perf_counter()
    report = validator.validate_graph(labels=_LABELS)
    return validator, report, time.perf_counter() - start


def run_full_arm(mode: str, scale: int, hubs: int, seed: int,
                 reps: int = 1) -> dict:
    """One production-vs-reference bulk round; returns timings plus identity.

    The two arms are sampled as back-to-back *pairs*, ``reps`` times, and
    the reported speedup is the median of the per-pair ratios: shared-host
    wall time comes in bursts of slowness, and pairing means a burst hits
    both arms of a sample alike instead of landing on whichever arm a
    best-of-N loop happened to be running.  A fresh validator (and caches)
    is built per sample.
    """
    production_w = generate_kb_workload(num_entities=scale, num_hubs=hubs,
                                        seed=seed)
    reference_w = generate_kb_workload(num_entities=scale, num_hubs=hubs,
                                       seed=seed)
    validator = production_report = reference_report = None
    production_s = reference_s = float("inf")
    ratios = []
    for _ in range(max(1, reps)):
        rep_validator, rep_production, rep_production_s = _timed_full(
            production_w, reference=False)
        _, rep_reference, rep_reference_s = _timed_full(
            reference_w, reference=True)
        ratios.append(rep_reference_s / rep_production_s if rep_production_s
                      else float("inf"))
        production_s = min(production_s, rep_production_s)
        reference_s = min(reference_s, rep_reference_s)
        if validator is None:
            validator, production_report = rep_validator, rep_production
            reference_report = rep_reference
    production_verdicts = _verdicts(production_report)
    stats = collect_stats(validator, production_report.stats)
    return {
        "mode": mode,
        "entities": scale,
        "hubs": hubs,
        "triples": len(production_w.graph),
        "pairs": len(production_verdicts),
        "production_s": production_s,
        "reference_s": reference_s,
        "speedup": sorted(ratios)[len(ratios) // 2],
        "ratios": ratios,
        "identical": production_verdicts == _verdicts(reference_report),
        "signature": stats.signature,
        "profile": stats.profile,
    }


def _mutate(workload) -> None:
    """Widen the graph: every fifth valid entity gains one motto arc.

    The touched entities migrate to the neighbouring structural template
    (one more ``ex:motto``), whose signature the warm cache has usually
    already settled — production revalidation re-derives almost nothing,
    while the reference rebuilds the whole report.
    """
    victims = workload.valid_entities[::5]
    workload.graph.add_all(
        Triple(victim, EX.motto, Literal("Onward together"))
        for victim in victims)


def run_revalidate_arm(scale: int, hubs: int, seed: int) -> dict:
    """Mutate a warm baseline; compare production vs reference revalidation.

    The reference keeps no incremental baseline, so its round is a full
    rebuild — the ground truth the production round must reproduce.
    """
    rounds = {}
    reports = {}
    for reference in (False, True):
        workload = generate_kb_workload(num_entities=scale, num_hubs=hubs,
                                        seed=seed)
        validator = Validator(workload.graph, workload.schema,
                              reference=reference)
        validator.validate_graph(labels=_LABELS)
        _mutate(workload)
        gc.collect()
        start = time.perf_counter()
        result = validator.revalidate(labels=_LABELS)
        rounds[reference] = time.perf_counter() - start
        reports[reference] = _verdicts(validator.maintained_report())
        if not reference:
            full_rebuild = bool(result.full_rebuild)
    return {
        "mode": "revalidate",
        "entities": scale,
        "hubs": hubs,
        "production_s": rounds[False],
        "reference_s": rounds[True],
        "speedup": rounds[True] / rounds[False] if rounds[False] else float("inf"),
        "identical": reports[False] == reports[True],
        "full_rebuild": full_rebuild,
    }


def run_backtracking_probe(seed: int) -> dict:
    """A small exponential round so ``backtrack_time`` is exercised."""
    workload = generate_person_workload(num_people=12, invalid_fraction=0.25,
                                        knows_probability=0.2, seed=seed)
    validator = Validator(workload.graph, workload.schema,
                          engine=BacktrackingEngine())
    report = validator.validate_graph()
    stats = collect_stats(validator, report.stats)
    return dict(stats.profile)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, identity checks only (CI smoke run)")
    parser.add_argument("--scale", type=int, default=None,
                        help="number of entities (default: 120 quick, 4000 full)")
    parser.add_argument("--hubs", type=int, default=None,
                        help="number of hubs (default: 4 quick, 10 full)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="fail a full run when the production serial arm "
                             "is not this much faster end to end than the "
                             "reference (default 3.0)")
    parser.add_argument("--min-hit-rate", type=float, default=None,
                        help="fail any run whose serial arm answers less than "
                             "this share of signature lookups from the cache "
                             "(default 0.95 full, 0.69 quick)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the result rows as JSON (CI artifact)")
    args = parser.parse_args(argv)

    scale = args.scale or (120 if args.quick else 4000)
    if args.min_hit_rate is None:
        args.min_hit_rate = 0.69 if args.quick else 0.95
    hubs = args.hubs or (4 if args.quick else 10)
    # the gated serial arm samples five production/reference pairs after a
    # discarded warmup round: the very first validation of a process pays
    # import/allocator warmup, and wall time on small shared machines swings
    # enough that a single sample would make the gated ratio a coin toss.
    reps = 1 if args.quick else 5
    if not args.quick:
        run_full_arm("warmup", 60, 2, args.seed)

    ok = True
    print(f"{'mode':>12} {'pairs':>7} {'reference':>10} "
          f"{'production':>10} {'speedup':>8} {'identical':>9}")
    serial = run_full_arm("serial", scale, hubs, args.seed, reps=reps)
    revalidate = run_revalidate_arm(scale, hubs, args.seed)
    arms = [serial, revalidate]
    for arm in arms:
        print(f"{arm['mode']:>12} {arm.get('pairs', '-'):>7} "
              f"{arm['reference_s'] * 1000:>8.1f}ms "
              f"{arm['production_s'] * 1000:>8.1f}ms "
              f"{arm['speedup']:>7.2f}x {str(arm['identical']):>9}")
        if not arm["identical"]:
            print(f"  !! {arm['mode']}: production verdicts diverge from "
                  "the reference", file=sys.stderr)
            ok = False
    if revalidate.get("full_rebuild"):
        print("  !! revalidate fell back to a full rebuild", file=sys.stderr)
        ok = False

    gates_checked = not args.quick
    if gates_checked and serial["speedup"] < args.min_speedup:
        print(f"!! serial speedup {serial['speedup']:.2f}x below the "
              f"{args.min_speedup:.1f}x threshold", file=sys.stderr)
        ok = False

    backtracking = run_backtracking_probe(args.seed)
    profile = dict(serial["profile"])
    profile["backtrack_time"] = profile.get("backtrack_time", 0.0) \
        + backtracking.get("backtrack_time", 0.0)
    for counter in _PHASE_COUNTERS:
        if not profile.get(counter):
            print(f"!! per-phase counter {counter} is zero — the profiling "
                  "harness lost a phase", file=sys.stderr)
            ok = False
    signature = serial["signature"]
    if not signature.get("dedupes") \
            or signature.get("hit_rate", 0.0) < args.min_hit_rate:
        print(f"!! signature hit rate {signature.get('hit_rate', 0.0):.4f} "
              f"below the {args.min_hit_rate} gate on the dedupe workload",
              file=sys.stderr)
        ok = False

    if args.json:
        payload = {
            "benchmark": "hotpath",
            "quick": args.quick,
            "scale": scale,
            "hubs": hubs,
            "seed": args.seed,
            "min_speedup": args.min_speedup,
            "min_hit_rate": args.min_hit_rate,
            "gates_checked": gates_checked,
            "arms": arms,
            "profile": profile,
            "signature": signature,
            "backtracking_probe": backtracking,
            "ok": ok,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
