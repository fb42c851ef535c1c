#!/usr/bin/env python3
"""B14 — hot path: neighbourhood-signature verdict dedupe end to end.

PR 10 adds a :class:`~repro.shex.cache.SignatureCache` that folds every
signature-closed subject onto its canonical neighbourhood signature and
serves repeat structures from a dictionary instead of the derivative
engine.  This benchmark measures that on the hub-heavy knowledge-base
workload (:func:`repro.workloads.generate_kb_workload`): thousands of
entities stamped from a few dozen structural templates, a handful of
power-law hubs referencing them, and facet-heavy constraints the compiled
value screen refuses, so every entity reaches the engine when the cache
is off.

Two arms run with the cache on and off — serial bulk validation and
incremental revalidation after a wide mutation — and two checks gate the
timings:

* verdict identity: the cached and uncached reports must agree on every
  ``(node, label)`` pair, in every arm,
* on full runs, a ≥3× single-core end-to-end speedup (``--min-speedup``)
  of the cached serial arm over the uncached one.

A small backtracking-engine round rides along so the per-phase profile in
the JSON artifact exercises every wall counter (``backtrack_time``
included); the artifact fails the run if any per-phase counter is zero.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py             # full run
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick     # CI smoke
    PYTHONPATH=src python benchmarks/bench_hotpath.py --json out.json

Exit status: 0 on success, 1 on any verdict mismatch, missed speedup
threshold (full runs) or missing profile counter.
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


def _make_validator(workload, *, cached: bool) -> Validator:
    return Validator(workload.graph, workload.schema, cache=True,
                     signature_cache=None if cached else False)


def _timed_full(workload, *, cached: bool):
    validator = _make_validator(workload, cached=cached)
    gc.collect()
    start = time.perf_counter()
    report = validator.validate_graph(labels=_LABELS)
    return validator, report, time.perf_counter() - start


def run_full_arm(mode: str, scale: int, hubs: int, seed: int,
                 reps: int = 1) -> dict:
    """One cached-vs-uncached bulk round; returns timings plus identity.

    The two arms are sampled as back-to-back *pairs*, ``reps`` times, and
    the reported speedup is the median of the per-pair ratios: shared-host
    wall time comes in bursts of slowness, and pairing means a burst hits
    both arms of a sample alike instead of landing on whichever arm a
    best-of-N loop happened to be running.  A fresh validator (and caches)
    is built per sample.
    """
    cached_w = generate_kb_workload(num_entities=scale, num_hubs=hubs, seed=seed)
    uncached_w = generate_kb_workload(num_entities=scale, num_hubs=hubs, seed=seed)
    validator = cached_report = uncached_report = None
    cached_s = uncached_s = float("inf")
    ratios = []
    for _ in range(max(1, reps)):
        rep_validator, rep_cached, rep_cached_s = _timed_full(
            cached_w, cached=True)
        _, rep_uncached, rep_uncached_s = _timed_full(
            uncached_w, cached=False)
        ratios.append(rep_uncached_s / rep_cached_s if rep_cached_s
                      else float("inf"))
        cached_s = min(cached_s, rep_cached_s)
        uncached_s = min(uncached_s, rep_uncached_s)
        if validator is None:
            validator, cached_report = rep_validator, rep_cached
            uncached_report = rep_uncached
    cached_verdicts = _verdicts(cached_report)
    stats = collect_stats(validator, cached_report.total_stats())
    return {
        "mode": mode,
        "entities": scale,
        "hubs": hubs,
        "triples": len(cached_w.graph),
        "pairs": len(cached_verdicts),
        "cached_s": cached_s,
        "uncached_s": uncached_s,
        "speedup": sorted(ratios)[len(ratios) // 2],
        "ratios": ratios,
        "identical": cached_verdicts == _verdicts(uncached_report),
        "signature": stats.signature,
        "profile": stats.profile,
    }


def _mutate(workload) -> None:
    """Widen the graph: every fifth valid entity gains one motto arc.

    The touched entities migrate to the neighbouring structural template
    (one more ``ex:motto``), whose signature the warm cache has usually
    already settled — revalidation with the cache on re-derives almost
    nothing, while the uncached arm re-runs the engine per affected node.
    """
    victims = workload.valid_entities[::5]
    workload.graph.add_all(
        Triple(victim, EX.motto, Literal("Onward together"))
        for victim in victims)


def run_revalidate_arm(scale: int, hubs: int, seed: int) -> dict:
    """Mutate a warm baseline; compare cached vs uncached revalidation."""
    rounds = {}
    reports = {}
    for cached in (True, False):
        workload = generate_kb_workload(num_entities=scale, num_hubs=hubs,
                                        seed=seed)
        validator = _make_validator(workload, cached=cached)
        validator.validate_graph(labels=_LABELS)
        _mutate(workload)
        gc.collect()
        start = time.perf_counter()
        result = validator.revalidate(labels=_LABELS)
        rounds[cached] = time.perf_counter() - start
        reports[cached] = _verdicts(result.report)
        if cached:
            full_rebuild = bool(result.full_rebuild)
    # a fresh uncached full run of the mutated graph is the ground truth
    check = generate_kb_workload(num_entities=scale, num_hubs=hubs, seed=seed)
    _mutate(check)
    _, fresh_report, _ = _timed_full(check, cached=False)
    fresh = _verdicts(fresh_report)
    return {
        "mode": "revalidate",
        "entities": scale,
        "hubs": hubs,
        "cached_s": rounds[True],
        "uncached_s": rounds[False],
        "speedup": rounds[False] / rounds[True] if rounds[True] else float("inf"),
        "identical": reports[True] == reports[False] == fresh,
        "full_rebuild": full_rebuild,
    }


def run_backtracking_probe(seed: int) -> dict:
    """A small exponential round so ``backtrack_time`` is exercised."""
    workload = generate_person_workload(num_people=12, invalid_fraction=0.25,
                                        knows_probability=0.2, seed=seed)
    validator = Validator(workload.graph, workload.schema,
                          engine=BacktrackingEngine())
    report = validator.validate_graph()
    stats = collect_stats(validator, report.total_stats())
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
                        help="fail a full run when the cached serial arm is "
                             "not this much faster end to end (default 3.0)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the result rows as JSON (CI artifact)")
    args = parser.parse_args(argv)

    scale = args.scale or (120 if args.quick else 4000)
    hubs = args.hubs or (4 if args.quick else 10)
    # the gated serial arm samples five cached/uncached pairs after a
    # discarded warmup round: the very first validation of a process pays
    # import/allocator warmup, and wall time on small shared machines swings
    # enough that a single sample would make the gated ratio a coin toss.
    reps = 1 if args.quick else 5
    if not args.quick:
        run_full_arm("warmup", 60, 2, args.seed)

    ok = True
    print(f"{'mode':>12} {'pairs':>7} {'uncached':>10} "
          f"{'cached':>10} {'speedup':>8} {'identical':>9}")
    serial = run_full_arm("serial", scale, hubs, args.seed, reps=reps)
    revalidate = run_revalidate_arm(scale, hubs, args.seed)
    arms = [serial, revalidate]
    for arm in arms:
        print(f"{arm['mode']:>12} {arm.get('pairs', '-'):>7} "
              f"{arm['uncached_s'] * 1000:>8.1f}ms "
              f"{arm['cached_s'] * 1000:>8.1f}ms "
              f"{arm['speedup']:>7.2f}x {str(arm['identical']):>9}")
        if not arm["identical"]:
            print(f"  !! {arm['mode']}: cached verdicts diverge from the "
                  "uncached baseline", file=sys.stderr)
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
    if not (signature.get("hits") and signature.get("dedupes")):
        print("!! the signature cache served no hits on the dedupe workload",
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
