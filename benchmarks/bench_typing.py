#!/usr/bin/env python3
"""B10 — typing accretion: persistent HAMT vs the copy-on-write dict baseline.

The Section 8 typing operations (``n → s : τ``, ``τ1 ⊎ τ2``) were originally
backed by a dict that was fully copied and re-frozen on every ``add``, so
confirming the ``k`` members of one recursive component cost O(k²) — the
dominant serial cost of bulk validation at scale.  :class:`ShapeTyping` is
now backed by a persistent HAMT (``repro/shex/hamt.py``): O(log n) ``add``
with full structural sharing, and a ``combine`` that skips shared subtries.

This benchmark measures both representations on the same traces:

* **confirmation** — ``k`` sequential ``add`` calls, the access pattern of
  ``ValidationContext.confirm`` when one recursive component settles,
* **workload replay** — the conforming ``(node, label)`` trace produced by
  actually validating the single-community recursive workload (the same
  generator ``bench_bulk_validation.py`` runs), replayed against both
  representations,
* **combine** — folding per-node singleton typings together, the
  ``τ1 ⊎ τ2`` side of the algebra.

The dict baseline is a faithful replica of the pre-HAMT implementation.
Every row is correctness-checked: both representations must produce the
same final ``node → labels`` contents before any number is reported.

Usage::

    PYTHONPATH=src python benchmarks/bench_typing.py          # full
    PYTHONPATH=src python benchmarks/bench_typing.py --quick  # CI smoke

Exit status: 0 on success, 1 when contents disagree or the confirmation
speedup on the largest size is below --min-speedup (default 10.0).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.rdf.terms import IRI, ObjectTerm
from repro.shex import ShapeLabel, ShapeTyping, Validator
from repro.workloads import generate_community_workload

# deep knows-rings recurse one Python call stack per hop during the
# workload-replay validation run
sys.setrecursionlimit(100_000)


class DictTyping:
    """The pre-HAMT ``ShapeTyping``: a dict copied and re-frozen per ``add``.

    Kept verbatim (minus the query surface the benchmark doesn't touch) so
    the baseline measures exactly what the library used to do.
    """

    __slots__ = ("_assignments",)

    def __init__(self, assignments=None):
        frozen: Dict[ObjectTerm, FrozenSet[ShapeLabel]] = {}
        if assignments:
            for node, labels in assignments.items():
                label_set = frozenset(labels)
                if label_set:
                    frozen[node] = label_set
        self._assignments = frozen

    def add(self, node: ObjectTerm, label: ShapeLabel) -> "DictTyping":
        updated = dict(self._assignments)
        updated[node] = updated.get(node, frozenset()) | {label}
        return DictTyping(updated)

    def combine(self, other: "DictTyping") -> "DictTyping":
        if not other._assignments:
            return self
        if not self._assignments:
            return other
        merged = dict(self._assignments)
        for node, labels in other._assignments.items():
            merged[node] = merged.get(node, frozenset()) | labels
        return DictTyping(merged)

    def to_contents(self) -> Dict[ObjectTerm, FrozenSet[ShapeLabel]]:
        return dict(self._assignments)


def _replay_adds_dict(trace: List[Tuple[ObjectTerm, ShapeLabel]]) -> tuple:
    start = time.perf_counter()
    typing = DictTyping()
    for node, label in trace:
        typing = typing.add(node, label)
    return time.perf_counter() - start, typing.to_contents()


def _replay_adds_hamt(trace: List[Tuple[ObjectTerm, ShapeLabel]]) -> tuple:
    start = time.perf_counter()
    typing = ShapeTyping.empty()
    for node, label in trace:
        typing = typing.add(node, label)
    return time.perf_counter() - start, dict(typing.items())


def _fold_combine_dict(singletons: Iterable[DictTyping]) -> tuple:
    start = time.perf_counter()
    typing = DictTyping()
    for singleton in singletons:
        typing = typing.combine(singleton)
    return time.perf_counter() - start, typing.to_contents()


def _fold_combine_hamt(singletons: Iterable[ShapeTyping]) -> tuple:
    start = time.perf_counter()
    typing = ShapeTyping.empty()
    for singleton in singletons:
        typing = typing.combine(singleton)
    return time.perf_counter() - start, dict(typing.items())


def run_confirmation(k: int) -> dict:
    """``k`` members of one component confirmed one ``add`` at a time."""
    label = ShapeLabel("Person")
    trace = [(IRI(f"http://example.org/member{i}"), label) for i in range(k)]
    dict_s, dict_contents = _replay_adds_dict(trace)
    hamt_s, hamt_contents = _replay_adds_hamt(trace)
    return {
        "scenario": "confirmation",
        "k": k,
        "dict_s": dict_s,
        "hamt_s": hamt_s,
        "speedup": dict_s / hamt_s if hamt_s else float("inf"),
        "contents_agree": dict_contents == hamt_contents,
    }


def run_combine(k: int) -> dict:
    """Fold ``k`` singleton typings with ``⊎`` (the report-assembly shape)."""
    label = ShapeLabel("Person")
    nodes = [IRI(f"http://example.org/member{i}") for i in range(k)]
    dict_s, dict_contents = _fold_combine_dict(
        DictTyping({node: [label]}) for node in nodes)
    hamt_s, hamt_contents = _fold_combine_hamt(
        ShapeTyping.single(node, label) for node in nodes)
    return {
        "scenario": "combine",
        "k": k,
        "dict_s": dict_s,
        "hamt_s": hamt_s,
        "speedup": dict_s / hamt_s if hamt_s else float("inf"),
        "contents_agree": dict_contents == hamt_contents,
    }


def run_workload_replay(people: int, seed: int) -> dict:
    """Replay the conforming trace of the single-community recursive workload.

    One community means the valid members form a single strongly-connected
    ``foaf:knows`` component — exactly the k-member recursive-component
    confirmation the HAMT targets — and the trace comes from a real
    validation run of the same workload family the bulk benchmark uses.
    """
    workload = generate_community_workload(
        num_communities=1, people_per_community=people,
        invalid_fraction=0.2, seed=seed)
    validator = Validator(workload.graph, workload.schema)
    report = validator.validate_graph()
    trace = [(entry.node, entry.label) for entry in report if entry.conforms]
    expected_valid = set(workload.valid_nodes)
    trace_ok = {node for node, _ in trace} == expected_valid
    dict_s, dict_contents = _replay_adds_dict(trace)
    hamt_s, hamt_contents = _replay_adds_hamt(trace)
    return {
        "scenario": "workload_replay",
        "k": len(trace),
        "people": people,
        "triples": len(workload.graph),
        "dict_s": dict_s,
        "hamt_s": hamt_s,
        "speedup": dict_s / hamt_s if hamt_s else float("inf"),
        "contents_agree": dict_contents == hamt_contents and trace_ok,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes only (CI smoke run)")
    parser.add_argument("--sizes", type=int, nargs="*",
                        help="explicit confirmation sizes (number of members)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="fail when the largest confirmation size is "
                             "below this add-loop speedup")
    parser.add_argument("--json", metavar="PATH",
                        help="write the result rows as JSON (CI artifact)")
    args = parser.parse_args(argv)

    # quick mode still ends at k=2000: the speedup gate is calibrated for
    # that size (the O(k²) vs O(k log k) gap narrows at smaller k), and the
    # dict baseline only costs ~0.4s there
    sizes = args.sizes or ([500, 2000] if args.quick else [250, 500, 1000, 2000])
    replay_people = 120 if args.quick else 400

    rows = []
    print(f"{'scenario':>16} {'k':>6} {'dict':>11} {'hamt':>11} {'speedup':>8}")
    ok = True
    confirmation_speedup = 0.0
    for k in sizes:
        row = run_confirmation(k)
        rows.append(row)
        confirmation_speedup = row["speedup"]
    for k in sizes[-1:]:
        rows.append(run_combine(k))
    rows.append(run_workload_replay(replay_people, args.seed))

    for row in rows:
        print(f"{row['scenario']:>16} {row['k']:>6} "
              f"{row['dict_s'] * 1000:>9.1f}ms {row['hamt_s'] * 1000:>9.1f}ms "
              f"{row['speedup']:>7.1f}x")
        if not row["contents_agree"]:
            print(f"  !! contents mismatch in {row['scenario']} at k={row['k']}",
                  file=sys.stderr)
            ok = False

    if confirmation_speedup < args.min_speedup:
        print(f"!! confirmation speedup {confirmation_speedup:.1f}x below the "
              f"{args.min_speedup:.1f}x threshold", file=sys.stderr)
        ok = False

    if args.json:
        payload = {
            "benchmark": "typing",
            "quick": args.quick,
            "min_speedup": args.min_speedup,
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
