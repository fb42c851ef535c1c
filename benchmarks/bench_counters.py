#!/usr/bin/env python3
"""Work counters of the production fast paths, gated against ``BENCH_counters.json``.

The paper measures the cost of derivative-based validation in derivative
steps, not in seconds.  This benchmark runs four workloads at one fixed
size each and records, per workload, only counters that repeat exactly
from run to run and under any ``PYTHONHASHSEED``:

* **person** (B9): the paper's Person schema over generated people;
* **sparse-mismatch** (B12): a catalogue graph whose nodes mostly cannot
  match any shape, so the compiled prefilter settles them;
* **kb** (B14): the hub-heavy knowledge base, a serial pass
  (``kb.serial``) and the revalidation after a wide mutation
  (``kb.revalidate``), where the signature cache answers most pairs;
* **community** (B13): one community ring per reference-graph component,
  a full pass (``community.full``) and two delta rounds that break one
  and then four communities (``community.k1``, ``community.k4``).

Counters, per workload:

* production: pairs, engine runs, typed signatures, signature hits and
  misses, derivative-cache hits and misses, derivative steps, prefilter
  accepts and rejects (a delta round counts its own work; typed
  signatures is the size of the signature cache after it);
* ``reference=True`` on the same graph: ``reference.derivative_steps``
  and ``reference.reference_checks``;
* delta rounds: dirty subjects, affected nodes, revalidated pairs and
  retracted verdicts.

Each counter must equal its committed value: a changed counter fails the
run until the change re-commits the file (``--write``) and explains the
new figure.  Before the counters are compared, every workload checks its
verdicts: production agrees with the reference and with the generator's
ground truth, typings included, and a delta round's maintained report
equals a fresh ``validate_graph`` entry for entry.  Two invariants hold on
every workload: the engine runs at most once per typed signature, and
production takes fewer derivative steps than the reference.  Wall times
are printed, never stored or gated: the standing benchmark (``perfbench/``)
holds the timed claims.

Usage::

    PYTHONPATH=src python benchmarks/bench_counters.py
    PYTHONPATH=src python benchmarks/bench_counters.py --write BENCH_counters.json

Exit status: 0 when every check holds and every counter equals the
committed file, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.rdf import EX, FOAF, XSD, Graph, Literal, Triple
from repro.shex import DerivativeCache, DerivativeEngine, Schema, Validator
from repro.workloads import (
    generate_community_workload,
    generate_kb_workload,
    generate_person_workload,
)

#: the committed counters this run must reproduce.
COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_counters.json"

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

#: the shapes a KB deployment targets: entities against <Entity>, hubs
#: against <Hub>.  The nullable <Note> shape is still exercised: every
#: hub's ``ex:seeAlso`` arcs resolve it through the typing.
KB_LABELS = ("Entity", "Hub")


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


class _CountingEngine(DerivativeEngine):
    """The production derivatives engine, counting its neighbourhood matches."""

    def __init__(self):
        super().__init__(cache=DerivativeCache())
        self.runs = 0

    def match_neighbourhood(self, expr, triples, context=None):
        self.runs += 1
        return super().match_neighbourhood(expr, triples, context)


class Production:
    """A production validator whose engine counts its runs.

    The engine and derivative-cache counters grow over the validator's
    life; :meth:`counters` reports what they grew by since its last call.
    """

    def __init__(self, graph, schema):
        self.engine = _CountingEngine()
        self.validator = Validator(graph, schema, engine=self.engine)
        self._mark = (0, 0, 0)

    def counters(self, stats, pairs: int) -> dict:
        cache = self.engine.cache
        mark = (self.engine.runs, cache.hits, cache.misses)
        runs, hits, misses = (now - before for now, before in zip(mark, self._mark))
        self._mark = mark
        return {
            "pairs": pairs,
            "engine_runs": runs,
            "typed_signatures": len(self.validator.signature_cache),
            "signature_hits": stats.signature_hits,
            "signature_misses": stats.signature_misses,
            "derivative_cache_hits": hits,
            "derivative_cache_misses": misses,
            "derivative_steps": stats.derivative_steps,
            "prefilter_accepts": stats.prefilter_accepts,
            "prefilter_rejects": stats.prefilter_rejects,
        }


class Run:
    """Counters and failed checks of one benchmark run."""

    def __init__(self):
        self.workloads = {}
        self.failures = []

    def check(self, workload: str, holds: bool, what: str) -> None:
        if not holds:
            self.failures.append(f"{workload}: {what}")

    def record(self, workload: str, counters: dict, production_s: float,
               reference_s: float) -> None:
        self.workloads[workload] = counters
        if counters["engine_runs"] > counters["typed_signatures"]:
            self.failures.append(
                f"{workload}: {counters['engine_runs']} engine runs for "
                f"{counters['typed_signatures']} typed signatures")
        if counters["derivative_steps"] >= counters["reference.derivative_steps"]:
            self.failures.append(
                f"{workload}: production takes {counters['derivative_steps']} "
                f"derivative steps, the reference "
                f"{counters['reference.derivative_steps']}")
        print(f"{workload:>17} {counters['pairs']:>7} "
              f"{counters['derivative_steps']:>12} "
              f"{counters['reference.derivative_steps']:>12} "
              f"{production_s * 1000:>11.1f}ms {reference_s * 1000:>10.1f}ms")


def _verdicts(report):
    return {(entry.node, str(entry.label)): entry.conforms for entry in report}


def _entries(report):
    return [(entry.node, entry.label, entry.conforms) for entry in report]


def _timed(call):
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def _reference(graph, schema, labels=None):
    """The ``reference=True`` oracle on ``graph``: report, counters, seconds."""
    report, seconds = _timed(lambda: Validator(
        graph, schema, reference=True).validate_graph(labels=labels))
    return report, {
        "reference.derivative_steps": report.stats.derivative_steps,
        "reference.reference_checks": report.stats.reference_checks,
    }, seconds


def _full_pass(run, name, graph, schema, expected, labels=None):
    """One production bulk pass, checked against the reference and ``expected``.

    ``expected`` maps ``(node, label string)`` to its ground-truth verdict.
    Returns the :class:`Production` validator, for delta rounds to continue.
    """
    production = Production(graph, schema)
    report, production_s = _timed(
        lambda: production.validator.validate_graph(labels=labels))
    oracle, reference_counters, reference_s = _reference(graph, schema, labels)
    verdicts = _verdicts(report)
    run.check(name, verdicts == _verdicts(oracle),
              "verdicts differ from the reference")
    run.check(name, report.typing.to_dict() == oracle.typing.to_dict(),
              "typing differs from the reference")
    run.check(name, all(verdicts[key] == value for key, value in expected.items()),
              "verdicts differ from the ground truth")
    counters = {"triples": len(graph), **production.counters(report.stats, len(report)),
                **reference_counters}
    run.record(name, counters, production_s, reference_s)
    return production


def _delta_round(run, name, production, schema, labels=None):
    """Revalidate after a mutation; check it against a fresh full run."""
    validator = production.validator
    result, production_s = _timed(lambda: validator.revalidate(labels=labels))
    run.check(name, not result.full_rebuild, "revalidate rebuilt everything")
    maintained = validator.maintained_report()
    fresh = Validator(validator.graph, schema).validate_graph(labels=labels)
    run.check(name, _entries(maintained) == _entries(fresh),
              "maintained report differs from a fresh validate_graph")
    oracle, reference_counters, reference_s = _reference(
        validator.graph, schema, labels)
    run.check(name, _verdicts(maintained) == _verdicts(oracle),
              "verdicts differ from the reference")
    stats = result.stats()
    counters = {**production.counters(result.delta.stats, result.pairs),
                **{key: stats[key] for key in ("dirty_subjects", "affected_nodes",
                                               "revalidated_pairs",
                                               "retracted_verdicts")},
                **reference_counters}
    run.record(name, counters, production_s, reference_s)
    return maintained


def person(run):
    workload = generate_person_workload(num_people=60, invalid_fraction=0.2,
                                        seed=1)
    valid = set(workload.valid_nodes)
    expected = {(node, "Person"): node in valid for node in workload.all_nodes}
    _full_pass(run, "person", workload.graph, workload.schema, expected)


def sparse_mismatch(run):
    graph, schema, expected = generate_sparse_mismatch(1000, seed=11)
    _full_pass(run, "sparse-mismatch", graph, schema, expected)


def kb(run):
    workload = generate_kb_workload(num_entities=1000, num_hubs=8, seed=11)
    valid = set(workload.valid_entities) | set(workload.valid_hubs)
    expected = {(node, "Entity"): node in valid for node in workload.entities}
    expected.update({(node, "Hub"): node in valid for node in workload.hubs})
    production = _full_pass(run, "kb.serial", workload.graph, workload.schema,
                            expected, KB_LABELS)
    # widen the graph: every fifth valid entity gains one motto arc and
    # moves to the neighbouring structural template, whose signature the
    # warm cache has usually settled already
    workload.graph.add_all(Triple(victim, EX.motto, Literal("Onward together"))
                           for victim in workload.valid_entities[::5])
    _delta_round(run, "kb.revalidate", production, workload.schema, KB_LABELS)


def community(run):
    workload = generate_community_workload(num_communities=24,
                                           people_per_community=10, seed=17)
    graph, schema = workload.graph, workload.schema
    valid = set(workload.valid_nodes)
    expected = {(node, "Person"): node in valid for node in workload.all_nodes}
    production = _full_pass(run, "community.full", graph, schema, expected)

    def community_of(node):
        return str(node.value).rsplit("_", 1)[0]

    # each round breaks one valid member (a second foaf:age) in k more
    # communities; the break cascades through the knows ring to exactly
    # the whole community
    rings = {}
    for node in workload.valid_nodes:
        rings.setdefault(community_of(node), node)
    victims = iter(rings.values())
    broken = set()
    for k in (1, 4):
        round_victims = [next(victims) for _ in range(k)]
        broken.update(community_of(victim) for victim in round_victims)
        graph.add_all(Triple(victim, FOAF.age, Literal(499))
                      for victim in round_victims)
        name = f"community.k{k}"
        maintained = _verdicts(_delta_round(run, name, production, schema))
        run.check(name, all(
            maintained[key] == (value and community_of(key[0]) not in broken)
            for key, value in expected.items()),
            "verdicts differ from the ground truth")


def compare(fresh: dict, committed: dict) -> list:
    """One line per counter that differs from the committed file."""
    lines = []
    for workload in sorted(set(fresh) | set(committed)):
        ours, theirs = fresh.get(workload, {}), committed.get(workload, {})
        for counter in sorted(set(ours) | set(theirs)):
            if ours.get(counter) != theirs.get(counter):
                lines.append(f"{workload}: {counter} = {ours.get(counter)}, "
                             f"committed {theirs.get(counter)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", metavar="PATH",
                        help="also write this run's counters to PATH, to "
                             "re-commit as BENCH_counters.json")
    args = parser.parse_args(argv)

    committed = json.loads(COMMITTED.read_text(encoding="utf-8"))["workloads"]
    run = Run()
    print(f"{'workload':>17} {'pairs':>7} {'steps':>12} {'ref. steps':>12} "
          f"{'production':>13} {'reference':>12}")
    for workload in (person, sparse_mismatch, kb, community):
        workload(run)
    payload = {"benchmark": "counters", "workloads": run.workloads}
    if args.write:
        Path(args.write).write_text(json.dumps(payload, indent=2) + "\n",
                                    encoding="utf-8")
        print(f"wrote {args.write}")
    failures = run.failures + compare(run.workloads, committed)
    for line in failures:
        print(f"!! {line}", file=sys.stderr)
    print("FAILED" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
