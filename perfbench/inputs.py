"""Seeded inputs: the graph, its schema, the write cycle and expected verdicts.

Everything here is generated from the seed and never timed.  The program
only ever receives the results: an N-Triples file, a ShExC file, HTTP
request bodies.

Each workload has a reversible write cycle: ``deltas[i]`` is a block of
``k`` N-Triples lines that breaks ``k`` valid subjects, and the cycle sends
it as an addition, then as a removal.  The graph therefore only visits the
start state and one state per delta, and a fresh reference
:class:`~repro.shex.Validator` run per state gives the expected verdict of
every ``(node, shape)`` pair in it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.rdf.ntriples import iter_ntriples
from repro.shex import Validator
from repro.workloads import (
    KB_SCHEMA_SHEXC,
    PERSON_SCHEMA_SHEXC,
    generate_community_workload,
    generate_kb_workload,
)

__all__ = ["Spec", "WORKLOADS", "Inputs", "make_inputs"]

Pair = Tuple[str, str]


@dataclass(frozen=True)
class Spec:
    """One benchmark workload: its graph, and how many subjects a write breaks."""

    name: str
    delta_subjects: int


WORKLOADS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec("kb", 4),
    Spec("social", 2),
)}

#: number of distinct deltas in the write cycle (states = 1 + this).
DELTAS = 2

_UNDECLARED = "<http://example.org/undeclared>"
_AGE = "<http://xmlns.com/foaf/0.1/age>"
_INTEGER = "<http://www.w3.org/2001/XMLSchema#integer>"


@dataclass
class Inputs:
    spec: Spec
    seed: int
    schema_text: str
    data_text: str
    triples: int
    #: ``(node, shape)`` pairs the read traffic queries.
    targets: List[Pair]
    #: the generator's own verdicts for ``targets`` in the start state.
    ground_truth: Dict[Pair, bool]
    deltas: List[str] = field(default_factory=list)
    #: ``tables[0]``: start state; ``tables[i + 1]``: ``deltas[i]`` applied.
    tables: List[Dict[Pair, bool]] = field(default_factory=list)

    @property
    def pairs(self) -> int:
        return len(self.tables[0])


def _kb(seed: int, scale: float):
    workload = generate_kb_workload(num_entities=max(40, round(3200 * scale)),
                                    num_hubs=max(2, round(40 * scale)),
                                    seed=seed)
    truth = {(node.n3(), "Entity"): True for node in workload.valid_entities}
    truth.update({(node.n3(), "Entity"): False
                  for node in workload.invalid_entities})
    truth.update({(node.n3(), "Hub"): True for node in workload.valid_hubs})
    truth.update({(node.n3(), "Hub"): False for node in workload.invalid_hubs})

    def breaker(node) -> str:
        return f'{node.n3()} {_UNDECLARED} "perfbench" .\n'

    return workload, KB_SCHEMA_SHEXC, truth, workload.valid_entities, breaker


def _social(seed: int, scale: float):
    workload = generate_community_workload(
        num_communities=max(2, round(90 * scale)), people_per_community=32,
        knows_chords=4, seed=seed)
    truth = {(node.n3(), "Person"): True for node in workload.valid_nodes}
    truth.update({(node.n3(), "Person"): False
                  for node in workload.invalid_nodes})

    def breaker(node) -> str:
        # a second age breaks the exactly-one foaf:age, and with it every
        # ring member that knows this person
        return f'{node.n3()} {_AGE} "999"^^{_INTEGER} .\n'

    return workload, PERSON_SCHEMA_SHEXC, truth, workload.valid_nodes, breaker


def verdict_table(graph, schema) -> Dict[Pair, bool]:
    """Every pair's verdict from a fresh whole-graph reference run."""
    report = Validator(graph, schema).validate_graph()
    return {(entry.node.n3(), entry.label.name): entry.conforms
            for entry in report.entries}


def make_inputs(spec: Spec, seed: int, scale: float = 1.0) -> Inputs:
    """Generate the workload's inputs and expected verdict tables."""
    make = {"kb": _kb, "social": _social}[spec.name]
    workload, schema_text, truth, valid, breaker = make(seed, scale)
    graph = workload.graph
    rng = random.Random(seed)
    victims = rng.sample(valid, DELTAS * spec.delta_subjects)
    deltas = ["".join(breaker(node) for node in
                      victims[i * spec.delta_subjects:
                              (i + 1) * spec.delta_subjects])
              for i in range(DELTAS)]
    inputs = Inputs(spec=spec, seed=seed, schema_text=schema_text,
                    data_text=graph.serialize("ntriples"),
                    triples=len(graph), targets=sorted(truth),
                    ground_truth=truth, deltas=deltas)
    inputs.tables.append(verdict_table(graph, workload.schema))
    wrong = [pair for pair, conforms in truth.items()
             if inputs.tables[0].get(pair) != conforms]
    if wrong:
        raise RuntimeError(f"reference run disagrees with the generator's "
                           f"ground truth on {len(wrong)} pair(s), e.g. "
                           f"{wrong[0]}")
    for delta in deltas:
        triples = list(iter_ntriples(delta))
        graph.add_all(triples)
        inputs.tables.append(verdict_table(graph, workload.schema))
        graph.remove_all(triples)
    if len(graph) != inputs.triples:
        raise RuntimeError("the write cycle does not return the graph to "
                           "its start state")
    return inputs
