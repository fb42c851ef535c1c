"""The lean graph store: SPO is the store, reverse buckets are built on use.

A batch validation pass reads only out-edges, so parsing, validating and
reporting a graph must build no reverse bucket at all; an incremental
round reads in-edges along the schema's reference predicates only, so it
builds exactly their buckets.  The retained size of a parsed graph is
pinned with ``tracemalloc`` (a byte count, not a timer).
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.rdf import EX, Literal, Triple
from repro.rdf.ntriples import parse_ntriples
from repro.shex import Validator
from repro.shex.expressions import Arc, iter_subexpressions
from repro.shex.node_constraints import ShapeRef
from repro.shex.reporting import format_csv
from repro.workloads import generate_kb_workload

#: retained bytes per triple a parsed kb graph may cost (about 155 with SPO
#: alone; the four structures it replaced cost about 600).
MAX_BYTES_PER_TRIPLE = 250


@pytest.fixture(scope="module")
def kb():
    workload = generate_kb_workload(num_entities=800, num_hubs=10, seed=1)
    return workload, workload.graph.serialize("ntriples")


def _reference_predicates(schema):
    return {predicate
            for _, expr in schema.items() for sub in iter_subexpressions(expr)
            if isinstance(sub, Arc) and isinstance(sub.object, ShapeRef)
            for predicate in sub.predicate.predicates}


class TestReverseBucketsAreBuiltOnUse:
    def test_a_batch_pass_builds_none_and_revalidate_only_the_reference_ones(
            self, kb):
        workload, text = kb
        graph = parse_ntriples(text)
        validator = Validator(graph, workload.schema)
        assert format_csv(validator.validate_graph())
        assert graph.store_stats()["reverse_predicates"] == 0
        assert not hasattr(graph, "_triples") and not hasattr(graph, "_osp")

        hub = workload.valid_hubs[0]
        link = next(graph.triples(subject=hub, predicate=EX.links))
        with graph.batch():
            graph.discard(link)
            graph.add(Triple(link.object, EX.label, Literal("edited")))
        assert validator.revalidate().delta.entries

        references = _reference_predicates(workload.schema)
        assert references == {EX.links, EX.seeAlso}
        assert set(graph.predicates()) >= references
        assert set(graph._pos) == references
        assert graph.store_stats()["reverse_predicates"] == len(references)


class TestRetainedMemory:
    def test_a_parsed_graph_retains_at_most_the_bound_per_triple(self, kb):
        _, text = kb
        gc.collect()
        tracemalloc.start()
        try:
            graph = parse_ntriples(text)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(graph) > 10_000
        assert retained / len(graph) <= MAX_BYTES_PER_TRIPLE
