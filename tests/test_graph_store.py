"""The lean graph store: SPO is the store, reverse buckets are built on use.

A batch validation pass reads only out-edges, so parsing, validating and
reporting a graph must build no reverse bucket at all; an incremental
round reads in-edges along the schema's reference predicates only, so it
builds exactly their buckets.  The retained size of a parsed graph, and
the peak of a parse and of a service graph load, are pinned with
``tracemalloc`` (byte counts, not timers).
"""

from __future__ import annotations

import gc
import json
import sys
import tracemalloc

import pytest

from repro.rdf import EX, Literal, Triple
from repro.rdf.ntriples import parse_ntriples
from repro.service import DeltaRequest, ValidationRequest, ValidationSession
from repro.service.server import ValidationService
from repro.shex import Validator
from repro.shex.expressions import Arc, iter_subexpressions
from repro.shex.node_constraints import ShapeRef
from repro.shex.reporting import format_csv
from repro.workloads import generate_kb_workload

#: retained bytes per triple a parsed kb graph may cost (about 155 with SPO
#: alone; the four structures it replaced cost about 600).
MAX_BYTES_PER_TRIPLE = 250
#: a parse's peak over the bytes it retains (about 1.06 walking the lines
#: one at a time; 1.9 when every line was listed first).
MAX_PARSE_PEAK = 1.25
#: a graph load's peak (parse plus first validation) over the parsed
#: graph's bytes (about 1.8; 2.2 with listed lines and one item tuple per
#: closed-signature triple, 2.7 when the request text also stayed alive).
MAX_LOAD_PEAK = 2.0


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


def _traced(call):
    """``(result, retained bytes, peak bytes)`` of ``call()``, tracing on."""
    gc.collect()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = call()
    current, peak = tracemalloc.get_traced_memory()
    return result, current - base, peak - base


class TestLoadPeak:
    def test_a_parse_peaks_near_what_it_retains(self, kb):
        _, text = kb
        tracemalloc.start()
        try:
            graph, retained, peak = _traced(lambda: parse_ntriples(text))
        finally:
            tracemalloc.stop()
        assert len(graph) > 10_000
        assert peak <= MAX_PARSE_PEAK * retained

    def _load_peak(self, kb, request):
        """Peak of ``create_graph(request())`` over the parsed graph's bytes."""
        workload, text = kb
        service = ValidationService(workload.schema)
        tracemalloc.start()
        try:
            graph, graph_bytes, _ = _traced(lambda: parse_ntriples(text))
            del graph
            created, _, peak = _traced(lambda: service.create_graph(request()))
        finally:
            tracemalloc.stop()
            service.close()
        assert created["triples"] > 10_000
        return peak / graph_bytes

    def test_a_graph_load_peaks_below_twice_the_parsed_graph(self, kb):
        # the caller keeps the text: only the load's own bytes count
        text = kb[1]
        request = ValidationRequest(data=text, data_format="ntriples")
        assert self._load_peak(kb, lambda: request) <= MAX_LOAD_PEAK

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="before 3.11 the caller's stack keeps a "
                               "call's arguments alive until it returns")
    def test_a_wire_request_frees_its_text_before_the_validation(self, kb):
        # as ``POST /graphs`` does: the decoded request is create_graph's
        # alone, so its text is freed once the graph is parsed
        body = json.dumps(ValidationRequest(data=kb[1],
                                            data_format="ntriples").to_json())
        assert self._load_peak(
            kb, lambda: ValidationRequest.from_json(body)) <= MAX_LOAD_PEAK


class TestSignatureItems:
    @staticmethod
    def _session(kb):
        workload, text = kb
        session = ValidationSession(parse_ntriples(text), workload.schema)
        session.validate()
        return session, session.validator._context

    def test_equal_closed_items_are_one_object(self, kb):
        session, context = self._session(kb)
        items = [item for closed, _ in context._signatures.values()
                 for item in closed]
        assert len(items) > 10_000
        assert len({id(item) for item in items}) == len(set(items))
        for _, shared, _, tests in context._object_classes.values():
            assert len(shared) <= 2 ** len(tests)

    def test_delta_cycles_do_not_grow_the_item_tables(self, kb):
        session, context = self._session(kb)
        edit = f'{kb[0].valid_entities[0].n3()} <{EX.tag.value}> "cycled" .\n'

        def sizes():
            return {predicate: len(entry[1])
                    for predicate, entry in context._object_classes.items()}

        first = None
        for _ in range(50):
            session.apply_delta(DeltaRequest(add=edit))
            session.apply_delta(DeltaRequest(remove=edit))
            assert session.validator._context is context
            if first is None:
                first = sizes()
                assert first
            now = sizes()
            assert all(now[p] <= first.get(p, 0) for p in now)
