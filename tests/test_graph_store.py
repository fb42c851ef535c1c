"""The lean graph store: SPO is the store, reverse buckets are built on use.

A batch validation pass reads only out-edges, so parsing, validating and
reporting a graph must build no reverse bucket at all; an incremental
round reads in-edges along the schema's reference predicates only, so it
builds exactly their buckets.  A bucket is a tuple up to ``_SMALL`` items
and a set past that; the rule is pinned by types and counts, and a
hypothesis property checks the store against a plain set of triples.  The
retained size of a parsed graph, and the peak of a parse and of a service
graph load, are pinned with ``tracemalloc`` (byte counts, not timers).
"""

from __future__ import annotations

import gc
import json
import sys
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import EX, Graph, Literal, Triple
from repro.rdf.graph import _SMALL
from repro.rdf.ntriples import parse_ntriples
from repro.service import DeltaRequest, ValidationRequest, ValidationSession
from repro.service.server import ValidationService
from repro.shex import Validator
from repro.shex import schema as schema_module
from repro.shex.expressions import Arc, iter_subexpressions
from repro.shex.node_constraints import ShapeRef
from repro.shex.reporting import format_csv
from repro.workloads import generate_kb_workload

#: retained bytes per triple a parsed kb graph may cost (about 68 with small
#: buckets as tuples, 155 with a set per bucket; the four structures SPO
#: replaced cost about 600).
MAX_BYTES_PER_TRIPLE = 100
#: a parse's peak over the bytes it retains (about 1.13 walking the lines
#: one at a time; 1.9 when every line was listed first).
MAX_PARSE_PEAK = 1.25
#: a graph load's peak (parse plus first validation) in bytes per triple
#: (about 163; 241 when the request text stays alive, 283 with a set per
#: bucket).
MAX_LOAD_PEAK_PER_TRIPLE = 200


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
        """Peak of ``create_graph(request())`` in bytes per triple."""
        workload, _ = kb
        service = ValidationService(workload.schema)
        tracemalloc.start()
        try:
            created, _, peak = _traced(lambda: service.create_graph(request()))
        finally:
            tracemalloc.stop()
            service.close()
        assert created["triples"] > 10_000
        return peak / created["triples"]

    def test_a_graph_load_peaks_below_the_bound_per_triple(self, kb):
        # the caller keeps the text: only the load's own bytes count
        text = kb[1]
        request = ValidationRequest(data=text, data_format="ntriples")
        assert self._load_peak(kb, lambda: request) <= MAX_LOAD_PEAK_PER_TRIPLE

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="before 3.11 the caller's stack keeps a "
                               "call's arguments alive until it returns")
    def test_a_wire_request_frees_its_text_before_the_validation(self, kb):
        # as ``POST /graphs`` does: the decoded request is create_graph's
        # alone, so its text is freed once the graph is parsed
        body = json.dumps(ValidationRequest(data=kb[1],
                                            data_format="ntriples").to_json())
        assert self._load_peak(
            kb, lambda: ValidationRequest.from_json(body)) <= MAX_LOAD_PEAK_PER_TRIPLE


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
        # one shared item per (predicate, bits) class
        shared_items = [key for key in context._shared
                        if isinstance(key[0], str)]
        for predicate, (_, _, tests) in context._object_classes.items():
            assert sum(key[0] == predicate.value
                       for key in shared_items) <= 2 ** len(tests)

    def test_equal_closed_signatures_share_one_memo(self, kb):
        session, context = self._session(kb)
        closed = [memo for memo in context._signatures.values() if not memo[1]]
        assert len(closed) > 500
        assert len({id(memo) for memo in closed}) == len(set(closed))
        assert len(set(closed)) < len(closed) // 5

    def test_delta_cycles_do_not_grow_the_item_tables(self, kb):
        session, context = self._session(kb)
        edit = f'{kb[0].valid_entities[0].n3()} <{EX.tag.value}> "cycled" .\n'

        first = None
        for _ in range(50):
            session.apply_delta(DeltaRequest(add=edit))
            session.apply_delta(DeltaRequest(remove=edit))
            assert session.validator._context is context
            if first is None:
                first = len(context._shared)
                assert first
            assert len(context._shared) <= first

    @staticmethod
    def _write_cycles(session, kb, cycles):
        edit = f'{kb[0].valid_entities[0].n3()} <{EX.tag.value}> "cycled" .\n'
        for _ in range(cycles):
            session.apply_delta(DeltaRequest(add=edit))
            session.apply_delta(DeltaRequest(remove=edit))
            yield

    def test_memos_rebuilt_after_writes_share_with_untouched_ones(self, kb):
        session, context = self._session(kb)
        for _ in self._write_cycles(session, kb, 20):
            pass
        closed = [memo for memo in context._signatures.values() if not memo[1]]
        assert len({id(memo) for memo in closed}) == len(set(closed))

    def test_a_write_clears_the_table_only_past_its_bound(self, kb, monkeypatch):
        session, context = self._session(kb)
        size = len(context._shared)
        node = kb[0].valid_entities[0]
        monkeypatch.setattr(schema_module, "MAX_SHARED_SIGNATURE_ENTRIES", size)
        context.retract_nodes([node])
        assert len(context._shared) == size
        monkeypatch.setattr(schema_module, "MAX_SHARED_SIGNATURE_ENTRIES",
                            size - 1)
        context.retract_nodes([node])
        assert not context._shared

    def test_a_small_bound_keeps_the_table_small(self, kb, monkeypatch):
        session, context = self._session(kb)
        full = len(context._shared)
        monkeypatch.setattr(schema_module, "MAX_SHARED_SIGNATURE_ENTRIES", 4)
        sizes = [len(context._shared)
                 for _ in self._write_cycles(session, kb, 20)]
        # each write starts the table afresh: it holds what one round
        # rebuilt, never what earlier rounds left
        assert max(sizes) == sizes[0] < full // 4


def _bucket(graph, subject, predicate):
    return graph._spo[subject][predicate]


class TestBucketRule:
    """A bucket is a tuple up to ``_SMALL`` items and a set past that."""

    def test_a_bucket_is_a_tuple_at_the_bound_and_a_set_past_it(self):
        assert _SMALL == 8
        graph = Graph()
        for index in range(_SMALL):
            graph.add(Triple(EX.s, EX.p, Literal(index)))
        assert type(_bucket(graph, EX.s, EX.p)) is tuple
        assert len(_bucket(graph, EX.s, EX.p)) == _SMALL
        graph.add(Triple(EX.s, EX.p, Literal(_SMALL)))
        assert type(_bucket(graph, EX.s, EX.p)) is set
        assert _bucket(graph, EX.s, EX.p) == {Literal(i) for i in range(_SMALL + 1)}
        assert len(graph) == _SMALL + 1

    def test_adding_an_object_twice_keeps_one(self):
        graph = Graph()
        for _ in range(3):
            graph.add(Triple(EX.s, EX.p, EX.o))
        assert _bucket(graph, EX.s, EX.p) == (EX.o,)
        assert len(graph) == 1

    def test_discards_leave_the_right_contents(self):
        for size in (3, _SMALL, _SMALL + 3):
            graph = Graph(Triple(EX.s, EX.p, Literal(i)) for i in range(size))
            kind = type(_bucket(graph, EX.s, EX.p))
            graph.discard(Triple(EX.s, EX.p, Literal(1)))
            graph.discard(Triple(EX.s, EX.p, Literal(1)))
            graph.discard(Triple(EX.s, EX.p, Literal(size + 5)))
            rest = {Literal(i) for i in range(size) if i != 1}
            assert set(_bucket(graph, EX.s, EX.p)) == rest
            assert type(_bucket(graph, EX.s, EX.p)) is kind
            assert len(graph) == size - 1
            assert set(graph.objects(EX.s, EX.p)) == rest
            for obj in rest:
                graph.discard(Triple(EX.s, EX.p, obj))
            assert EX.s not in graph._spo and len(graph) == 0 and not graph

    def test_a_large_bucket_is_a_set(self):
        graph = Graph(Triple(EX.s, EX.p, Literal(i)) for i in range(100_000))
        assert type(_bucket(graph, EX.s, EX.p)) is set
        assert len(graph) == 100_000
        assert Triple(EX.s, EX.p, Literal(99_999)) in graph

    def test_reverse_buckets_follow_the_same_rule(self):
        graph = Graph(Triple(EX[f"s{i}"], EX.p, EX.o) for i in range(_SMALL))
        assert len(list(graph.triples(predicate=EX.p))) == _SMALL
        assert type(graph._pos[EX.p][EX.o]) is tuple
        graph.add(Triple(EX.s, EX.p, EX.o))
        assert type(graph._pos[EX.p][EX.o]) is set
        graph.discard(Triple(EX.s0, EX.p, EX.o))
        assert set(graph.subjects(EX.p, EX.o)) == (
            {EX[f"s{i}"] for i in range(1, _SMALL)} | {EX.s})

    def test_graphs_built_in_opposite_orders_are_equal(self):
        triples = [Triple(EX[f"s{i % 3}"], EX[f"p{i % 2}"], Literal(i))
                   for i in range(40)]
        forward, backward = Graph(triples), Graph(reversed(triples))
        assert forward == backward
        assert list(forward) != list(backward)
        backward.discard(triples[0])
        assert forward != backward
        backward.add(Triple(EX.s0, EX.p0, Literal("other")))
        assert len(forward) == len(backward) and forward != backward


SUBJECTS = [EX[f"n{i}"] for i in range(12)]
PREDICATES = [EX.p, EX.q]
OBJECTS = SUBJECTS[:4] + [Literal(i) for i in range(8)]
#: any triple, or one of ``n0 p ?o`` (a wide SPO bucket) or ``?s p n0`` (a
#: wide reverse bucket), so sequences cross ``_SMALL`` both ways
TRIPLES = st.one_of(
    st.builds(Triple, st.sampled_from(SUBJECTS),
              st.sampled_from(PREDICATES), st.sampled_from(OBJECTS)),
    st.builds(Triple, st.just(SUBJECTS[0]), st.just(EX.p),
              st.sampled_from(OBJECTS)),
    st.builds(Triple, st.sampled_from(SUBJECTS), st.just(EX.p),
              st.just(OBJECTS[0])))


def _bucket_operations():
    step = st.one_of(
        st.tuples(st.just("add"), TRIPLES),
        st.tuples(st.just("discard"), TRIPLES),
        st.tuples(st.just("add_all"), st.lists(TRIPLES, min_size=20, max_size=60)),
        st.tuples(st.just("remove_all"), st.lists(TRIPLES, max_size=30)),
        st.tuples(st.just("reverse"), st.sampled_from(PREDICATES)),
    )
    return st.lists(step, min_size=1, max_size=16)


def _check_bucket(bucket):
    assert bucket
    if type(bucket) is tuple:
        assert len(bucket) <= _SMALL and len(set(bucket)) == len(bucket)
    else:
        assert type(bucket) is set
    return set(bucket)


class TestBucketsAgainstASetModel:
    @settings(max_examples=150, deadline=None)
    @given(_bucket_operations())
    def test_the_store_agrees_with_a_set_of_triples(self, operations):
        graph, model = Graph(), set()
        for op, arg in operations:
            if op == "add":
                graph.add(arg)
                model.add(arg)
            elif op == "discard":
                graph.discard(arg)
                model.discard(arg)
            elif op == "add_all":
                graph.add_all(arg)
                model.update(arg)
            elif op == "remove_all":
                graph.remove_all(arg)
                model.difference_update(arg)
            else:
                assert set(graph.triples(predicate=arg)) == {
                    t for t in model if t.predicate == arg}
        assert len(graph) == len(model)
        assert set(graph) == model and graph == model
        for triple in (Triple(*spo) for spo in product(SUBJECTS, PREDICATES, OBJECTS)):
            assert (triple in graph) == (triple in model)
        for subject in SUBJECTS:
            view = graph.predicate_objects(subject)
            assert {p: _check_bucket(objects) for p, objects in view.items()} \
                == {p: {t.object for t in model
                        if t.subject == subject and t.predicate == p}
                    for p in {t.predicate for t in model if t.subject == subject}}
        for predicate in PREDICATES:
            assert set(graph.triples(predicate=predicate)) == {
                t for t in model if t.predicate == predicate}
            assert {o: _check_bucket(subjects)
                    for o, subjects in graph._pos[predicate].items()} == {
                o: {t.subject for t in model
                    if t.predicate == predicate and t.object == o}
                for o in {t.object for t in model if t.predicate == predicate}}
