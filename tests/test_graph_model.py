"""Model-based test: :class:`Graph` behaves like a plain ``set`` of triples.

Hypothesis drives random interleaved ``add`` / ``discard`` / ``clear`` /
``batch()`` sequences over a small triple universe.  A Python ``set`` plus
a few counters is the model: after every sequence the graph must agree
with it on the triple set, every neighbourhood (unordered and
predicate-sorted), degrees, per-predicate counts and every triple pattern.
The journal is modelled too — the generation bumps once per *effective*
mutation, a batch journals each touched subject once at its final
generation, ``changes_since`` answers exactly the subjects mutated after
any generation (``None`` before a ``clear``), and raises inside a batch.
Fixed-input tests pin the same contract on the paper's example graph and
on short hand-written edit sequences.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import EX, FOAF, XSD, Graph, GraphError, Literal, Triple
from repro.workloads import paper_example_graph

NODES = [EX[f"n{i}"] for i in range(4)]
PREDICATES = [EX.p, EX.q, EX.r]
OBJECTS = [Literal(1), Literal(2), Literal("x"),
           Literal("3", datatype=XSD.string)] + NODES[:2]
UNIVERSE = [Triple(subject, predicate, obj)
            for subject in NODES
            for predicate in PREDICATES
            for obj in OBJECTS]


def operations() -> st.SearchStrategy[list]:
    edit = st.one_of(
        st.tuples(st.just("add"), st.sampled_from(UNIVERSE)),
        st.tuples(st.just("discard"), st.sampled_from(UNIVERSE)),
    )
    step = st.one_of(edit, edit, edit, st.just(("clear", None)))
    batched = st.tuples(st.just("batch"), st.lists(step, max_size=6))
    return st.lists(st.one_of(step, step, batched), min_size=1, max_size=14)


class Model:
    """The graph's observable state as a set and a per-subject epoch log."""

    def __init__(self, initial):
        self.triples = set(initial)
        self.generation = len(self.triples)
        # Graph(initial) loads in one batch: one record per subject
        self.epochs = {t.subject: self.generation for t in self.triples}
        self.records = len(self.epochs)
        self.floor = 0
        self.batch_dirty = None

    def mutate(self, triple, present: bool) -> None:
        if (triple in self.triples) == present:
            return  # not an effective mutation
        if present:
            self.triples.add(triple)
        else:
            self.triples.discard(triple)
        self.generation += 1
        if self.batch_dirty is not None:
            self.batch_dirty.add(triple.subject)
        else:
            self.epochs[triple.subject] = self.generation
            self.records += 1

    def clear(self) -> None:
        self.triples.clear()
        self.generation += 1
        self.epochs.clear()
        self.floor = self.generation
        if self.batch_dirty is not None:
            self.batch_dirty.clear()

    def end_batch(self) -> None:
        for subject in self.batch_dirty:
            self.epochs[subject] = self.generation
        self.records += len(self.batch_dirty)
        self.batch_dirty = None

    def changes_since(self, generation):
        if generation < self.floor:
            return None
        return frozenset(subject for subject, epoch in self.epochs.items()
                         if epoch > generation)

    def neighbourhood(self, node):
        return frozenset(t for t in self.triples if t.subject == node)


def _step(graph: Graph, model: Model, kind, triple) -> None:
    if kind == "add":
        graph.add(triple)
        model.mutate(triple, True)
    elif kind == "discard":
        graph.discard(triple)
        model.mutate(triple, False)
    else:
        graph.clear()
        model.clear()


def _run(graph: Graph, model: Model, ops) -> None:
    for kind, payload in ops:
        if kind != "batch":
            _step(graph, model, kind, payload)
            continue
        model.batch_dirty = set()
        with graph.batch():
            for inner_kind, triple in payload:
                _step(graph, model, inner_kind, triple)
                # reads inside the batch see every mutation immediately
                assert graph.to_set() == model.triples
                if triple is not None:
                    assert graph.neighbourhood(triple.subject) \
                        == model.neighbourhood(triple.subject)
                assert graph.generation == model.generation
            with pytest.raises(GraphError):
                graph.changes_since(0)
        model.end_batch()


def _check_contents(graph: Graph, model: Model) -> None:
    assert graph.to_set() == model.triples
    assert set(graph) == model.triples
    assert len(graph) == len(model.triples)
    assert bool(graph) == bool(model.triples)
    assert graph == model.triples and graph == Graph(model.triples)
    for triple in UNIVERSE:
        assert (triple in graph) == (triple in model.triples)
    assert set(graph.nodes()) == {t.subject for t in model.triples}
    assert set(graph.all_nodes()) \
        == {t.subject for t in model.triples} | {t.object for t in model.triples}
    for node in NODES + OBJECTS[:1]:
        expected = model.neighbourhood(node)
        assert graph.neighbourhood(node) == expected
        assert graph.degree(node) == len(expected)
        counts = {}
        for triple in expected:
            counts[triple.predicate] = counts.get(triple.predicate, 0) + 1
        assert {p: set(objects)
                for p, objects in graph.predicate_objects(node).items()} \
            == {p: {t.object for t in expected if t.predicate == p}
                for p in counts}


def _check_patterns(graph: Graph, model: Model) -> None:
    for s, p, o in product(NODES + [None], PREDICATES + [None],
                           OBJECTS + [None]):
        matched = list(graph.triples(s, p, o))
        assert len(matched) == len(set(matched))  # no duplicates
        assert set(matched) == {
            t for t in model.triples
            if (s is None or t.subject == s)
            and (p is None or t.predicate == p)
            and (o is None or t.object == o)}


def _check_journal(graph: Graph, model: Model) -> None:
    assert graph.generation == model.generation
    assert graph.journal.stats()["records"] == model.records
    for generation in range(model.generation + 1):
        assert graph.changes_since(generation) \
            == model.changes_since(generation)


class TestGraphAgainstASetModel:
    @settings(max_examples=80, deadline=None)
    @given(initial=st.lists(st.sampled_from(UNIVERSE), max_size=8),
           ops=operations())
    def test_every_observable_matches_the_model(self, initial, ops):
        graph, model = Graph(initial), Model(initial)
        _run(graph, model, ops)
        _check_contents(graph, model)
        _check_patterns(graph, model)
        _check_journal(graph, model)

    @settings(max_examples=40, deadline=None)
    @given(initial=st.lists(st.sampled_from(UNIVERSE), max_size=8),
           ops=operations())
    def test_pattern_queries_match_the_model(self, initial, ops):
        graph, model = Graph(initial), Model(initial)
        _run(graph, model, ops)
        _check_patterns(graph, model)


#: a universe small enough that edits often hit present triples and
#: queries often bind their predicate and object; it has a cycle and a
#: literal, and one query predicate (``EX.r``) never occurs in it.
SMALL_OBJECTS = [Literal(1)] + NODES[:2]
SMALL_UNIVERSE = [Triple(subject, predicate, obj)
                  for subject in NODES[:2]
                  for predicate in PREDICATES[:2]
                  for obj in SMALL_OBJECTS]
#: every pattern shape, subject-free ones (the reverse-bucket reads) included
QUERY_PATTERNS = list(product(NODES[:2] + [None], PREDICATES + [None],
                              SMALL_OBJECTS + [None]))


def queried_operations() -> st.SearchStrategy[list]:
    """Edit sequences in which every step, batches and the steps inside them
    included, carries a pattern to query just before it runs; half the
    patterns are subject-free, the shapes that read (and build) reverse
    buckets."""
    subject_free = [pattern for pattern in QUERY_PATTERNS if pattern[0] is None]
    pattern = st.one_of(st.sampled_from(subject_free),
                        st.sampled_from(QUERY_PATTERNS))
    edit = st.tuples(st.sampled_from(["add", "discard"]),
                     st.sampled_from(SMALL_UNIVERSE), pattern)
    step = st.one_of(edit, edit, edit,
                     st.tuples(st.just("clear"), st.none(), pattern))
    batched = st.tuples(st.just("batch"), st.lists(step, max_size=6), pattern)
    return st.lists(st.one_of(step, step, batched), min_size=1, max_size=16)


def _check_pattern(graph: Graph, model: Model, pattern) -> None:
    s, p, o = pattern
    matched = list(graph.triples(s, p, o))
    assert len(matched) == len(set(matched))  # no duplicates
    assert set(matched) == {
        t for t in model.triples
        if (s is None or t.subject == s)
        and (p is None or t.predicate == p)
        and (o is None or t.object == o)}


def _run_querying(graph: Graph, model: Model, ops) -> None:
    for kind, payload, pattern in ops:
        _check_pattern(graph, model, pattern)
        if kind == "batch":
            model.batch_dirty = set()
            with graph.batch():
                _run_querying(graph, model, payload)
            model.end_batch()
        else:
            _step(graph, model, kind, payload)


class TestGraphWithAWarmReverseIndex:
    """A reverse bucket is built by the first query binding its predicate
    (every predicate's by an object-only query) and must stay exact through
    every later edit, so queries are issued at random points of the edit
    sequence, not only after it."""

    @settings(max_examples=200, deadline=None)
    @given(initial=st.lists(st.sampled_from(SMALL_UNIVERSE), max_size=8),
           ops=queried_operations())
    def test_queries_between_edits_match_the_model(self, initial, ops):
        graph, model = Graph(initial), Model(initial)
        _run_querying(graph, model, ops)
        _check_contents(graph, model)
        _check_patterns(graph, model)
        _check_journal(graph, model)


def _matching(triples, subject=None, predicate=None, obj=None):
    return {t for t in triples
            if (subject is None or t.subject == subject)
            and (predicate is None or t.predicate == predicate)
            and (obj is None or t.object == obj)}


class TestGraphOnThePaperExample:
    """Fixed-input checks of the paper's example graph against its triple set."""

    @pytest.fixture
    def example(self):
        graph = paper_example_graph()
        return graph, set(graph.to_set())

    def test_membership_and_patterns(self, example):
        graph, triples = example
        for triple in triples:
            assert triple in graph
        assert Triple(EX.john, FOAF.name, Literal("Nobody")) not in graph
        for pattern in [dict(subject=EX.john), dict(predicate=FOAF.age),
                        dict(obj=EX.bob),
                        dict(subject=EX.john, predicate=FOAF.name)]:
            assert set(graph.triples(**pattern)) \
                == _matching(triples, **pattern)
        assert _matching(triples, obj=EX.bob)  # the in-edge pattern is not vacuous

    def test_neighbourhoods_and_degrees(self, example):
        graph, triples = example
        subjects = {t.subject for t in triples}
        assert set(graph.nodes()) == subjects
        for node in subjects:
            expected = _matching(triples, subject=node)
            assert graph.neighbourhood(node) == expected
            assert graph.degree(node) == len(expected)
            counts = {}
            for triple in expected:
                counts[triple.predicate] = counts.get(triple.predicate, 0) + 1
            assert {p: len(objects) for p, objects
                    in graph.predicate_objects(node).items()} == counts


class TestGraphMutationsAndJournal:
    def test_discard_keeps_the_rest_of_the_subject(self):
        graph = Graph()
        age, name = (Triple(EX.a, FOAF.age, Literal(1)),
                     Triple(EX.a, FOAF.name, Literal("A")))
        other = Triple(EX.b, FOAF.age, Literal(2))
        graph.add(age).add(name).add(other)
        graph.discard(other)
        assert other not in graph
        assert list(graph.triples(subject=EX.b)) == []
        graph.discard(age)
        assert age not in graph
        assert len(graph) == 1
        assert set(graph.triples(subject=EX.a)) == {name}
        assert graph.neighbourhood(EX.a) == {name}

    def test_discarded_triple_can_be_re_added(self):
        graph = Graph()
        triple = Triple(EX.a, FOAF.age, Literal(1))
        graph.add(triple)
        graph.discard(triple)
        assert triple not in graph and len(graph) == 0
        assert graph.neighbourhood(EX.a) == frozenset()
        graph.add(triple)
        assert triple in graph and len(graph) == 1
        assert graph.neighbourhood(EX.a) == {triple}

    def test_generation_and_changes_since_track_edits(self):
        graph = Graph()
        start = graph.generation
        graph.add(Triple(EX.a, FOAF.age, Literal(1)))
        after_a = graph.generation
        graph.add(Triple(EX.b, FOAF.age, Literal(2)))
        after_b = graph.generation
        graph.discard(Triple(EX.a, FOAF.age, Literal(1)))
        graph.add(Triple(EX.a, FOAF.name, Literal("A")))
        graph.discard(Triple(EX.c, FOAF.age, Literal(3)))  # absent: no change
        assert graph.generation - start == 4
        assert graph.changes_since(start) == frozenset({EX.a, EX.b})
        assert graph.changes_since(after_a) == frozenset({EX.a, EX.b})
        assert graph.changes_since(after_b) == frozenset({EX.a})
        assert graph.changes_since(graph.generation) == frozenset()

    def test_batch_coalesces_and_blocks_changes_since(self):
        graph = Graph()
        before = graph.generation
        records = graph.journal.stats()["records"]
        with graph.batch():
            graph.add(Triple(EX.a, FOAF.age, Literal(1)))
            graph.add(Triple(EX.a, FOAF.name, Literal("A")))
            with pytest.raises(GraphError):
                graph.changes_since(before)
        assert graph.changes_since(before) == frozenset({EX.a})
        assert graph.journal.stats()["records"] == records + 1
