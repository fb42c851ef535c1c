"""Unit tests for the Graph container, its indexes and the paper's graph algebra."""

import pytest

from repro.rdf import (
    BNode,
    EX,
    FOAF,
    Graph,
    Literal,
    Triple,
    decomposition_count,
    decompositions,
)
from repro.rdf.errors import GraphError
from repro.shex import Validator
from repro.workloads import paper_example_graph, person_schema


def triple(suffix_s: str, suffix_p: str, obj) -> Triple:
    return Triple(EX[suffix_s], EX[suffix_p], obj if not isinstance(obj, (int, str)) else Literal(obj))


class TestGraphBasics:
    def test_empty_graph(self):
        graph = Graph()
        assert len(graph) == 0
        assert not graph
        assert list(graph) == []

    def test_add_and_contains(self):
        graph = Graph()
        t = triple("s", "p", 1)
        graph.add(t)
        assert t in graph
        assert len(graph) == 1

    def test_add_is_idempotent(self):
        graph = Graph()
        t = triple("s", "p", 1)
        graph.add(t).add(t)
        assert len(graph) == 1

    def test_add_triple_convenience(self):
        graph = Graph()
        graph.add_triple(EX.s, EX.p, Literal(1))
        assert Triple(EX.s, EX.p, Literal(1)) in graph

    def test_add_rejects_non_triples(self):
        graph = Graph()
        with pytest.raises(GraphError):
            graph.add((EX.s, EX.p, Literal(1)))

    def test_update_from_iterable(self):
        graph = Graph()
        graph.update([triple("s", "p", i) for i in range(5)])
        assert len(graph) == 5

    def test_constructor_accepts_triples(self):
        triples = [triple("s", "p", i) for i in range(3)]
        graph = Graph(triples)
        assert len(graph) == 3

    def test_remove_and_discard(self):
        graph = Graph()
        t = triple("s", "p", 1)
        graph.add(t)
        graph.remove(t)
        assert t not in graph
        graph.discard(t)  # no error on absent triple
        with pytest.raises(GraphError):
            graph.remove(t)

    def test_remove_updates_indexes(self):
        graph = Graph()
        t = triple("s", "p", 1)
        graph.add(t)
        graph.remove(t)
        assert list(graph.triples(EX.s, None, None)) == []
        assert list(graph.triples(None, EX.p, None)) == []
        assert list(graph.triples(None, None, Literal(1))) == []

    def test_clear(self):
        graph = Graph([triple("s", "p", 1)])
        graph.clear()
        assert len(graph) == 0
        assert list(graph.triples(EX.s, None, None)) == []

    def test_equality_with_graph_and_set(self):
        t = triple("s", "p", 1)
        assert Graph([t]) == Graph([t])
        assert Graph([t]) == {t}

    def test_graphs_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(Graph())

    def test_copy_is_independent(self):
        graph = Graph([triple("s", "p", 1)])
        clone = graph.copy()
        clone.add(triple("s", "p", 2))
        assert len(graph) == 1
        assert len(clone) == 2


class TestPatternQueries:
    @pytest.fixture
    def graph(self):
        g = Graph()
        g.add(Triple(EX.john, FOAF.age, Literal(23)))
        g.add(Triple(EX.john, FOAF.name, Literal("John")))
        g.add(Triple(EX.john, FOAF.knows, EX.bob))
        g.add(Triple(EX.bob, FOAF.age, Literal(34)))
        g.add(Triple(EX.bob, FOAF.name, Literal("Bob")))
        return g

    def test_fully_bound_pattern(self, graph):
        assert len(list(graph.triples(EX.john, FOAF.age, Literal(23)))) == 1
        assert len(list(graph.triples(EX.john, FOAF.age, Literal(99)))) == 0

    def test_subject_only(self, graph):
        assert len(list(graph.triples(EX.john, None, None))) == 3

    def test_subject_predicate(self, graph):
        assert len(list(graph.triples(EX.john, FOAF.name, None))) == 1

    def test_predicate_only(self, graph):
        assert len(list(graph.triples(None, FOAF.age, None))) == 2

    def test_predicate_object(self, graph):
        matches = list(graph.triples(None, FOAF.age, Literal(34)))
        assert matches == [Triple(EX.bob, FOAF.age, Literal(34))]

    def test_object_only(self, graph):
        matches = list(graph.triples(None, None, EX.bob))
        assert matches == [Triple(EX.john, FOAF.knows, EX.bob)]

    def test_wildcard_everything(self, graph):
        assert len(list(graph.triples())) == 5

    def test_unknown_subject_is_empty(self, graph):
        assert list(graph.triples(EX.nobody, None, None)) == []

    def test_subjects_predicates_objects(self, graph):
        assert set(graph.subjects(FOAF.age)) == {EX.john, EX.bob}
        assert set(graph.predicates(EX.john)) == {FOAF.age, FOAF.name, FOAF.knows}
        assert set(graph.objects(EX.john, FOAF.knows)) == {EX.bob}

    def test_value_returns_one_or_none(self, graph):
        assert graph.value(EX.john, FOAF.age) == Literal(23)
        assert graph.value(EX.john, FOAF.homepage) is None

    def test_nodes_are_subjects(self, graph):
        assert set(graph.nodes()) == {EX.john, EX.bob}

    def test_all_nodes_include_objects(self, graph):
        assert Literal("Bob") in set(graph.all_nodes())

    def test_degree(self, graph):
        assert graph.degree(EX.john) == 3
        assert graph.degree(EX.nobody) == 0


class TestPaperAlgebra:
    def test_union_preserves_blank_node_identity(self):
        shared = BNode("shared")
        g1 = Graph([Triple(shared, EX.p, Literal(1))])
        g2 = Graph([Triple(shared, EX.q, Literal(2))])
        union = g1 | g2
        assert len(union) == 2
        assert len(set(union.nodes())) == 1  # same blank node, not renamed

    def test_union_does_not_mutate_operands(self):
        g1 = Graph([triple("s", "p", 1)])
        g2 = Graph([triple("s", "p", 2)])
        _ = g1 + g2
        assert len(g1) == 1
        assert len(g2) == 1

    def test_union_merges_namespaces(self):
        g1 = Graph()
        g2 = Graph()
        g2.namespaces.bind("custom", "http://custom.example/")
        union = g1.union(g2)
        assert "custom" in union.namespaces

    def test_neighbourhood_is_sigma_g_n(self):
        graph = Graph()
        graph.add(Triple(EX.n, EX.a, Literal(1)))
        graph.add(Triple(EX.n, EX.b, Literal(1)))
        graph.add(Triple(EX.other, EX.a, Literal(1)))
        graph.add(Triple(EX.x, EX.points_to, EX.n))  # incoming arc is not part of Σgₙ
        neighbourhood = graph.neighbourhood(EX.n)
        assert neighbourhood == {
            Triple(EX.n, EX.a, Literal(1)),
            Triple(EX.n, EX.b, Literal(1)),
        }

    def test_neighbourhood_of_unknown_node_is_empty(self):
        assert Graph().neighbourhood(EX.nobody) == frozenset()

    def test_unknown_node_has_no_out_edges_in_any_view(self):
        graph = Graph([Triple(EX.n, EX.a, Literal(1))])
        ghost = EX.nobody
        assert graph.neighbourhood(ghost) == frozenset()
        assert graph.degree(ghost) == 0
        assert graph.predicate_objects(ghost) == {}
        assert list(graph.triples(subject=ghost)) == []

    def test_example_3_decomposition(self):
        """Example 3: a 3-triple graph has exactly 2³ = 8 decompositions."""
        triples = frozenset({
            Triple(EX.n, EX.a, Literal(1)),
            Triple(EX.n, EX.b, Literal(1)),
            Triple(EX.n, EX.b, Literal(2)),
        })
        pairs = list(decompositions(triples))
        assert len(pairs) == 8
        assert decomposition_count(triples) == 8
        # every pair unions back to the original graph
        for left, right in pairs:
            assert left | right == triples
            assert left & right == frozenset()
        # both trivial splits are present
        assert (frozenset(), triples) in pairs
        assert (triples, frozenset()) in pairs

    def test_decompositions_of_empty_graph(self):
        assert list(decompositions(frozenset())) == [(frozenset(), frozenset())]

    def test_decomposition_count_grows_exponentially(self):
        triples = frozenset(triple("n", "p", i) for i in range(10))
        assert decomposition_count(triples) == 1024


class TestSerialisationDispatch:
    def test_turtle_round_trip(self):
        graph = Graph([Triple(EX.s, FOAF.name, Literal("Ada"))])
        text = graph.serialize("turtle")
        assert Graph.parse(text, format="turtle") == graph

    def test_ntriples_round_trip(self):
        graph = Graph([Triple(EX.s, FOAF.name, Literal("Ada"))])
        text = graph.serialize("ntriples")
        assert Graph.parse(text, format="ntriples") == graph

    def test_unknown_format_raises(self):
        with pytest.raises(GraphError):
            Graph().serialize("rdfxml")
        with pytest.raises(GraphError):
            Graph.parse("", format="rdfxml")


class TestStoreStats:
    def test_counts_triples_and_keeps_no_neighbourhoods(self):
        graph = Graph([Triple(EX.s, FOAF.name, Literal("Ada")),
                       Triple(EX.t, FOAF.name, Literal("Bo"))])
        assert graph.store_stats() == {"triples": 2, "reverse_predicates": 0}
        # a neighbourhood is built on each call and never kept
        assert graph.neighbourhood(EX.s) is not graph.neighbourhood(EX.s)
        graph.add(Triple(EX.s, FOAF.name, Literal("Ada L.")))
        assert graph.store_stats() == {"triples": 3, "reverse_predicates": 0}
        assert len(graph.neighbourhood(EX.s)) == 2

    def test_counts_the_reverse_buckets_built_by_pattern_queries(self):
        graph = Graph([Triple(EX.s, FOAF.name, Literal("Ada")),
                       Triple(EX.s, FOAF.knows, EX.t)])
        list(graph.triples(subject=EX.s))  # SPO answers it: no bucket
        assert graph.store_stats()["reverse_predicates"] == 0
        list(graph.triples(predicate=FOAF.knows, obj=EX.t))
        list(graph.triples(predicate=FOAF.age))  # absent, still built
        assert graph.store_stats()["reverse_predicates"] == 2
        graph.clear()  # a built bucket stays built, and empty
        assert graph.store_stats() == {"triples": 0, "reverse_predicates": 2}
        graph.add(Triple(EX.u, EX.p, Literal("Bo")))
        list(graph.triples(obj=EX.t))  # object-only: every predicate
        assert graph.store_stats()["reverse_predicates"] == 3
        graph.add(Triple(EX.u, EX.q, EX.t))  # ... including later ones
        assert graph.store_stats()["reverse_predicates"] == 4
        assert set(graph.triples(obj=EX.t)) == {Triple(EX.u, EX.q, EX.t)}

    def test_validator_passes_the_graph_counters_through(self):
        graph = paper_example_graph()
        validator = Validator(graph, person_schema())
        validator.validate_graph()
        assert validator.store_stats() == graph.store_stats()
        assert validator.store_stats()["triples"] == len(graph)
