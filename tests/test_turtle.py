"""Unit tests for the Turtle parser and serialiser."""

import pytest

from repro.rdf import BNode, EX, FOAF, Graph, IRI, Literal, RDF, Triple, XSD, parse_turtle
from repro.rdf.errors import ParseError
from repro.rdf.turtle import MAX_NESTING_DEPTH
from repro.workloads import (PAPER_EXAMPLE_TURTLE, generate_person_workload,
                             generate_portal_workload)


class TestDirectives:
    def test_at_prefix(self):
        graph = parse_turtle("@prefix ex: <http://example.org/> .\nex:s ex:p ex:o .")
        assert Triple(EX.s, EX.p, EX.o) in graph

    def test_sparql_style_prefix(self):
        graph = parse_turtle("PREFIX ex: <http://example.org/>\nex:s ex:p ex:o .")
        assert Triple(EX.s, EX.p, EX.o) in graph

    def test_empty_prefix(self):
        graph = parse_turtle("@prefix : <http://example.org/> .\n:s :p :o .")
        assert Triple(EX.s, EX.p, EX.o) in graph

    def test_base_resolution(self):
        graph = parse_turtle("@base <http://example.org/> .\n<s> <p> <o> .")
        assert Triple(EX.s, EX.p, EX.o) in graph

    def test_unknown_prefix_raises(self):
        with pytest.raises(ParseError):
            parse_turtle("ex:s ex:p ex:o .")

    def test_prefixes_survive_into_graph(self):
        graph = parse_turtle("@prefix ex: <http://example.org/> .\nex:s ex:p ex:o .")
        assert graph.namespaces.expand("ex:s") == EX.s


class TestTriplesSyntax:
    def test_predicate_object_lists(self):
        graph = parse_turtle("""
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            @prefix : <http://example.org/> .
            :john foaf:age 23 ; foaf:name "John" ; foaf:knows :bob .
        """)
        assert len(graph) == 3
        assert Triple(EX.john, FOAF.age, Literal(23)) in graph

    def test_object_lists(self):
        graph = parse_turtle("""
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            @prefix : <http://example.org/> .
            :bob foaf:name "Bob", "Robert" .
        """)
        assert len(graph) == 2

    def test_a_keyword_is_rdf_type(self):
        graph = parse_turtle("""
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            @prefix : <http://example.org/> .
            :john a foaf:Person .
        """)
        assert Triple(EX.john, RDF.type, FOAF.Person) in graph

    def test_trailing_semicolon_before_dot(self):
        graph = parse_turtle("""
            @prefix : <http://example.org/> .
            :s :p :o ; .
        """)
        assert len(graph) == 1

    def test_blank_node_label(self):
        graph = parse_turtle("@prefix : <http://example.org/> .\n_:x :p :o .")
        assert Triple(BNode("x"), EX.p, EX.o) in graph

    def test_anonymous_blank_node_object(self):
        graph = parse_turtle("""
            @prefix : <http://example.org/> .
            :s :p [ :q 1 ; :r 2 ] .
        """)
        assert len(graph) == 3
        inner = next(t.object for t in graph if t.predicate == EX.p)
        assert isinstance(inner, BNode)
        assert graph.value(inner, EX.q) == Literal(1)

    def test_anonymous_blank_node_as_subject(self):
        graph = parse_turtle("""
            @prefix : <http://example.org/> .
            [ :p 1 ] :q 2 .
        """)
        assert len(graph) == 2

    def test_collections(self):
        graph = parse_turtle("""
            @prefix : <http://example.org/> .
            :s :p ( 1 2 3 ) .
        """)
        head = graph.value(EX.s, EX.p)
        items = []
        current = head
        while current != RDF.nil:
            items.append(graph.value(current, RDF.first))
            current = graph.value(current, RDF.rest)
        assert items == [Literal(1), Literal(2), Literal(3)]

    def test_empty_collection_is_rdf_nil(self):
        graph = parse_turtle("@prefix : <http://example.org/> .\n:s :p ( ) .")
        assert graph.value(EX.s, EX.p) == RDF.nil


class TestLiterals:
    def test_integer_decimal_double_boolean_shorthand(self):
        graph = parse_turtle("""
            @prefix : <http://example.org/> .
            :s :int 42 ; :dec 3.14 ; :dbl 1.0e3 ; :flag true .
        """)
        assert graph.value(EX.s, EX.int) == Literal("42", datatype=XSD.integer)
        assert graph.value(EX.s, EX.dec) == Literal("3.14", datatype=XSD.decimal)
        assert graph.value(EX.s, EX.dbl) == Literal("1.0e3", datatype=XSD.double)
        assert graph.value(EX.s, EX.flag) == Literal("true", datatype=XSD.boolean)

    def test_language_tag(self):
        graph = parse_turtle('@prefix : <http://example.org/> .\n:s :p "chat"@fr .')
        assert graph.value(EX.s, EX.p) == Literal("chat", lang="fr")

    def test_datatyped_literal_with_prefixed_datatype(self):
        graph = parse_turtle("""
            @prefix : <http://example.org/> .
            @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
            :s :p "2021-01-01"^^xsd:date .
        """)
        assert graph.value(EX.s, EX.p) == Literal("2021-01-01", datatype=XSD.date)

    def test_long_string(self):
        graph = parse_turtle('@prefix : <http://example.org/> .\n:s :p """multi\nline""" .')
        assert graph.value(EX.s, EX.p).lexical == "multi\nline"

    def test_single_quoted_string(self):
        graph = parse_turtle("@prefix : <http://example.org/> .\n:s :p 'hello' .")
        assert graph.value(EX.s, EX.p) == Literal("hello")

    def test_escapes_in_string(self):
        graph = parse_turtle('@prefix : <http://example.org/> .\n:s :p "a\\"b\\nc" .')
        assert graph.value(EX.s, EX.p).lexical == 'a"b\nc'

    def test_negative_numbers(self):
        graph = parse_turtle("@prefix : <http://example.org/> .\n:s :p -5 .")
        assert graph.value(EX.s, EX.p) == Literal("-5", datatype=XSD.integer)


class TestErrors:
    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse_turtle("@prefix : <http://example.org/> .\n:s :p :o")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_turtle("@prefix : <http://example.org/> .\n:s :p @@nonsense .")
        assert info.value.line == 2

    def test_a_in_object_position_rejected(self):
        with pytest.raises(ParseError):
            parse_turtle("@prefix : <http://example.org/> .\n:s :p a .")

    def test_comments_are_ignored(self):
        graph = parse_turtle("""
            @prefix : <http://example.org/> . # bind the prefix
            # a full-line comment
            :s :p :o . # trailing comment
        """)
        assert len(graph) == 1


def _nested_turtle(depth: int, opener: str, closer: str) -> str:
    return (":s :p " + opener * depth + ":o" + closer * depth + " .\n")


class TestNestingDepth:
    """Nesting is bounded explicitly, never by the interpreter's stack."""

    PREFIX = "@prefix : <http://example.org/> .\n"

    @pytest.mark.parametrize("depth", [MAX_NESTING_DEPTH - 1, MAX_NESTING_DEPTH])
    def test_blank_node_property_lists_up_to_the_bound(self, depth):
        graph = parse_turtle(self.PREFIX + _nested_turtle(depth, "[ :p ", " ]"))
        assert len(graph) == depth + 1

    @pytest.mark.parametrize("depth", [MAX_NESTING_DEPTH - 1, MAX_NESTING_DEPTH])
    def test_collections_up_to_the_bound(self, depth):
        graph = parse_turtle(self.PREFIX + _nested_turtle(depth, "( ", " )"))
        # every level is one list cell: an rdf:first and an rdf:rest arc
        assert len(graph) == 2 * depth + 1

    @pytest.mark.parametrize("opener,closer", [("[ :p ", " ]"), ("( ", " )")])
    def test_one_level_past_the_bound_is_a_positioned_parse_error(
            self, opener, closer):
        text = _nested_turtle(MAX_NESTING_DEPTH + 1, opener, closer)
        with pytest.raises(ParseError) as info:
            parse_turtle(self.PREFIX + text)
        assert "nesting deeper than" in str(info.value)
        # the error points at the first opener past the bound
        assert info.value.line == 2
        assert info.value.column == 1 + len(":s :p ") \
            + MAX_NESTING_DEPTH * len(opener)

    def test_mixed_nesting_shares_one_bound(self):
        half = MAX_NESTING_DEPTH // 2 + 1
        text = ":s :p " + "[ :p ( " * half + ":o" + " ) ]" * half + " .\n"
        with pytest.raises(ParseError):
            parse_turtle(self.PREFIX + text)


class TestSerialiser:
    def test_round_trip_paper_example(self):
        from repro.workloads import PAPER_EXAMPLE_TURTLE

        graph = parse_turtle(PAPER_EXAMPLE_TURTLE)
        assert parse_turtle(graph.serialize("turtle")) == graph

    def test_round_trip_with_varied_literals(self):
        graph = Graph([
            Triple(EX.s, EX.p, Literal(42)),
            Triple(EX.s, EX.p, Literal("text")),
            Triple(EX.s, EX.p, Literal("chat", lang="fr")),
            Triple(EX.s, EX.p, Literal("2021-01-01", datatype=XSD.date)),
            Triple(EX.s, EX.q, Literal(True)),
            Triple(EX.s, EX.q, Literal("3.5", datatype=XSD.decimal)),
            Triple(BNode("b"), EX.p, EX.o),
        ])
        assert parse_turtle(graph.serialize("turtle")) == graph

    def test_uses_a_for_rdf_type(self):
        graph = Graph([Triple(EX.john, RDF.type, FOAF.Person)])
        assert " a " in graph.serialize("turtle")

    def test_groups_subjects_and_predicates(self):
        graph = parse_turtle("""
            @prefix : <http://example.org/> .
            :s :p 1, 2 ; :q 3 .
        """)
        text = graph.serialize("turtle")
        # one subject block, commas for the object list
        assert text.count(":s") == 1
        assert "1, 2" in text

    def test_unknown_namespace_falls_back_to_full_iri(self):
        graph = Graph([Triple(IRI("http://nowhere.example/x"), EX.p, Literal(1))])
        assert "<http://nowhere.example/x>" in graph.serialize("turtle")


#: collections, property lists, and triples written twice (once through
#: equal literals in different forms).
NESTED_TURTLE = """@prefix : <http://example.org/> .
:s :p ( 1 2 3 ) , [ :q "x" ; :r ( ) ] ;
   :p ( 1 2 3 ) .
[ :p 1 ] :q 2 .
:s :p "a" , "a"^^<http://www.w3.org/2001/XMLSchema#string> , "q"@en , "q"@EN .
:t a :C ; a :C .
"""


def _turtle_documents():
    return {
        "paper": PAPER_EXAMPLE_TURTLE,
        "nested": NESTED_TURTLE,
        "person": generate_person_workload(num_people=40, seed=3)
        .graph.serialize("turtle"),
        "portal": generate_portal_workload(num_datasets=20, seed=3)
        .graph.serialize("turtle"),
    }


class TestGraphBuild:
    """``parse_turtle`` fills its graph in one pass (``Graph.fill``): the
    graph, its generation and its journal are what one batch of ``add``
    calls leaves, and the figures a batch of ``add`` calls gave."""

    @pytest.mark.parametrize("name, triples, subjects", [
        ("paper", 8, 3), ("nested", 22, 10), ("person", 446, 40),
        ("portal", 243, 62),
    ])
    def test_generation_and_journal_are_those_of_a_batch_of_adds(
            self, name, triples, subjects):
        graph = parse_turtle(_turtle_documents()[name])
        reference = Graph()
        with reference.batch():
            for triple in graph:
                reference.add(triple)
        assert graph == reference
        assert (len(graph), graph.generation) == (triples, triples)
        assert graph.generation == reference.generation
        assert graph.journal.stats() == reference.journal.stats()
        assert graph.journal.stats()["records"] == subjects
        changed = graph.journal.changes_since(0)
        assert changed == reference.journal.changes_since(0)
        assert changed == set(graph.nodes())
        assert graph.journal.changes_since(graph.generation) == frozenset()
