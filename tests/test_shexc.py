"""Tests for the ShEx compact syntax parser and serialiser."""

import pytest

from repro.rdf import EX, FOAF, IRI, Literal, RDF, XSD
from repro.rdf.errors import ParseError
from repro.shex import (
    AnyValue,
    Arc,
    ConstraintOr,
    DatatypeConstraint,
    IRIStem,
    LanguageTag,
    NodeKind,
    Schema,
    ShapeLabel,
    ShapeRef,
    Star,
    ValueSet,
    Validator,
    iter_subexpressions,
    parse_shexc,
    serialize_shexc,
)
from repro.shex.shexc import MAX_NESTING_DEPTH
from repro.workloads import paper_example_graph


def arcs_of(schema: Schema, label: str):
    return [sub for sub in iter_subexpressions(schema.expression(label))
            if isinstance(sub, Arc)]


class TestDirectives:
    def test_prefix_and_base(self):
        schema = parse_shexc("""
            BASE <http://example.org/>
            PREFIX foaf: <http://xmlns.com/foaf/0.1/>
            <S> { foaf:name . }
        """)
        # relative shape labels are resolved against the BASE
        assert ShapeLabel("http://example.org/S") in schema

    def test_start_declaration(self):
        schema = parse_shexc("""
            PREFIX ex: <http://example.org/>
            start = @<B>
            <A> { ex:p . }
            <B> { ex:q . }
        """)
        assert schema.start == ShapeLabel("B")

    def test_single_shape_becomes_start_implicitly(self):
        schema = parse_shexc("PREFIX ex: <http://example.org/>\n<Only> { ex:p . }")
        assert schema.start == ShapeLabel("Only")

    def test_unknown_prefix_raises(self):
        with pytest.raises(ParseError):
            parse_shexc("<S> { foaf:name . }")

    def test_empty_document_raises(self):
        with pytest.raises(ParseError):
            parse_shexc("PREFIX ex: <http://example.org/>")

    def test_duplicate_shape_raises(self):
        with pytest.raises(ParseError):
            parse_shexc("""
                PREFIX ex: <http://example.org/>
                <S> { ex:p . }
                <S> { ex:q . }
            """)


class TestTripleConstraints:
    def test_example_1_schema_structure(self):
        schema = parse_shexc("""
            PREFIX foaf: <http://xmlns.com/foaf/0.1/>
            PREFIX xsd:  <http://www.w3.org/2001/XMLSchema#>
            <Person> {
              foaf:age   xsd:integer ,
              foaf:name  xsd:string + ,
              foaf:knows @<Person> *
            }
        """)
        arcs = arcs_of(schema, "Person")
        predicates = {arc.predicate.sample() for arc in arcs}
        assert predicates == {FOAF.age, FOAF.name, FOAF.knows}
        age_arc = next(arc for arc in arcs if arc.predicate.sample() == FOAF.age)
        assert isinstance(age_arc.object, DatatypeConstraint)
        assert age_arc.object.datatype == XSD.integer
        knows_arc = next(arc for arc in arcs if arc.predicate.sample() == FOAF.knows)
        assert isinstance(knows_arc.object, ShapeRef)

    def test_semicolon_and_comma_are_interchangeable(self):
        with_comma = parse_shexc("""
            PREFIX ex: <http://example.org/>
            <S> { ex:a [ 1 ] , ex:b [ 2 ] }
        """)
        with_semicolon = parse_shexc("""
            PREFIX ex: <http://example.org/>
            <S> { ex:a [ 1 ] ; ex:b [ 2 ] }
        """)
        assert with_comma.expression("S") == with_semicolon.expression("S")

    def test_alternatives_with_pipe(self):
        schema = parse_shexc("""
            PREFIX ex: <http://example.org/>
            <S> { ex:a [ 1 ] | ex:b [ 2 ] }
        """)
        from repro.shex import matches
        from repro.rdf import Triple

        expr = schema.expression("S")
        assert matches(expr, [Triple(EX.n, EX.a, Literal(1))])
        assert matches(expr, [Triple(EX.n, EX.b, Literal(2))])
        assert not matches(expr, [Triple(EX.n, EX.a, Literal(1)),
                                  Triple(EX.n, EX.b, Literal(2))])

    def test_a_keyword_predicate(self):
        schema = parse_shexc("""
            PREFIX foaf: <http://xmlns.com/foaf/0.1/>
            <S> { a [ foaf:Person ] }
        """)
        arc = arcs_of(schema, "S")[0]
        assert arc.predicate.sample() == RDF.type

    def test_empty_shape_accepts_only_empty_neighbourhood(self):
        schema = parse_shexc("PREFIX ex: <http://example.org/>\n<S> { }")
        from repro.shex import matches
        from repro.rdf import Triple

        assert matches(schema.expression("S"), [])
        assert not matches(schema.expression("S"), [Triple(EX.n, EX.a, Literal(1))])

    def test_group_with_cardinality(self):
        schema = parse_shexc("""
            PREFIX ex: <http://example.org/>
            <S> { ( ex:a [ 1 ] ; ex:b [ 1 ] ) ? }
        """)
        from repro.shex import matches
        from repro.rdf import Triple

        expr = schema.expression("S")
        assert matches(expr, [])
        assert matches(expr, [Triple(EX.n, EX.a, Literal(1)), Triple(EX.n, EX.b, Literal(1))])
        assert not matches(expr, [Triple(EX.n, EX.a, Literal(1))])


class TestCardinalities:
    @pytest.fixture
    def schema(self):
        return parse_shexc("""
            PREFIX ex: <http://example.org/>
            <S> {
              ex:star  [ 1 2 3 ] * ,
              ex:plus  [ 1 2 3 ] + ,
              ex:opt   [ 1 ] ? ,
              ex:exact [ 1 2 3 ] {2} ,
              ex:range [ 1 2 3 ] {1,3} ,
              ex:open  [ 1 2 3 ] {2,}
            }
        """)

    def test_star_arc_present(self, schema):
        stars = [sub for sub in iter_subexpressions(schema.expression("S"))
                 if isinstance(sub, Star)]
        assert stars  # at least the * and the expansions of + and {2,}

    def test_cardinality_semantics(self):
        from repro.shex import matches
        from repro.rdf import Triple

        schema = parse_shexc("""
            PREFIX ex: <http://example.org/>
            <S> { ex:p [ 1 2 3 4 ] {2,3} }
        """)
        expr = schema.expression("S")
        def neighbourhood(count):
            return [Triple(EX.n, EX.p, Literal(i + 1)) for i in range(count)]
        assert not matches(expr, neighbourhood(1))
        assert matches(expr, neighbourhood(2))
        assert matches(expr, neighbourhood(3))
        assert not matches(expr, neighbourhood(4))

    def test_exact_repeat_bounds(self):
        from repro.shex.shexc import _parse_repeat_bounds

        assert _parse_repeat_bounds("{3}") == (3, 3)
        assert _parse_repeat_bounds("{1,4}") == (1, 4)
        assert _parse_repeat_bounds("{2,}") == (2, None)
        assert _parse_repeat_bounds("{2,*}") == (2, None)


class TestValueExpressions:
    def test_wildcard(self):
        schema = parse_shexc("PREFIX ex: <http://example.org/>\n<S> { ex:p . }")
        assert isinstance(arcs_of(schema, "S")[0].object, AnyValue)

    def test_node_kinds(self):
        schema = parse_shexc("""
            PREFIX ex: <http://example.org/>
            <S> { ex:i IRI , ex:b BNODE , ex:l LITERAL , ex:n NONLITERAL }
        """)
        kinds = {arc.predicate.sample().value.rsplit("/", 1)[-1]: arc.object.kind
                 for arc in arcs_of(schema, "S")}
        assert kinds == {"i": NodeKind.IRI, "b": NodeKind.BNODE,
                         "l": NodeKind.LITERAL, "n": NodeKind.NONLITERAL}

    def test_value_set_with_literals_and_iris(self):
        schema = parse_shexc("""
            PREFIX ex: <http://example.org/>
            <S> { ex:p [ 1 2.5 "text" "chat"@fr true ex:thing ] }
        """)
        constraint = arcs_of(schema, "S")[0].object
        assert isinstance(constraint, ValueSet)
        assert constraint.matches(Literal("1", datatype=XSD.integer))
        assert constraint.matches(Literal("2.5", datatype=XSD.decimal))
        assert constraint.matches(Literal("text"))
        assert constraint.matches(Literal("chat", lang="fr"))
        assert constraint.matches(Literal("true", datatype=XSD.boolean))
        assert constraint.matches(EX.thing)
        assert not constraint.matches(EX.other)

    def test_value_set_with_stem(self):
        schema = parse_shexc("""
            PREFIX ex: <http://example.org/>
            <S> { ex:p [ <http://example.org/colours/>~ ] }
        """)
        constraint = arcs_of(schema, "S")[0].object
        assert isinstance(constraint, IRIStem)
        assert constraint.matches(IRI("http://example.org/colours/red"))
        assert not constraint.matches(EX.thing)

    def test_mixed_value_set_with_stem_builds_disjunction(self):
        schema = parse_shexc("""
            PREFIX ex: <http://example.org/>
            <S> { ex:p [ ex:red ex:~ ] }
        """)
        constraint = arcs_of(schema, "S")[0].object
        assert isinstance(constraint, ConstraintOr)
        assert constraint.matches(EX.red)
        assert constraint.matches(EX.anything)

    def test_language_tag_constraint(self):
        schema = parse_shexc("PREFIX ex: <http://example.org/>\n<S> { ex:label @en }")
        constraint = arcs_of(schema, "S")[0].object
        assert isinstance(constraint, LanguageTag)
        assert constraint.matches(Literal("colour", lang="en"))

    def test_facets_on_datatypes(self):
        schema = parse_shexc("""
            PREFIX ex:  <http://example.org/>
            PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
            <S> { ex:age xsd:integer MININCLUSIVE 0 MAXINCLUSIVE 150 ,
                  ex:code xsd:string LENGTH 4 ,
                  ex:id xsd:string PATTERN "^[A-Z]+$" }
        """)
        arcs = {arc.predicate.sample().value.rsplit("/", 1)[-1]: arc.object
                for arc in arcs_of(schema, "S")}
        assert arcs["age"].facets.min_inclusive == 0
        assert arcs["age"].facets.max_inclusive == 150
        assert arcs["code"].facets.length == 4
        assert arcs["id"].facets.pattern == "^[A-Z]+$"

    def test_empty_value_set_rejected(self):
        with pytest.raises(ParseError):
            parse_shexc("PREFIX ex: <http://example.org/>\n<S> { ex:p [ ] }")

    def test_shape_reference_to_prefixed_label(self):
        schema = parse_shexc("""
            PREFIX ex: <http://example.org/>
            <A> { ex:child @ex:B * }
            ex:B { ex:leaf [ 1 ] }
        """)
        reference = arcs_of(schema, "A")[0].object
        assert isinstance(reference, ShapeRef)
        assert reference.label == ShapeLabel(EX.B.value)


def _nested_groups(depth: int) -> str:
    return ("PREFIX ex: <http://example.org/>\n<S> { "
            + "( " * depth + "ex:p ." + " )" * depth + " }\n")


class TestNestingDepth:
    """Group nesting is bounded explicitly, never by the interpreter's stack."""

    @pytest.mark.parametrize("depth", [MAX_NESTING_DEPTH - 1, MAX_NESTING_DEPTH])
    def test_groups_up_to_the_bound(self, depth):
        schema = parse_shexc(_nested_groups(depth))
        assert len(arcs_of(schema, "S")) == 1

    def test_one_level_past_the_bound_is_a_positioned_parse_error(self):
        with pytest.raises(ParseError) as info:
            parse_shexc(_nested_groups(MAX_NESTING_DEPTH + 1))
        assert "nested deeper than" in str(info.value)
        assert info.value.line == 2
        assert info.value.column == 1 + len("<S> { ") + MAX_NESTING_DEPTH * 2

    def test_nesting_resets_between_shapes(self):
        text = _nested_groups(MAX_NESTING_DEPTH) + (
            "<T> { " + "( " * MAX_NESTING_DEPTH + "ex:q ."
            + " )" * MAX_NESTING_DEPTH + " }\n")
        assert len(parse_shexc(text)) == 2


class TestSerialiser:
    def test_round_trip_preserves_verdicts(self):
        original = parse_shexc("""
            PREFIX foaf: <http://xmlns.com/foaf/0.1/>
            PREFIX xsd:  <http://www.w3.org/2001/XMLSchema#>
            <Person> {
              foaf:age   xsd:integer ,
              foaf:name  xsd:string + ,
              foaf:knows @<Person> *
            }
        """)
        reparsed = parse_shexc(serialize_shexc(original))
        graph = paper_example_graph()
        verdict_original = Validator(graph, original).conforming_nodes("Person")
        verdict_reparsed = Validator(graph, reparsed).conforming_nodes("Person")
        assert verdict_original == verdict_reparsed == [EX.bob, EX.john]

    def test_serialiser_compacts_known_namespaces(self):
        schema = parse_shexc("""
            PREFIX foaf: <http://xmlns.com/foaf/0.1/>
            PREFIX xsd:  <http://www.w3.org/2001/XMLSchema#>
            <S> { foaf:age xsd:integer }
        """)
        text = serialize_shexc(schema)
        assert "foaf:age" in text
        assert "xsd:integer" in text
        assert "PREFIX foaf:" in text

    def test_serialiser_renders_cardinalities(self):
        schema = parse_shexc("""
            PREFIX ex: <http://example.org/>
            <S> { ex:a [ 1 ] + , ex:b [ 1 ] ? , ex:c [ 1 ] * }
        """)
        text = serialize_shexc(schema)
        assert "+" in text and "?" in text and "*" in text

    def test_serialiser_renders_facets_and_value_sets(self):
        schema = parse_shexc("""
            PREFIX ex:  <http://example.org/>
            PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
            <S> { ex:age xsd:integer MININCLUSIVE 0 , ex:colour [ ex:red ex:blue ] }
        """)
        text = serialize_shexc(schema)
        assert "MININCLUSIVE 0" in text
        assert "ex:red" in text or "<http://example.org/red>" in text
        # and the output parses back
        assert parse_shexc(text).expression("S")
