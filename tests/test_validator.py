"""Tests for the Validator façade and validation reports."""

import pytest

from repro.rdf import EX, FOAF, Graph, Literal, Triple
from repro.shex import (
    BacktrackingEngine,
    DerivativeEngine,
    ENGINES,
    Schema,
    SchemaError,
    ShapeLabel,
    Validator,
    arc,
    get_engine,
    star,
    value_set,
)
from repro.shex.sparql_gen import SparqlEngine
from repro.workloads import paper_example_graph, person_schema


class TestEngineRegistry:
    def test_default_engine_is_derivatives(self):
        assert isinstance(get_engine(), DerivativeEngine)

    def test_engine_by_name(self):
        assert isinstance(get_engine("derivatives"), DerivativeEngine)
        assert isinstance(get_engine("backtracking"), BacktrackingEngine)

    def test_engine_options_are_forwarded(self):
        engine = get_engine("derivatives", simplify=False)
        assert engine.simplify is False
        engine = get_engine("backtracking", budget=10)
        assert engine.budget == 10

    def test_engine_instances_pass_through(self):
        engine = SparqlEngine()
        assert get_engine(engine) is engine

    def test_unknown_engine_name(self):
        with pytest.raises(ValueError):
            get_engine("magic")

    def test_invalid_engine_object(self):
        with pytest.raises(TypeError):
            get_engine(42)

    def test_registry_lists_both_engines(self):
        assert set(ENGINES) == {"derivatives", "backtracking"}


class TestNodeValidation:
    def test_paper_example_verdicts(self, engine_name):
        validator = Validator(paper_example_graph(), person_schema(), engine=engine_name)
        assert validator.validate_node(EX.john, "Person").conforms
        assert validator.validate_node(EX.bob, "Person").conforms
        assert not validator.validate_node(EX.mary, "Person").conforms

    def test_default_label_is_the_start_shape(self):
        validator = Validator(paper_example_graph(), person_schema())
        assert validator.validate_node(EX.john).conforms

    def test_missing_start_shape_raises(self):
        schema = Schema({"A": arc(EX.p), "B": arc(EX.q)})  # two shapes, no start
        validator = Validator(Graph(), schema)
        with pytest.raises(SchemaError):
            validator.validate_node(EX.x)

    def test_report_entry_contains_reason_on_failure(self):
        validator = Validator(paper_example_graph(), person_schema())
        entry = validator.validate_node(EX.mary, "Person")
        assert not entry.conforms
        assert entry.reason
        assert "mary" in str(entry)

    def test_expression_level_matching_without_schema(self):
        graph = Graph([Triple(EX.n, EX.p, Literal(1))])
        validator = Validator(graph)
        result = validator.node_matches_expression(EX.n, star(arc(EX.p, value_set(1))))
        assert result.matched


class TestMapAndGraphValidation:
    def test_validate_map(self):
        validator = Validator(paper_example_graph(), person_schema())
        report = validator.validate_map({EX.john: "Person", EX.mary: "Person"})
        assert len(report) == 2
        assert not report.conforms
        assert len(report.failures()) == 1
        assert report.entry_for(EX.john).conforms
        assert not report.entry_for(EX.mary, "Person").conforms
        assert report.typing.has(EX.john, "Person")
        assert not report.typing.has(EX.mary, "Person")

    def test_conforming_nodes_reproduces_example_2(self, engine_name):
        validator = Validator(paper_example_graph(), person_schema(), engine=engine_name)
        assert validator.conforming_nodes("Person") == [EX.bob, EX.john]

    def test_validate_graph_covers_every_subject(self):
        validator = Validator(paper_example_graph(), person_schema())
        report = validator.validate_graph()
        assert len(report) == 3  # three subjects × one shape
        assert {entry.node for entry in report} == {EX.john, EX.bob, EX.mary}
        assert report.typing.labels_for(EX.john) == {ShapeLabel("Person")}

    def test_infer_typing_with_multiple_shapes(self):
        schema = Schema({
            "HasAge": star(arc(FOAF.age)),
            "HasName": arc(FOAF.name) & star(arc(FOAF.age)) & star(arc(FOAF.knows)),
        })
        validator = Validator(paper_example_graph(), schema)
        typing = validator.infer_typing()
        # :mary has only age arcs, so she satisfies HasAge but not HasName
        assert typing.has(EX.mary, "HasAge")
        assert not typing.has(EX.mary, "HasName")
        assert typing.has(EX.john, "HasName")

    def test_infer_typing_requires_schema(self):
        validator = Validator(Graph())
        with pytest.raises(SchemaError):
            validator.infer_typing()

    def test_validate_graph_requires_schema(self):
        validator = Validator(Graph())
        with pytest.raises(SchemaError):
            validator.validate_graph()

    def test_report_renders_as_text(self):
        validator = Validator(paper_example_graph(), person_schema())
        report = validator.validate_graph()
        text = str(report)
        assert "conforms" in text
        assert "does NOT conform" in text

    def test_report_total_stats_aggregates(self):
        validator = Validator(paper_example_graph(), person_schema())
        steps = []
        match = validator.engine.match_neighbourhood

        def counting_match(expr, triples, context=None):
            result = match(expr, triples, context)
            steps.append(result.stats.derivative_steps)
            return result

        validator.engine.match_neighbourhood = counting_match
        report = validator.validate_graph()
        assert report.stats.derivative_steps == sum(steps) > 0


class TestEngineInterchangeability:
    def test_all_engines_agree_on_the_paper_example(self):
        graph, schema = paper_example_graph(), person_schema()
        expected = [EX.bob, EX.john]
        for engine in (DerivativeEngine(), BacktrackingEngine(), SparqlEngine()):
            validator = Validator(graph, schema, engine=engine)
            assert validator.conforming_nodes("Person") == expected, engine.name

    def test_sparql_engine_differs_only_on_recursive_semantics(self):
        # :ghost is referenced but is not a Person; SPARQL only approximates
        graph = Graph()
        graph.add(Triple(EX.a, FOAF.age, Literal(40)))
        graph.add(Triple(EX.a, FOAF.name, Literal("Ada")))
        graph.add(Triple(EX.a, FOAF.knows, EX.ghost))
        schema = person_schema()
        assert not Validator(graph, schema).validate_node(EX.a, "Person").conforms
        assert Validator(graph, schema, engine=SparqlEngine()) \
            .validate_node(EX.a, "Person").conforms
