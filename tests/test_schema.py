"""Tests for Shape Expression Schemas and the typing context (Section 8)."""

import pytest

from repro.rdf import EX, FOAF, Graph, Literal, Triple
from repro.shex import (
    Arc,
    DerivativeEngine,
    PredicateSet,
    Schema,
    SchemaError,
    ShapeLabel,
    ShapeRef,
    arc,
    interleave,
    plus,
    star,
    value_set,
)
from repro.shex.reference import ReferenceContext
from repro.workloads import person_schema


def reference_arc(predicate, label: str) -> Arc:
    return Arc(PredicateSet.single(predicate), ShapeRef(ShapeLabel(label)))


@pytest.fixture
def recursive_schema() -> Schema:
    """Example 13: p ↦ a→1 ‖ (b→{1,2})+ ‖ (c→@p)*."""
    expression = interleave(
        interleave(arc(EX.a, value_set(1)), plus(arc(EX.b, value_set(1, 2)))),
        star(reference_arc(EX.c, "p")),
    )
    return Schema({"p": expression}, start="p")


class TestSchemaConstruction:
    def test_single_shape(self):
        schema = Schema.single("S", arc(EX.a, value_set(1)))
        assert ShapeLabel("S") in schema
        assert schema.start == ShapeLabel("S")
        assert len(schema) == 1

    def test_labels_are_sorted(self):
        schema = Schema({"B": arc(EX.a), "A": arc(EX.b)})
        assert list(schema.labels()) == [ShapeLabel("A"), ShapeLabel("B")]

    def test_expression_lookup(self):
        expression = arc(EX.a, value_set(1))
        schema = Schema({"S": expression})
        assert schema.expression("S") == expression
        assert schema.expression(ShapeLabel("S")) == expression

    def test_unknown_label_raises(self):
        schema = Schema({"S": arc(EX.a)})
        with pytest.raises(SchemaError):
            schema.expression("Missing")

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema({})

    def test_non_expression_shape_rejected(self):
        with pytest.raises(SchemaError):
            Schema({"S": "not an expression"})

    def test_undefined_start_rejected(self):
        with pytest.raises(SchemaError):
            Schema({"S": arc(EX.a)}, start="Other")

    def test_dangling_reference_rejected(self):
        with pytest.raises(SchemaError):
            Schema({"S": reference_arc(EX.knows, "Missing")})

    def test_items_iterates_in_label_order(self):
        schema = Schema({"B": arc(EX.a), "A": arc(EX.b)})
        labels = [label for label, _ in schema.items()]
        assert labels == [ShapeLabel("A"), ShapeLabel("B")]


class TestSchemaIntrospection:
    def test_dependencies(self, recursive_schema):
        assert recursive_schema.dependencies("p") == {ShapeLabel("p")}

    def test_is_recursive(self, recursive_schema):
        assert recursive_schema.is_recursive()

    def test_non_recursive_schema(self):
        schema = Schema({
            "A": reference_arc(EX.child, "B"),
            "B": arc(EX.leaf, value_set(1)),
        })
        assert not schema.is_recursive()
        assert schema.dependencies("A") == {ShapeLabel("B")}
        assert schema.dependencies("B") == frozenset()

    def test_mutual_recursion_detected(self):
        schema = Schema({
            "A": reference_arc(EX.toB, "B"),
            "B": reference_arc(EX.toA, "A"),
        })
        assert schema.is_recursive()

    def test_person_schema_is_recursive(self):
        assert person_schema().is_recursive()


class TestValidationContext:
    def make_context(self, graph: Graph, schema: Schema) -> ReferenceContext:
        engine = DerivativeEngine()
        return ReferenceContext(graph, schema, engine.match_neighbourhood)

    def test_check_reference_success(self, recursive_schema):
        graph = Graph()
        graph.add(Triple(EX.n1, EX.a, Literal(1)))
        graph.add(Triple(EX.n1, EX.b, Literal(2)))
        context = self.make_context(graph, recursive_schema)
        result = context.check_reference(EX.n1, "p")
        assert result.matched
        assert context.typing.has(EX.n1, "p")
        assert context.is_confirmed(EX.n1, ShapeLabel("p"))

    def test_check_reference_failure_is_cached(self, recursive_schema):
        graph = Graph()
        graph.add(Triple(EX.n1, EX.a, Literal(1)))  # missing the mandatory b arc
        context = self.make_context(graph, recursive_schema)
        first = context.check_reference(EX.n1, "p")
        assert not first.matched
        assert context.is_failed(EX.n1, ShapeLabel("p"))
        second = context.check_reference(EX.n1, "p")
        assert not second.matched
        assert "already failed" in second.reason

    def test_nested_references(self, recursive_schema):
        graph = Graph()
        graph.add(Triple(EX.n1, EX.a, Literal(1)))
        graph.add(Triple(EX.n1, EX.b, Literal(1)))
        graph.add(Triple(EX.n1, EX.c, EX.n2))
        graph.add(Triple(EX.n2, EX.a, Literal(1)))
        graph.add(Triple(EX.n2, EX.b, Literal(2)))
        context = self.make_context(graph, recursive_schema)
        result = context.check_reference(EX.n1, "p")
        assert result.matched
        assert context.typing.has(EX.n1, "p")
        assert context.typing.has(EX.n2, "p")

    def test_broken_referenced_node_breaks_the_referrer(self, recursive_schema):
        graph = Graph()
        graph.add(Triple(EX.n1, EX.a, Literal(1)))
        graph.add(Triple(EX.n1, EX.b, Literal(1)))
        graph.add(Triple(EX.n1, EX.c, EX.n2))
        graph.add(Triple(EX.n2, EX.a, Literal(1)))  # n2 misses its b arc
        context = self.make_context(graph, recursive_schema)
        assert not context.check_reference(EX.n1, "p").matched

    def test_cyclic_data_terminates_and_conforms(self):
        schema = person_schema()
        graph = Graph()
        for name, person, friend in (("Alice", EX.alice, EX.bob), ("Bob", EX.bob, EX.alice)):
            graph.add(Triple(person, FOAF.age, Literal(30)))
            graph.add(Triple(person, FOAF.name, Literal(name)))
            graph.add(Triple(person, FOAF.knows, friend))
        context = self.make_context(graph, schema)
        result = context.check_reference(EX.alice, "Person")
        assert result.matched
        assert context.typing.has(EX.alice, "Person")
        assert context.typing.has(EX.bob, "Person")

    def test_self_reference_terminates(self):
        schema = person_schema()
        graph = Graph()
        graph.add(Triple(EX.loner, FOAF.age, Literal(30)))
        graph.add(Triple(EX.loner, FOAF.name, Literal("Loner")))
        graph.add(Triple(EX.loner, FOAF.knows, EX.loner))
        context = self.make_context(graph, schema)
        assert context.check_reference(EX.loner, "Person").matched

    def test_literal_objects_only_match_nullable_shapes(self):
        schema = Schema({
            "Anything": star(arc(EX.p)),
            "NeedsArc": arc(EX.p),
        })
        graph = Graph()
        context = self.make_context(graph, schema)
        assert context.check_reference(Literal("leaf"), "Anything").matched
        assert not context.check_reference(Literal("leaf"), "NeedsArc").matched

    def test_requires_schema(self):
        context = ReferenceContext(Graph(), None, DerivativeEngine().match_neighbourhood)
        with pytest.raises(SchemaError):
            context.check_reference(EX.n, "S")

    def test_reference_checks_are_counted(self, recursive_schema):
        graph = Graph()
        graph.add(Triple(EX.n1, EX.a, Literal(1)))
        graph.add(Triple(EX.n1, EX.b, Literal(1)))
        context = self.make_context(graph, recursive_schema)
        context.check_reference(EX.n1, "p")
        assert context.stats.reference_checks == 1

    def test_recursion_depth_limit(self):
        # a long chain with a tiny depth limit fails gracefully
        schema = person_schema()
        graph = Graph()
        people = [EX[f"p{i}"] for i in range(20)]
        for index, person in enumerate(people):
            graph.add(Triple(person, FOAF.age, Literal(20)))
            graph.add(Triple(person, FOAF.name, Literal(f"P{index}")))
            if index + 1 < len(people):
                graph.add(Triple(person, FOAF.knows, people[index + 1]))
        engine = DerivativeEngine()
        context = ReferenceContext(graph, schema, engine.match_neighbourhood,
                                   max_recursion_depth=3)
        result = context.check_reference(people[0], "Person")
        assert not result.matched


class TestShExCHelpers:
    def test_from_and_to_shexc_round_trip_semantics(self):
        schema = person_schema()
        text = schema.to_shexc()
        reparsed = Schema.from_shexc(text)
        assert set(reparsed.labels()) == set(schema.labels())
