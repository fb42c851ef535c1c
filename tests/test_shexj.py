"""Tests for the JSON interchange representation of schemas and expressions."""

import json

import pytest

from repro.rdf import BNode, EX, FOAF, Literal, XSD
from repro.shex import (
    EMPTY,
    EPSILON,
    Arc,
    ConstraintAnd,
    ConstraintNot,
    ConstraintOr,
    DatatypeConstraint,
    IRIStem,
    LanguageTag,
    NodeKind,
    NodeKindConstraint,
    PredicateSet,
    Schema,
    SchemaError,
    ShapeRef,
    Validator,
    arc,
    datatype,
    interleave,
    plus,
    star,
    value_set,
)
from repro.shex.shexj import (
    expression_from_dict,
    expression_to_dict,
    schema_from_dict,
    schema_to_dict,
)
from repro.shex.typing import ShapeLabel
from repro.workloads import paper_example_graph, person_schema


def round_trip(expression):
    return expression_from_dict(expression_to_dict(expression))


class TestExpressionRoundTrip:
    def test_empty_and_epsilon(self):
        assert round_trip(EMPTY) == EMPTY
        assert round_trip(EPSILON) == EPSILON

    def test_simple_arc(self):
        expression = arc(EX.a, value_set(1, "text"))
        assert round_trip(expression) == expression

    def test_arc_with_datatype_and_facets(self):
        expression = arc(EX.age, datatype(XSD.integer, min_inclusive=0, max_inclusive=150))
        assert round_trip(expression) == expression

    def test_arc_with_node_kind(self):
        expression = arc(EX.link, NodeKindConstraint(NodeKind.IRI))
        assert round_trip(expression) == expression

    def test_arc_with_language_and_stem(self):
        for constraint in (LanguageTag("en"), IRIStem("http://example.org/")):
            expression = arc(EX.p, constraint)
            assert round_trip(expression) == expression

    def test_arc_with_boolean_combinators(self):
        constraint = ConstraintOr([
            ConstraintAnd([DatatypeConstraint(XSD.integer), value_set(1, 2)]),
            ConstraintNot(value_set(3)),
        ])
        expression = arc(EX.p, constraint)
        assert round_trip(expression) == expression

    def test_arc_with_shape_reference(self):
        expression = Arc(PredicateSet.single(FOAF.knows), ShapeRef(ShapeLabel("Person")))
        assert round_trip(expression) == expression

    def test_arc_with_predicate_stem_and_wildcard(self):
        for predicates in (PredicateSet(stem="http://example.org/"),
                           PredicateSet(any_predicate=True),
                           PredicateSet([EX.a, EX.b])):
            expression = Arc(predicates, value_set(1))
            assert round_trip(expression) == expression

    def test_composite_expression(self):
        expression = interleave(
            arc(EX.a, value_set(1)),
            plus(arc(EX.b, value_set(1, 2))) | star(arc(EX.c)),
        )
        assert round_trip(expression) == expression

    def test_value_set_term_kinds(self):
        expression = arc(EX.p, value_set(Literal("chat", lang="fr"), EX.thing,
                                         Literal("5", datatype=XSD.integer)))
        assert round_trip(expression) == expression
        # blank nodes survive too
        expression = Arc(PredicateSet.single(EX.p),
                         value_set(BNode("b1")))
        assert round_trip(expression) == expression

    def test_dicts_are_json_serialisable(self):
        expression = interleave(arc(EX.a, value_set(1)),
                                arc(EX.age, datatype(XSD.integer, min_inclusive=0)))
        text = json.dumps(expression_to_dict(expression))
        assert expression_from_dict(json.loads(text)) == expression

    def test_unknown_types_rejected(self):
        with pytest.raises(ValueError):
            expression_from_dict({"type": "Mystery"})
        with pytest.raises(TypeError):
            expression_to_dict("not an expression")


class TestSchemaRoundTrip:
    def test_person_schema(self):
        schema = person_schema()
        restored = schema_from_dict(schema_to_dict(schema))
        assert set(restored.labels()) == set(schema.labels())
        assert restored.start == schema.start
        # semantics preserved: same conforming nodes
        graph = paper_example_graph()
        assert Validator(graph, restored).conforming_nodes("Person") == \
            Validator(graph, schema).conforming_nodes("Person")

    def test_schema_dict_is_json_serialisable(self):
        schema = person_schema()
        text = json.dumps(schema_to_dict(schema))
        restored = schema_from_dict(json.loads(text))
        assert set(restored.labels()) == set(schema.labels())

    def test_schema_without_start(self):
        schema = Schema({"A": arc(EX.p), "B": arc(EX.q)})
        restored = schema_from_dict(schema_to_dict(schema))
        assert restored.start is None

    def test_non_schema_dict_rejected(self):
        with pytest.raises(ValueError):
            schema_from_dict({"type": "NotASchema"})


class TestNestedShapeReferences:
    """A ``ShapeRef`` inside a constraint combinator is rejected up front.

    Only an arc's whole object constraint can be a reference; nested in
    ``NOT``/``OR``/``AND`` it used to reach ``ShapeRef.matches`` at
    validation time and crash with a bare ``TypeError``.
    """

    REF = {"type": "ShapeRef", "reference": "Person"}
    COMBINATORS = {
        "ConstraintNot": {"type": "ConstraintNot", "operand": REF},
        "ConstraintOr": {"type": "ConstraintOr", "operands": [
            REF, {"type": "Datatype", "datatype": str(XSD.string)}]},
        "ConstraintAnd": {"type": "ConstraintAnd", "operands": [
            {"type": "NodeKind", "kind": "iri"},
            {"type": "ConstraintNot", "operand": REF}]},
    }

    @staticmethod
    def _schema_dict(constraint):
        knows = {"type": "Arc", "predicate": {"predicates": [str(FOAF.knows)]},
                 "object": constraint}
        return {"type": "Schema", "start": "Person",
                "shapes": {"Person": {"type": "Star", "expression": knows}}}

    @pytest.mark.parametrize("kind", sorted(COMBINATORS))
    def test_shexj_combinator_around_a_reference_is_a_schema_error(self, kind):
        with pytest.raises(SchemaError, match="shape Person nests a shape reference"):
            schema_from_dict(self._schema_dict(self.COMBINATORS[kind]))

    def test_python_api_is_rejected_too(self):
        nested = ConstraintOr([ShapeRef(ShapeLabel("Person")), IRIStem("http://")])
        with pytest.raises(SchemaError, match="Person"):
            Schema.single("Person", star(Arc(PredicateSet([FOAF.knows]), nested)))

    def test_undefined_label_inside_a_combinator_is_reported(self):
        nested = ConstraintNot(ShapeRef(ShapeLabel("Nowhere")))
        with pytest.raises(SchemaError):
            Schema.single("Person", star(Arc(PredicateSet([FOAF.knows]), nested)))

    def test_top_level_references_are_still_accepted(self):
        schema = schema_from_dict(self._schema_dict(self.REF))
        assert schema.dependencies("Person") == {ShapeLabel("Person")}
