"""Unit tests for the regular shape expression algebra and its simplification rules."""

import pytest

from repro.rdf import EX, Literal
from repro.shex import (
    EMPTY,
    EPSILON,
    And,
    Arc,
    Empty,
    EmptyTriples,
    Or,
    PredicateSet,
    ShapeRef,
    Star,
    ValueSet,
    alternative,
    alternative_all,
    arc,
    expression_depth,
    expression_size,
    interleave,
    interleave_all,
    iter_subexpressions,
    optional,
    plus,
    referenced_labels,
    repeat,
    star,
    value_set,
)
from repro.shex.typing import ShapeLabel


@pytest.fixture
def simple_arc():
    return arc(EX.a, value_set(1))


@pytest.fixture
def other_arc():
    return arc(EX.b, value_set(1, 2))


class TestSingletons:
    def test_empty_is_a_singleton(self):
        assert Empty() is EMPTY
        assert Empty() == EMPTY

    def test_epsilon_is_a_singleton(self):
        assert EmptyTriples() is EPSILON

    def test_empty_and_epsilon_differ(self):
        assert EMPTY != EPSILON

    def test_rendering(self):
        assert EMPTY.to_str() == "∅"
        assert EPSILON.to_str() == "ε"


class TestArcConstruction:
    def test_arc_helper_wraps_iri_predicate(self, simple_arc):
        assert isinstance(simple_arc.predicate, PredicateSet)
        assert simple_arc.predicate.matches(EX.a)
        assert not simple_arc.predicate.matches(EX.b)

    def test_arc_helper_wraps_python_values(self):
        expression = arc(EX.a, 5)
        assert isinstance(expression.object, ValueSet)
        assert expression.object.matches(Literal(5))

    def test_arc_helper_wildcard_object(self):
        expression = arc(EX.a)
        assert expression.object.matches(Literal("anything"))
        assert expression.object.matches(EX.b)

    def test_arc_requires_proper_types(self):
        with pytest.raises(TypeError):
            Arc("not a predicate set", ValueSet([Literal(1)]))
        with pytest.raises(TypeError):
            Arc(PredicateSet.single(EX.a), "not a constraint")

    def test_arc_is_reference_flag(self):
        plain = arc(EX.a, value_set(1))
        reference = Arc(PredicateSet.single(EX.a), ShapeRef(ShapeLabel("S")))
        assert not plain.is_reference
        assert reference.is_reference

    def test_arc_equality_and_hash(self, simple_arc):
        assert simple_arc == arc(EX.a, value_set(1))
        assert hash(simple_arc) == hash(arc(EX.a, value_set(1)))
        assert simple_arc != arc(EX.a, value_set(2))

    def test_arc_is_immutable(self, simple_arc):
        with pytest.raises(AttributeError):
            simple_arc.predicate = None


class TestSimplificationRules:
    """The rules listed at the end of Section 4."""

    def test_empty_is_identity_of_or(self, simple_arc):
        assert alternative(EMPTY, simple_arc) is simple_arc
        assert alternative(simple_arc, EMPTY) is simple_arc

    def test_empty_is_absorbing_for_and(self, simple_arc):
        assert interleave(EMPTY, simple_arc) is EMPTY
        assert interleave(simple_arc, EMPTY) is EMPTY

    def test_epsilon_is_identity_of_and(self, simple_arc):
        assert interleave(EPSILON, simple_arc) is simple_arc
        assert interleave(simple_arc, EPSILON) is simple_arc

    def test_idempotent_alternative(self, simple_arc):
        assert alternative(simple_arc, arc(EX.a, value_set(1))) == simple_arc

    def test_simplification_can_be_disabled(self, simple_arc):
        raw = interleave(EPSILON, simple_arc, simplify=False)
        assert isinstance(raw, And)
        raw_or = alternative(EMPTY, simple_arc, simplify=False)
        assert isinstance(raw_or, Or)

    def test_star_simplifications(self, simple_arc):
        assert star(EMPTY) is EPSILON
        assert star(EPSILON) is EPSILON
        starred = star(simple_arc)
        assert star(starred) is starred

    def test_operator_sugar(self, simple_arc, other_arc):
        assert isinstance(simple_arc & other_arc, And)
        assert isinstance(simple_arc | other_arc, Or)
        assert isinstance(simple_arc.star(), Star)


class TestDerivedOperators:
    def test_plus_expansion(self, simple_arc):
        """E+ = E ‖ E* (Section 4)."""
        expression = plus(simple_arc)
        assert isinstance(expression, And)
        assert expression.operands == (simple_arc, Star(simple_arc))
        assert expression == And(simple_arc, Star(simple_arc))

    def test_optional_expansion(self, simple_arc):
        """E? = E | ε (Section 4)."""
        expression = optional(simple_arc)
        assert expression == Or(simple_arc, EPSILON)

    def test_repeat_zero_zero_is_epsilon(self, simple_arc):
        assert repeat(simple_arc, 0, 0) is EPSILON

    def test_repeat_exact(self, simple_arc):
        expression = repeat(simple_arc, 2, 2)
        # two interleaved copies
        assert expression == And(simple_arc, simple_arc)

    def test_repeat_range_structure(self, simple_arc):
        expression = repeat(simple_arc, 1, 3)
        # one mandatory copy plus two optional copies
        assert expression_size(expression) > expression_size(simple_arc)
        subexpressions = list(iter_subexpressions(expression))
        assert sum(1 for sub in subexpressions if sub == simple_arc) == 3

    def test_repeat_unbounded(self, simple_arc):
        expression = repeat(simple_arc, 2, None)
        stars = [sub for sub in iter_subexpressions(expression) if isinstance(sub, Star)]
        assert len(stars) == 1

    def test_repeat_rejects_bad_bounds(self, simple_arc):
        with pytest.raises(ValueError):
            repeat(simple_arc, -1, 2)
        with pytest.raises(ValueError):
            repeat(simple_arc, 3, 2)

    def test_nary_helpers(self, simple_arc, other_arc):
        assert interleave_all() is EPSILON
        assert alternative_all() is EMPTY
        assert interleave_all(simple_arc) is simple_arc
        assert alternative_all(simple_arc, other_arc) == Or(simple_arc, other_arc)


class TestIntrospection:
    def test_expression_size_counts_nodes(self, simple_arc, other_arc):
        assert expression_size(simple_arc) == 1
        assert expression_size(And(simple_arc, other_arc)) == 3
        assert expression_size(Star(And(simple_arc, other_arc))) == 4

    def test_expression_depth(self, simple_arc, other_arc):
        assert expression_depth(simple_arc) == 1
        assert expression_depth(Star(And(simple_arc, other_arc))) == 3

    def test_iter_subexpressions_preorder(self, simple_arc, other_arc):
        expression = And(simple_arc, Star(other_arc))
        nodes = list(iter_subexpressions(expression))
        assert nodes[0] is expression
        assert simple_arc in nodes
        assert any(isinstance(node, Star) for node in nodes)

    def test_referenced_labels(self):
        expression = interleave(
            arc(EX.a, value_set(1)),
            Arc(PredicateSet.single(EX.knows), ShapeRef(ShapeLabel("Person"))),
        )
        assert referenced_labels(expression) == {ShapeLabel("Person")}

    def test_to_str_is_total(self, simple_arc, other_arc):
        expression = Or(And(simple_arc, Star(other_arc)), EPSILON)
        rendered = expression.to_str()
        assert "‖" in rendered and "|" in rendered and "*" in rendered


class TestStructuralEquality:
    def test_and_equality_is_ordered(self, simple_arc, other_arc):
        assert And(simple_arc, other_arc) == And(simple_arc, other_arc)
        assert And(simple_arc, other_arc) != And(other_arc, simple_arc)

    def test_or_equality(self, simple_arc, other_arc):
        assert Or(simple_arc, other_arc) == Or(simple_arc, other_arc)
        assert Or(simple_arc, other_arc) != Or(other_arc, simple_arc)

    def test_expressions_usable_as_dict_keys(self, simple_arc, other_arc):
        table = {And(simple_arc, other_arc): "value"}
        assert table[And(simple_arc, other_arc)] == "value"

    def test_constructors_type_check(self, simple_arc):
        with pytest.raises(TypeError):
            And(simple_arc, "not an expression")
        with pytest.raises(TypeError):
            Or("not an expression", simple_arc)
        with pytest.raises(TypeError):
            Star("not an expression")
