"""Tests for the backtracking matcher (the inference rules of Figure 1)."""

import pytest

from repro.rdf import EX, Literal, Triple, XSD
from repro.shex import (
    EMPTY,
    EPSILON,
    BacktrackingBudgetExceeded,
    BacktrackingEngine,
    arc,
    datatype,
    interleave,
    interleave_all,
    matches_backtracking,
    optional,
    plus,
    star,
    value_set,
)

NODE = EX.n
A1 = Triple(NODE, EX.a, Literal(1))
A2 = Triple(NODE, EX.a, Literal(2))
B1 = Triple(NODE, EX.b, Literal(1))
B2 = Triple(NODE, EX.b, Literal(2))


@pytest.fixture
def paper_expression():
    return interleave(arc(EX.a, value_set(1)), star(arc(EX.b, value_set(1, 2))))


class TestRules:
    def test_empty_rule(self):
        """rule Empty: ε ≃ {} and nothing else."""
        assert matches_backtracking(EPSILON, [])
        assert not matches_backtracking(EPSILON, [A1])

    def test_empty_expression_matches_nothing(self):
        assert not matches_backtracking(EMPTY, [])
        assert not matches_backtracking(EMPTY, [A1])

    def test_arc_rule(self):
        """rule Arc: vp→vo ≃ ⟨s,p,o⟩ when p ∈ vp and o ∈ vo."""
        expression = arc(EX.a, value_set(1))
        assert matches_backtracking(expression, [A1])
        assert not matches_backtracking(expression, [A2])      # o ∉ vo
        assert not matches_backtracking(expression, [B1])      # p ∉ vp
        assert not matches_backtracking(expression, [])        # needs one triple
        assert not matches_backtracking(expression, [A1, B1])  # exactly one triple

    def test_or_rules(self):
        expression = arc(EX.a, value_set(1)) | arc(EX.b, value_set(1))
        assert matches_backtracking(expression, [A1])
        assert matches_backtracking(expression, [B1])
        assert not matches_backtracking(expression, [A2])

    def test_and_rule_considers_decompositions(self):
        expression = interleave(arc(EX.a, value_set(1)), arc(EX.b, value_set(1)))
        assert matches_backtracking(expression, [A1, B1])
        assert matches_backtracking(expression, [B1, A1])
        assert not matches_backtracking(expression, [A1])
        assert not matches_backtracking(expression, [A1, B1, B2])

    def test_star_rules(self):
        expression = star(arc(EX.b, value_set(1, 2)))
        assert matches_backtracking(expression, [])
        assert matches_backtracking(expression, [B1])
        assert matches_backtracking(expression, [B1, B2])
        assert not matches_backtracking(expression, [A1])

    def test_example_8_trace_verdict(self, paper_expression):
        """The matching problem of Example 8 / Figure 2 succeeds."""
        assert matches_backtracking(paper_expression, [A1, B1, B2])

    def test_example_12_verdict(self, paper_expression):
        assert not matches_backtracking(paper_expression, [A1, A2, B1])

    def test_plus_and_optional(self):
        plus_expression = plus(arc(EX.b, value_set(1, 2)))
        assert not matches_backtracking(plus_expression, [])
        assert matches_backtracking(plus_expression, [B1])
        optional_expression = optional(arc(EX.a, value_set(1)))
        assert matches_backtracking(optional_expression, [])
        assert matches_backtracking(optional_expression, [A1])
        assert not matches_backtracking(optional_expression, [A2])

    def test_datatype_constraint(self):
        expression = plus(arc(EX.a, datatype(XSD.integer)))
        assert matches_backtracking(expression, [A1, A2])
        bad = Triple(NODE, EX.a, Literal("not a number"))
        assert not matches_backtracking(expression, [A1, bad])

    def test_unknown_expression_type_rejected(self):
        engine = BacktrackingEngine()
        with pytest.raises(TypeError):
            engine.match_neighbourhood("not an expression", frozenset())


class TestEngineBehaviour:
    def test_statistics_count_decompositions(self, paper_expression):
        engine = BacktrackingEngine()
        result = engine.match_neighbourhood(paper_expression, frozenset({A1, B1, B2}))
        assert result.matched
        assert result.stats.decompositions > 0
        assert result.stats.rule_applications > 0

    def test_rejection_explores_exponentially_more(self, paper_expression):
        engine = BacktrackingEngine()
        accepting = engine.match_neighbourhood(paper_expression, frozenset({A1, B1, B2}))
        rejecting_triples = frozenset({A1, A2, B1, B2,
                                       Triple(NODE, EX.b, Literal(3))})
        rejecting = engine.match_neighbourhood(paper_expression, rejecting_triples)
        assert not rejecting.matched
        assert rejecting.stats.decompositions > accepting.stats.decompositions

    def test_budget_is_enforced(self):
        # a wide interleave that cannot match forces exhaustive search
        expression = interleave_all(*(arc(EX[f"p{i}"], value_set(1)) for i in range(11)))
        triples = frozenset(
            Triple(NODE, EX[f"p{i}"], Literal(2)) for i in range(11)
        )
        engine = BacktrackingEngine(budget=1000)
        with pytest.raises(BacktrackingBudgetExceeded):
            engine.match_neighbourhood(expression, triples)

    def test_failure_reason_is_reported(self, paper_expression):
        engine = BacktrackingEngine()
        result = engine.match_neighbourhood(paper_expression, frozenset({A2}))
        assert not result.matched
        assert "no derivation tree" in result.reason

    def test_engine_is_callable(self, paper_expression):
        engine = BacktrackingEngine()
        assert engine(paper_expression, frozenset({A1})).matched


class TestTypingAgreement:
    def test_backtracking_typing_agrees_too(self):
        # the recursive community rings build the same typing under both
        # engines
        from repro.shex import Validator
        from repro.workloads import generate_community_workload

        workload = generate_community_workload(
            num_communities=2, people_per_community=4, seed=9)
        graph, schema = workload.graph, workload.schema
        derivative = Validator(graph, schema).validate_graph()
        backtracking = Validator(graph, schema, engine="backtracking",
                                 budget=5_000_000).validate_graph()
        assert backtracking.typing.to_dict() == derivative.typing.to_dict()
