"""Tests for the DerivativeEngine: options, statistics and failure reporting."""

import pytest

from repro.rdf import EX, Literal, Triple
from repro.shex import DerivativeEngine, arc, interleave, plus, value_set
from repro.workloads import (
    balanced_alternation_case,
    cardinality_case,
    interleave_width_case,
    mixed_portal_case,
    paper_interleave_case,
    shuffled,
    star_case,
)

NODE = EX.subject


@pytest.fixture
def paper_case():
    return paper_interleave_case(extra_b_arcs=4)


class TestEngineOptions:
    def test_default_options(self):
        engine = DerivativeEngine()
        assert engine.simplify and engine.order_by_predicate and engine.memoize

    def test_simplification_off_is_still_correct(self, paper_case):
        for simplify in (True, False):
            engine = DerivativeEngine(simplify=simplify)
            result = engine.match_neighbourhood(paper_case.expression, paper_case.triples)
            assert result.matched == paper_case.expected

    def test_simplification_off_grows_expressions(self, paper_case):
        with_simplification = DerivativeEngine(simplify=True).match_neighbourhood(
            paper_case.expression, paper_case.triples)
        without_simplification = DerivativeEngine(simplify=False).match_neighbourhood(
            paper_case.expression, paper_case.triples)
        assert without_simplification.stats.max_expression_size > \
            with_simplification.stats.max_expression_size

    def test_memoization_off_is_still_correct(self, paper_case):
        engine = DerivativeEngine(memoize=False)
        assert engine.match_neighbourhood(paper_case.expression,
                                          paper_case.triples).matched

    def test_unordered_consumption_is_still_correct(self):
        case = interleave_width_case(width=5)
        engine = DerivativeEngine(order_by_predicate=False)
        assert engine.match_neighbourhood(case.expression, case.triples).matched

    def test_order_triples_respects_option(self):
        case = paper_interleave_case(extra_b_arcs=3)
        ordered = DerivativeEngine(order_by_predicate=True).order_triples(case.triples)
        assert ordered == sorted(case.triples, key=lambda triple: triple.sort_key())

    def test_engine_is_callable(self, paper_case):
        engine = DerivativeEngine()
        assert engine(paper_case.expression, paper_case.triples).matched


class TestStatistics:
    def test_derivative_steps_scale_linearly_with_triples(self):
        small = star_case(5)
        large = star_case(50)
        engine = DerivativeEngine()
        small_steps = engine.match_neighbourhood(small.expression, small.triples).stats
        large_steps = engine.match_neighbourhood(large.expression, large.triples).stats
        assert large_steps.derivative_steps == pytest.approx(
            10 * small_steps.derivative_steps, rel=0.2)

    def test_no_decompositions_are_ever_counted(self, paper_case):
        result = DerivativeEngine().match_neighbourhood(paper_case.expression,
                                                        paper_case.triples)
        assert result.stats.decompositions == 0

    def test_max_expression_size_tracked(self):
        case = balanced_alternation_case(pairs=4)
        result = DerivativeEngine().match_neighbourhood(case.expression, case.triples)
        assert result.stats.max_expression_size >= 1

    def test_stats_merge_and_dict(self):
        case = star_case(3)
        result = DerivativeEngine().match_neighbourhood(case.expression, case.triples)
        merged = result.stats.merge(result.stats)
        as_dict = merged.as_dict()
        assert as_dict["derivative_steps"] == merged.derivative_steps
        assert set(as_dict) == {
            "derivative_steps", "decompositions", "rule_applications",
            "arc_checks", "reference_checks", "max_expression_size",
            "prefilter_accepts", "prefilter_rejects",
            "signature_hits", "signature_misses", "signature_dedupes",
            "signature_time", "prefilter_time", "dispatch_time",
            "backtrack_time", "cache_time",
        }


class TestFailureReporting:
    def test_failure_blames_the_offending_triple(self):
        case = paper_interleave_case(extra_b_arcs=2, matching=False)
        result = DerivativeEngine().match_neighbourhood(case.expression, case.triples)
        assert not result.matched
        assert "no continuation" in result.reason

    def test_failure_on_missing_required_arcs(self):
        expression = interleave(arc(EX.a, value_set(1)), plus(arc(EX.b, value_set(1))))
        triples = frozenset({Triple(NODE, EX.a, Literal(1))})
        result = DerivativeEngine().match_neighbourhood(expression, triples)
        assert not result.matched
        assert "not nullable" in result.reason

    def test_success_has_empty_reason(self):
        case = star_case(3)
        result = DerivativeEngine().match_neighbourhood(case.expression, case.triples)
        assert result.matched and result.reason == ""


class TestWorkloadCases:
    """Every workload generator produces cases both engines solve correctly."""

    @pytest.mark.parametrize("case_factory", [
        lambda: star_case(8),
        lambda: star_case(8, matching=False),
        lambda: paper_interleave_case(5),
        lambda: paper_interleave_case(5, matching=False),
        lambda: interleave_width_case(4),
        lambda: interleave_width_case(4, matching=False),
        lambda: interleave_width_case(3, arcs_per_branch=2),
        lambda: balanced_alternation_case(3),
        lambda: balanced_alternation_case(3, matching=False),
        lambda: cardinality_case(1, 3, 2),
        lambda: cardinality_case(2, 4, 1),
        lambda: cardinality_case(0, 2, 3),
        lambda: mixed_portal_case(6),
        lambda: mixed_portal_case(6, matching=False),
    ])
    def test_derivative_engine_matches_ground_truth(self, case_factory):
        case = case_factory()
        result = DerivativeEngine().match_neighbourhood(case.expression, case.triples)
        assert result.matched == case.expected, case.name

    def test_shuffled_order_preserves_verdict(self):
        case = interleave_width_case(5)
        for seed in range(5):
            triples = shuffled(case, seed=seed)
            from repro.shex import derivative_graph, nullable

            assert nullable(derivative_graph(case.expression, triples)) == case.expected
