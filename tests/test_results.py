"""Tests for MatchStats, MatchResult and ValidationReportEntry."""


from repro.rdf import EX
from repro.shex import MatchResult, MatchStats, ShapeLabel
from repro.shex.results import ValidationReportEntry


class TestMatchStats:
    def test_defaults_are_zero(self):
        stats = MatchStats()
        assert stats.derivative_steps == 0
        assert stats.decompositions == 0
        assert stats.max_expression_size == 0

    def test_observe_expression_size_keeps_maximum(self):
        stats = MatchStats()
        stats.observe_expression_size(5)
        stats.observe_expression_size(3)
        stats.observe_expression_size(9)
        assert stats.max_expression_size == 9

    def test_merge_accumulates_counts_and_maximum(self):
        first = MatchStats(derivative_steps=3, arc_checks=2, max_expression_size=4)
        second = MatchStats(derivative_steps=5, decompositions=7, max_expression_size=9)
        merged = first.merge(second)
        assert merged is first
        assert merged.derivative_steps == 8
        assert merged.decompositions == 7
        assert merged.arc_checks == 2
        assert merged.max_expression_size == 9

    def test_as_dict_lists_every_counter(self):
        as_dict = MatchStats(rule_applications=4).as_dict()
        assert as_dict["rule_applications"] == 4
        from dataclasses import fields

        assert len(as_dict) == len(fields(MatchStats))


class TestMatchResult:
    def test_success_and_failure_constructors(self):
        success = MatchResult.success()
        failure = MatchResult.failure("something went wrong")
        assert success and success.matched
        assert not failure and not failure.matched
        assert failure.reason == "something went wrong"

    def test_bool_conversion(self):
        assert bool(MatchResult(True)) is True
        assert bool(MatchResult(False)) is False


class TestValidationReportEntry:
    def test_str_for_conforming_entry(self):
        entry = ValidationReportEntry(EX.john, ShapeLabel("Person"), True)
        assert "conforms to Person" in str(entry)
        assert "NOT" not in str(entry)

    def test_str_for_failing_entry_includes_reason(self):
        entry = ValidationReportEntry(EX.mary, ShapeLabel("Person"), False,
                                      reason="two ages")
        text = str(entry)
        assert "does NOT conform" in text
        assert "two ages" in text
