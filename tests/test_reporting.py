"""Tests for the report renderers (text, JSON, CSV, summary)."""

import csv
import io
import json

import pytest

from repro.rdf import EX
from repro.shex import (
    Validator,
    format_csv,
    format_text,
    report_to_dict,
    report_to_json,
    summarize,
)
from repro.shex.validator import ValidationReport
from repro.workloads import paper_example_graph, person_schema


@pytest.fixture
def report():
    validator = Validator(paper_example_graph(), person_schema())
    return validator.validate_graph(labels=["Person"])


class TestSummary:
    def test_mixed_report(self, report):
        assert summarize(report) == "2/3 conform (1 failure)"

    def test_all_conforming(self):
        validator = Validator(paper_example_graph(), person_schema())
        report = validator.validate_map({EX.john: "Person", EX.bob: "Person"})
        assert summarize(report) == "2/2 conform"

    def test_plural_failures(self):
        validator = Validator(paper_example_graph(), person_schema())
        report = validator.validate_map({EX.mary: "Person"})
        report.entries.append(report.entries[0])
        assert "2 failures" in summarize(report)


class TestTextTable:
    def test_contains_every_node_and_verdict(self, report):
        text = format_text(report)
        assert "<http://example.org/john>" in text
        assert "<http://example.org/mary>" in text
        assert "conforms" in text and "FAILS" in text
        assert text.strip().endswith("2/3 conform (1 failure)")

    def test_reasons_can_be_hidden(self, report):
        with_reasons = format_text(report, show_reasons=True)
        without_reasons = format_text(report, show_reasons=False)
        assert len(without_reasons) < len(with_reasons)

    def test_long_reasons_are_truncated(self, report):
        text = format_text(report, max_reason_length=20)
        for line in text.splitlines():
            if "FAILS" in line and "(" in line:
                reason = line.split("(", 1)[1]
                assert len(reason) <= 22

    def test_empty_report(self):
        assert "empty validation report" in format_text(ValidationReport())

    def test_output_is_deterministic(self, report):
        assert format_text(report) == format_text(report)


class TestJson:
    def test_structure(self, report):
        data = report_to_dict(report)
        assert data["conforms"] is False
        assert data["summary"] == "2/3 conform (1 failure)"
        assert len(data["entries"]) == 3
        mary = next(entry for entry in data["entries"]
                    if entry["node"].endswith("mary>"))
        assert mary["conforms"] is False
        assert "reason" in mary
        assert data["typing"]["<http://example.org/john>"] == ["Person"]

    def test_stats_are_optional(self, report):
        without_stats = report_to_dict(report)
        with_stats = report_to_dict(report, include_stats=True)
        assert "stats" not in without_stats
        assert "derivative_steps" in with_stats["stats"]
        assert with_stats["stats"] == report.stats.as_dict()
        assert all("stats" not in entry for entry in with_stats["entries"])
        assert {key: value for key, value in with_stats.items()
                if key != "stats"} == without_stats

    def test_json_text_round_trips(self, report):
        parsed = json.loads(report_to_json(report))
        assert parsed == report_to_dict(report)


class TestCsv:
    def test_header_and_rows(self, report):
        rows = list(csv.reader(io.StringIO(format_csv(report))))
        assert rows[0] == ["node", "shape", "conforms", "reason"]
        assert len(rows) == 4
        verdicts = {row[0]: row[2] for row in rows[1:]}
        assert verdicts["<http://example.org/john>"] == "true"
        assert verdicts["<http://example.org/mary>"] == "false"
