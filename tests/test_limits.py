"""Resource limits: checked once at parsing, and exact at their edges.

Every integer or float limit of the CLI is range-checked by argparse, so a
bad value is a one-line usage error (exit 2) instead of a late traceback or
a server that fails every request.  The bounds themselves are tested at
``N − 1``, ``N`` and ``N + 1`` with counters, never with wall-clock time.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.rdf import EX, Graph, Literal, Triple
from repro.rdf.graph import ChangeJournal
from repro.service import ServiceClient, ServiceError, ValidationRequest, serve
from repro.shex.cache import DerivativeCache
from repro.shex.expressions import arc
from repro.workloads import PAPER_EXAMPLE_TURTLE, person_schema


class TestLimitsAreCheckedAtParsing:
    def test_validate_cache_max_entries_below_one(self, tmp_path, capsys):
        data = tmp_path / "data.ttl"
        data.write_text(PAPER_EXAMPLE_TURTLE, encoding="utf-8")
        schema = tmp_path / "s.shex"
        schema.write_text("<S> { <http://example.org/p> . * }\n",
                          encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", "--data", str(data), "--schema", str(schema),
                  "--all-nodes", "--cache-max-entries", "0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--cache-max-entries: must be at least 1, got 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("option, value, minimum", [
        ("--cache-max-entries", "0", 1),
        ("--max-body-bytes", "-1", 0),
        ("--max-connections", "-1", 0),
        ("--connection-timeout", "-0.5", 0),
    ])
    def test_serve_limit_below_its_minimum(self, option, value, minimum,
                                           capsys):
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["serve", "--schema", "s.shex", option, value])
        assert excinfo.value.code == 2
        assert f"{option}: must be at least {minimum}, got {value}" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [
        ("--cache-max-entries", "1"), ("--max-body-bytes", "0"),
        ("--max-connections", "0"), ("--connection-timeout", "0"),
    ])
    def test_serve_limit_at_its_minimum_parses(self, option, value):
        args = build_parser().parse_args(
            ["serve", "--schema", "s.shex", option, value])
        assert getattr(args, option[2:].replace("-", "_")) == float(value)

    def test_non_numbers_are_usage_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["serve", "--schema", "s.shex", "--max-connections", "many"])
        assert excinfo.value.code == 2
        assert "invalid int value: 'many'" in capsys.readouterr().err


class TestBodyBoundEdges:
    def test_body_of_n_minus_1_n_and_n_plus_1_bytes(self):
        request = ValidationRequest(data=PAPER_EXAMPLE_TURTLE)
        size = len(json.dumps(request.to_json()).encode("utf-8"))
        for bound, accepted in ((size + 1, True), (size, True),
                                (size - 1, False)):
            with serve(person_schema(), max_body_bytes=bound) as server:
                server.start_background()
                client = ServiceClient(server.host, server.port)
                if accepted:
                    assert client.load_graph(request)["triples"] == 8
                else:
                    with pytest.raises(ServiceError) as excinfo:
                        client.load_graph(request)
                    assert excinfo.value.http_status == 413


class TestDerivativeCacheEdges:
    @pytest.mark.parametrize("stored, evictions", [(4, 0), (5, 0), (6, 1)])
    def test_eviction_starts_past_max_entries(self, stored, evictions):
        cache = DerivativeCache(max_entries=5)
        keys = [arc(EX[f"edge{index}"]) for index in range(stored)]
        for key in keys:
            cache.store(key, (True,), key)
        assert cache.evictions == evictions
        assert len(cache) == min(stored, 5)
        # the least recently used entry is the one evicted
        assert (cache.lookup(keys[0], (True,)) is None) == bool(evictions)
        assert cache.lookup(keys[-1], (True,)) is keys[-1]


class TestJournalLengthEdges:
    @pytest.mark.parametrize("subjects, answerable", [(4, True), (5, True),
                                                      (6, False)])
    def test_overflow_starts_past_max_entries(self, subjects, answerable):
        journal = ChangeJournal(max_entries=5)
        for index in range(subjects):
            journal.record(EX[f"s{index}"], index + 1)
        changes = journal.changes_since(0)
        assert (changes is not None) == answerable
        assert journal.overflows == (0 if answerable else 1)
        if answerable:
            assert len(changes) == subjects

    @pytest.mark.parametrize("subjects, answerable", [(4, True), (5, True),
                                                      (6, False)])
    def test_graph_journal_bound(self, subjects, answerable):
        graph = Graph(journal_max_entries=5)
        baseline = graph.generation
        for index in range(subjects):
            graph.add(Triple(EX[f"s{index}"], EX.p, Literal(index)))
        changes = graph.changes_since(baseline)
        assert (changes is not None) == answerable
        if answerable:
            assert changes == {EX[f"s{index}"] for index in range(subjects)}
