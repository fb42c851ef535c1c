"""Resource limits: checked once at parsing, and exact at their edges.

Every integer or float limit of the CLI is range-checked by argparse, so a
bad value is a one-line usage error (exit 2) instead of a late traceback or
a server that fails every request.  The bounds themselves are tested at
``N − 1``, ``N`` and ``N + 1`` with counters, never with wall-clock time;
the memo-table bounds are module constants, monkeypatched to a small ``N``.
"""

from __future__ import annotations

import json

import pytest

import repro.shex.cache as cache_module
import repro.shex.compiled as compiled_module
from repro.cli import build_parser
from repro.rdf import EX, Graph, Literal, Triple
from repro.rdf.graph import ChangeJournal
from repro.service import ServiceClient, ServiceError, ValidationRequest, serve
from repro.shex import CompiledSchema, Schema, arc, star
from repro.shex.cache import DerivativeCache, SignatureCache
from repro.workloads import PAPER_EXAMPLE_TURTLE, person_schema


class TestLimitsAreCheckedAtParsing:
    # the memo tables are bounded by constants; no flag sizes them, so the
    # flag's old edge values (0 below its minimum, 1 at it) are both refused
    @pytest.mark.parametrize("command, value", [
        ("validate", "0"), ("serve", "0"), ("serve", "1"),
    ])
    def test_cache_max_entries_is_no_option(self, command, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--data", "d.ttl", "--schema",
                                       "s.shex", "--cache-max-entries", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: --cache-max-entries {value}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("option, value, minimum", [
        ("--shards", "-1", 0),
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
        ("--shards", "0"), ("--max-body-bytes", "0"),
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


#: the small bound every memo-table edge test runs at.
BOUND = 5

#: ``(stored, clears)``: N − 1 and N entries stay; entry N + 1 clears the
#: table once, leaving one entry and counting N evictions.
EDGES = [(BOUND - 1, 0), (BOUND, 0), (BOUND + 1, 1)]


def _keys(stored):
    return [star(arc(EX[f"edge{index}"])) for index in range(stored)]


class TestDerivativeCacheEdges:
    @pytest.mark.parametrize("stored, clears", EDGES)
    def test_eviction_starts_past_max_entries(self, stored, clears,
                                              monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_DERIVATIVE_CACHE_ENTRIES", BOUND)
        cache = DerivativeCache()
        keys = _keys(stored)
        for key in keys:
            cache.store(key, (True,), key)
        assert cache.evictions == clears * BOUND
        assert len(cache) == (1 if clears else stored)
        assert (cache.lookup(keys[0], (True,)) is None) == bool(clears)
        assert cache.lookup(keys[-1], (True,)) is keys[-1]

    @pytest.mark.parametrize("stored, clears", EDGES)
    def test_atom_table_edge(self, stored, clears, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_DERIVATIVE_CACHE_ENTRIES", BOUND)
        cache = DerivativeCache()
        for key in _keys(stored):
            assert cache.atoms_for(key) == ((key.expr.predicate, key.expr.object),)
        assert cache.evictions == clears * BOUND
        assert cache.stats()["expressions"] == (1 if clears else stored)


class TestSignatureCacheEdges:
    @pytest.mark.parametrize("stored, clears", EDGES)
    def test_clear_starts_past_max_entries(self, stored, clears,
                                           monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_SIGNATURE_CACHE_ENTRIES", BOUND)
        cache = SignatureCache()
        for index in range(stored):
            cache.store((("p", (True,) * (index + 1)),), "S", True)
        assert cache.evictions == clears * BOUND
        assert len(cache) == (1 if clears else stored)
        assert cache.lookup((("p", (True,) * stored),), "S") == (True, "")


class TestSignatureAtomEdges:
    @pytest.mark.parametrize("stored, clears", EDGES)
    def test_clear_starts_past_max_entries(self, stored, clears,
                                           monkeypatch):
        monkeypatch.setattr(compiled_module, "MAX_SIGNATURE_ATOM_ENTRIES", BOUND)
        compiled = CompiledSchema(Schema({"S": star(arc(EX.p))}))
        for index in range(stored):
            compiled.signature_atoms(EX[f"data{index}"])
        assert compiled.signature_atom_evictions == clears * BOUND
        assert len(compiled._signature_atoms) == (1 if clears else stored)


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
