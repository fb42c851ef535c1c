"""Derivatives of repeated predicates stay polynomial, and one match has a budget.

The family ``<S> { ex:p . ? ; …n times… ; ex:p . {2} }`` against a node
with ``n + 1`` ``ex:p`` triples conforms.  With ``‖`` and ``|`` kept as
binary trees its residuals differed only in operand order, and one
``validate_graph`` took 21.7 M derivative steps at ``n = 16``; canonical
n-ary nodes keep it polynomial.  ShEx validation is NP-complete in
general, so every ``match_neighbourhood`` call also stops at
``MAX_DERIVATIVE_STEPS`` with a typed error, never with a verdict it
could not reach.  Everything here counts steps; nothing reads a clock.
"""

from __future__ import annotations

import pytest

import repro.shex.derivatives as derivatives
from repro.cli import main
from repro.rdf import Graph
from repro.service import (
    DeltaRequest,
    ServiceClient,
    ServiceError,
    ValidationRequest,
    serve,
)
from repro.shex import DerivativeBudgetExceeded, DerivativeEngine, Validator, parse_shexc

EX = "http://example.org/"
NODE = f"<{EX}n>"


def family_schema(n: int) -> str:
    return ("PREFIX ex: <http://example.org/>\n<S> { "
            + " ; ".join(["ex:p . ?"] * n + ["ex:p . {2}"]) + " }\n")


def family_data(n: int, triples: int = None) -> str:
    count = n + 1 if triples is None else triples
    return "".join(f'{NODE} <{EX}p> "{index}" .\n' for index in range(count))


def family_run(n: int):
    graph = Graph.parse(family_data(n), format="ntriples")
    report = Validator(graph, parse_shexc(family_schema(n))).validate_graph()
    assert report.conforms
    return report.stats


class TestRepeatedPredicatesStayPolynomial:
    SIZES = (4, 8, 16, 32)

    def test_steps_and_sizes_grow_at_most_cubically(self):
        stats = {n: family_run(n) for n in self.SIZES}
        for n in self.SIZES[:-1]:
            assert stats[2 * n].derivative_steps <= 8 * stats[n].derivative_steps
            assert stats[2 * n].max_expression_size <= 8 * stats[n].max_expression_size

    def test_sixteen_optionals_conform_in_under_ten_thousand_steps(self):
        assert family_run(16).derivative_steps < 10_000

    @pytest.mark.parametrize("triples, conforms", [(2, True), (18, True), (19, False),
                                                   (1, False)])
    def test_reference_agrees_on_the_family(self, triples, conforms):
        graph = Graph.parse(family_data(16, triples), format="ntriples")
        schema = parse_shexc(family_schema(16))
        for reference in (False, True):
            report = Validator(graph, schema, reference=reference).validate_graph()
            assert report.conforms is conforms


def one_match_steps(n: int) -> int:
    """Derivative steps of one uncached match of the family's node."""
    graph = Graph.parse(family_data(n), format="ntriples")
    expression = parse_shexc(family_schema(n)).expression("S")
    engine = DerivativeEngine()
    result = engine.match_neighbourhood(expression, graph.triples())
    assert result.matched
    return result.stats.derivative_steps


class TestDerivativeStepBudget:
    def test_the_budget_is_a_million_steps(self):
        assert derivatives.MAX_DERIVATIVE_STEPS == 1_000_000

    @pytest.mark.parametrize("slack, raises", [(-1, True), (0, False), (1, False)])
    def test_one_match_at_the_budget_edge(self, monkeypatch, slack, raises):
        steps = one_match_steps(8)
        monkeypatch.setattr(derivatives, "MAX_DERIVATIVE_STEPS", steps + slack)
        if raises:
            with pytest.raises(DerivativeBudgetExceeded) as info:
                one_match_steps(8)
            assert info.value.budget == steps - 1
        else:
            assert one_match_steps(8) == steps

    @pytest.mark.parametrize("reference", [False, True])
    def test_validation_raises_instead_of_a_verdict(self, monkeypatch, reference):
        monkeypatch.setattr(derivatives, "MAX_DERIVATIVE_STEPS", 20)
        graph = Graph.parse(family_data(8), format="ntriples")
        validator = Validator(graph, parse_shexc(family_schema(8)),
                              reference=reference)
        with pytest.raises(DerivativeBudgetExceeded):
            validator.validate_graph()

    def test_cli_exits_2_with_a_message(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(derivatives, "MAX_DERIVATIVE_STEPS", 20)
        schema = tmp_path / "family.shex"
        schema.write_text(family_schema(8), encoding="utf-8")
        data = tmp_path / "family.nt"
        data.write_text(family_data(8), encoding="utf-8")
        code = main(["validate", "--data", str(data), "--data-format", "ntriples",
                     "--schema", str(schema), "--all-nodes"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error [limit-exceeded]" in captured.err
        assert "derivative steps" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestBudgetOverTheWire:
    def test_post_graphs_past_the_budget_is_a_typed_422(self, monkeypatch):
        monkeypatch.setattr(derivatives, "MAX_DERIVATIVE_STEPS", 20)
        with serve() as server:
            server.start_background()
            client = ServiceClient(server.host, server.port)
            with pytest.raises(ServiceError) as info:
                client.load_graph(ValidationRequest(
                    data=family_data(8), data_format="ntriples",
                    schema=family_schema(8)))
        assert info.value.code == "limit-exceeded"
        assert info.value.http_status == 422

    def test_a_delta_past_the_budget_is_applied_but_not_revalidated(self, monkeypatch):
        with serve() as server:
            server.start_background()
            client = ServiceClient(server.host, server.port)
            loaded = client.load_graph(ValidationRequest(
                data=family_data(8, 1), data_format="ntriples",
                schema=family_schema(8)))
            assert loaded["conforms"] is False
            graph_id = loaded["graph_id"]
            monkeypatch.setattr(derivatives, "MAX_DERIVATIVE_STEPS", 20)
            with pytest.raises(ServiceError) as info:
                client.apply_delta(graph_id, DeltaRequest(add=family_data(8)))
            assert info.value.code == "limit-exceeded"
            assert info.value.http_status == 422
            assert "delta applied (+8/-0) but not revalidated" in info.value.message
            # the error carries the generation the applied delta moved to
            assert info.value.generation == loaded["generation"] + 8
            assert client.cache.latest_generation(graph_id) == info.value.generation
            # the baseline stays stale, and reads say so
            with pytest.raises(ServiceError) as stale:
                client.verdict(graph_id, NODE, "S")
            assert stale.value.code == "stale-baseline"
            monkeypatch.undo()
            # the retained baseline still answers the next delta incrementally,
            # stamped by the same client with the generation it observed
            response = client.apply_delta(graph_id, DeltaRequest())
            assert response.full_rebuild is False
            assert response.conforms is True
            assert client.verdict(graph_id, NODE, "S").conforms is True
