"""Reference chains: the hop budget bounds the reference, production never recurses.

``<S> { ex:p @<S> ? }`` over a chain of ``n`` nodes nests one matching
frame per node in the reference (``Validator(reference=True)``).  A
:class:`ReferenceContext` whose descent gets deep raises the
interpreter's recursion limit to fit the rest of its ``max_recursion_depth``
budget, at ``FRAMES_PER_HOP`` plus the expression walk per hop.  So a
reference chain of up to ``max_recursion_depth`` nodes gets a verdict and a
longer one gets a ``limit_exceeded`` failure — never a ``RecursionError``.

Production answers each reference from the typing and solves the greatest
fixpoint with a worklist, so its stack depth does not grow with the chain:
any chain gets a verdict, from the library, the CLI or a ``repro serve``
handler thread, and the recursion limit is never raised.  Each test starts
from the interpreter's default limit.
"""

from __future__ import annotations

import sys

import pytest

from repro.cli import main
from repro.rdf import Graph, IRI, Triple
from repro.service import ServiceClient, ValidationRequest, serve
from repro.shex import Validator, expression_depth, parse_shexc
from repro.shex.reference import (
    FRAMES_PER_HOP,
    MAX_RECURSION_DEPTH as BUDGET,
    ReferenceContext,
)
from repro.shex.schema import FixpointContext

CHAIN_SCHEMA = "PREFIX ex: <http://example.org/>\n<S> { ex:p @<S> ? }\n"
HEAD = "<http://example.org/n0>"


def chain_turtle(nodes: int) -> str:
    """``nodes`` subjects linked n0 → n1 → … by ``ex:p``."""
    lines = ["@prefix ex: <http://example.org/> ."]
    lines += [f"ex:n{i} ex:p ex:n{i + 1} ." for i in range(nodes - 1)]
    return "\n".join(lines) + "\n"


@pytest.fixture(autouse=True)
def default_recursion_limit():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(max(saved, sys.getrecursionlimit()))


def check_depths(schema_text: str, nodes: int, reference: bool = True,
                 spied=("check_reference",)):
    """Stack depths at every call of the ``spied`` context methods.

    The reference engine resolves each ``@<S>`` from inside the expression
    walk, the worst case the budget is sized for.  Production reads the
    typing (``_status``) and calls ``check_reference`` only from a match.
    """
    depths = []
    spied_class = ReferenceContext if reference else FixpointContext
    originals = {name: getattr(spied_class, name) for name in spied}

    def spy(original):
        def spying(self, node, label):
            frame, depth = sys._getframe(), 0
            while frame is not None:
                depth += 1
                frame = frame.f_back
            depths.append(depth)
            return original(self, node, label)
        return spying

    schema = parse_shexc(schema_text)
    graph = Graph.parse(chain_turtle(nodes))
    for name, original in originals.items():
        setattr(spied_class, name, spy(original))
    try:
        Validator(graph, schema, reference=reference).validate_node(
            IRI("http://example.org/n0"), "S")
    finally:
        for name, original in originals.items():
            setattr(spied_class, name, original)
    return schema, depths


def hop_frame_counts(schema_text: str, nodes: int):
    """Stack-depth deltas between successive reference ``check_reference`` calls."""
    schema, depths = check_depths(schema_text, nodes)
    return schema, [after - before for before, after in zip(depths, depths[1:])]


class TestFramesPerHop:
    def test_chain_hop_costs_frames_per_hop_plus_the_expression_walk(self):
        schema, deltas = hop_frame_counts(CHAIN_SCHEMA, 20)
        assert len(deltas) == 19  # one check_reference per node, n0 included
        walk = expression_depth(schema.expression("S"))
        # + 1: the spy's own frame sits on the stack once per hop
        assert set(deltas) == {FRAMES_PER_HOP + walk + 1}

    def test_deeper_shapes_stay_within_the_sized_walk(self):
        text = ("PREFIX ex: <http://example.org/>\n"
                "<S> { ex:a . ? ; ex:b . * ; ( ex:c . | ex:d . ) ? ; "
                "ex:p @<S> ? ; ex:e . ? }\n")
        schema, deltas = hop_frame_counts(text, 20)
        assert deltas
        assert max(deltas) <= FRAMES_PER_HOP + 2 * schema.max_expression_depth() + 1

    def test_production_stack_depth_does_not_grow_with_hops(self):
        deepest = {}
        for nodes in (20, 2000):
            _, depths = check_depths(CHAIN_SCHEMA, nodes, reference=False,
                                     spied=("check_reference", "_status"))
            # every hop is read from the typing once
            assert len(depths) >= nodes - 1
            deepest[nodes] = max(depths)
        assert deepest[2000] == deepest[20]


def long_chain(nodes: int) -> Graph:
    """``chain_turtle(nodes)`` built triple by triple (parsing is the slow part)."""
    graph = Graph()
    p = IRI("http://example.org/p")
    chain = [IRI(f"http://example.org/n{i}") for i in range(nodes)]
    with graph.batch():
        for subject, obj in zip(chain, chain[1:]):
            graph.add(Triple(subject, p, obj))
    return graph


class TestProductionChains:
    def test_a_100000_hop_chain_conforms_without_raising_the_limit(self):
        limit = sys.getrecursionlimit()
        report = Validator(long_chain(100_000),
                           parse_shexc(CHAIN_SCHEMA)).validate_graph()
        assert len(report) == 99_999
        assert report.conforms
        assert not any(entry.limit_exceeded for entry in report.entries)
        assert sys.getrecursionlimit() == limit

    def test_validate_node_past_the_budget(self):
        node = IRI("http://example.org/n0")
        validator = Validator(long_chain(BUDGET + 1), parse_shexc(CHAIN_SCHEMA))
        entry = validator.validate_node(node, "S")
        assert entry.conforms and not entry.limit_exceeded


class TestChainAtTheBudget:
    @pytest.mark.parametrize("nodes", [BUDGET - 1, BUDGET])
    def test_chains_within_the_budget_get_verdicts(self, nodes):
        report = Validator(Graph.parse(chain_turtle(nodes)),
                           parse_shexc(CHAIN_SCHEMA),
                           reference=True).validate_graph()
        assert report.conforms
        assert not any(entry.limit_exceeded for entry in report.entries)

    def test_one_node_past_the_budget_is_limit_exceeded(self):
        report = Validator(Graph.parse(chain_turtle(BUDGET + 1)),
                           parse_shexc(CHAIN_SCHEMA),
                           reference=True).validate_graph()
        head = [entry for entry in report.entries if entry.node.n3() == HEAD]
        assert len(head) == 1
        assert not head[0].conforms and head[0].limit_exceeded

    def test_validate_node_at_the_budget(self):
        schema = parse_shexc(CHAIN_SCHEMA)
        node = IRI("http://example.org/n0")
        within = Validator(Graph.parse(chain_turtle(BUDGET)), schema,
                           reference=True)
        assert within.validate_node(node, "S").conforms
        past = Validator(Graph.parse(chain_turtle(BUDGET + 1)), schema,
                         reference=True)
        result = past.validate_node(node, "S")
        assert not result.conforms and result.limit_exceeded

    def test_cli_validates_a_chain_past_the_default_stack(self, tmp_path, capsys):
        data = tmp_path / "chain.ttl"
        data.write_text(chain_turtle(BUDGET))
        schema = tmp_path / "chain.shex"
        schema.write_text(CHAIN_SCHEMA)
        code = main(["validate", "--data", str(data), "--schema", str(schema),
                     "--all-nodes", "--format", "summary"])
        assert code == 0
        # --all-nodes covers subjects; the chain's last node has no triples
        assert f"{BUDGET - 1}/{BUDGET - 1} conform" in capsys.readouterr().out


class TestChainOverHttp:
    def test_serve_handler_thread_answers_at_and_past_the_budget(self):
        # production: the handler thread gets a verdict on both sides of the
        # reference's budget
        with serve(parse_shexc(CHAIN_SCHEMA)) as server:
            server.start_background()
            client = ServiceClient(server.host, server.port)
            verdicts = {}
            for nodes in (BUDGET, BUDGET + 1):
                loaded = client.load_graph(ValidationRequest(data=chain_turtle(nodes)))
                verdicts[nodes] = client.verdict(loaded["graph_id"], HEAD, "S").conforms
        assert verdicts == {BUDGET: True, BUDGET + 1: True}
