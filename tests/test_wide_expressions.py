"""Wide shapes get verdicts: thousands of interleaved constraints.

A shape with 1,000 interleaved ``p . ?`` constraints, or ``p . {0,1000}``,
used to die with ``RecursionError``: the parser built left-deep ``‖``
chains and the compile passes (``nullable`` first) walked them
recursively.  ``‖`` is associative and commutative, so the parser now
builds balanced trees, ``⌈log2 n⌉`` deep.  Widths run up to what
``MAX_EXPRESSION_SIZE`` admits: 20,000 bare ``p .`` constraints, and
12,000 for ``p . ?`` and ``{0,n}``, whose optional copies cost three
expression nodes each.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.rdf import Graph
from repro.service import ServiceClient, ValidationRequest, serve
from repro.shex import Validator, expression_depth, parse_shexc

EX = "http://example.org/"
DATA = "".join(f'<{EX}{subject}> <{EX}{predicate}> "{value}" .\n'
               for subject, predicate, value in [
                   ("part", "p0", 0), ("part", "p1", 1), ("part", "p2", 2),
                   ("odd", "q", 1), ("many", "p", 1), ("many", "p", 2)])


def interleaved(width: int, cardinality: str) -> str:
    return "<S> {\n" + " ,\n".join(
        f"  <{EX}p{index}> .{cardinality}" for index in range(width)) + "\n}\n"


def repeated(width: int) -> str:
    return f"<S> {{ <{EX}p> . {{0,{width}}} }}\n"


#: (schema text, width, expected ``S`` verdict per subject)
CASES = {
    "required-1000": (interleaved(1_000, ""), 1_000,
                      {"part": False, "odd": False, "many": False}),
    "required-20000": (interleaved(20_000, ""), 20_000,
                       {"part": False, "odd": False, "many": False}),
    "optional-1000": (interleaved(1_000, " ?"), 1_000,
                      {"part": True, "odd": False, "many": False}),
    "optional-12000": (interleaved(12_000, " ?"), 12_000,
                       {"part": True, "odd": False, "many": False}),
    "repeat-1000": (repeated(1_000), 1_000,
                    {"part": False, "odd": False, "many": True}),
    "repeat-12000": (repeated(12_000), 12_000,
                     {"part": False, "odd": False, "many": True}),
}


def verdicts(report):
    return {entry.node.value[len(EX):]: entry.conforms for entry in report}


@pytest.mark.parametrize("case", sorted(CASES))
def test_library_verdicts_in_production_and_reference(case):
    text, width, expected = CASES[case]
    schema = parse_shexc(text)
    # balanced: the width costs depth logarithmically
    assert expression_depth(schema.expression("S")) <= 2 * width.bit_length() + 4
    graph = Graph.parse(DATA, format="ntriples")
    assert verdicts(Validator(graph, schema).validate_graph()) == expected
    assert verdicts(Validator(graph, schema, reference=True)
                    .validate_graph()) == expected


@pytest.mark.parametrize("case", ["required-20000", "optional-1000",
                                  "repeat-1000"])
def test_cli_gets_verdicts(case, tmp_path, capsys):
    text, _, expected = CASES[case]
    schema = tmp_path / "wide.shex"
    schema.write_text(text, encoding="utf-8")
    data = tmp_path / "data.nt"
    data.write_text(DATA, encoding="utf-8")
    code = main(["validate", "--data", str(data), "--data-format", "ntriples",
                 "--schema", str(schema), "--all-nodes", "--format", "csv"])
    assert code == 1  # "odd" never conforms
    rows = capsys.readouterr().out.splitlines()[1:]
    assert {row.split(",")[0][len(EX) + 1:-1]: row.split(",")[2] == "true"
            for row in rows} == expected


def test_post_graphs_with_a_wide_schema_is_not_a_server_error():
    text, _, expected = CASES["required-20000"]
    with serve() as server:
        server.start_background()
        client = ServiceClient(server.host, server.port)
        loaded = client.load_graph(ValidationRequest(
            data=DATA, data_format="ntriples", schema=text))
        assert loaded["conforms"] is False
        verdict = client.verdict(loaded["graph_id"], f"<{EX}part>", "S")
        assert verdict.conforms is expected["part"]
