"""Turtle line ends: ``\\n``, ``\\r\\n`` and ``\\r`` each end one line.

A comment runs to the next line end of any of the three kinds, so a
document written with lone ``\\r`` keeps every triple after a comment, and
error positions count lines the same way for all three.
"""

from __future__ import annotations

import pytest

from repro.rdf import ParseError
from repro.rdf.turtle import parse_turtle

EOLS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}

DOCUMENT = """@prefix e: <http://e/> .
# a comment line
e:a e:b e:c . # a trailing comment
e:a e:d "a string" ;
    # a comment inside a statement
    e:f [ e:g 1 ] .

e:h e:i ( e:j e:k ) .
# a last comment without a line end"""

BROKEN = """@prefix e: <http://e/> .
# a comment line
e:a e:b \"\"\"a long string
over two lines\"\"\" .

e:a e:b ? ."""


def _with(text: str, eol: str) -> str:
    return text.replace("\n", eol)


@pytest.mark.parametrize("name", ["crlf", "cr"])
def test_every_line_end_parses_to_the_same_graph(name):
    expected = parse_turtle(DOCUMENT)
    assert len(expected) == 9
    assert parse_turtle(_with(DOCUMENT, EOLS[name])) == expected


def test_a_lone_cr_comment_does_not_swallow_the_document():
    graph = parse_turtle("@prefix e: <http://e/> .\r# c\re:a e:b e:c .\r")
    assert len(graph) == 1


@pytest.mark.parametrize("name", sorted(EOLS))
def test_errors_report_the_same_line_for_every_line_end(name):
    with pytest.raises(ParseError) as caught:
        parse_turtle(_with(BROKEN, EOLS[name]))
    assert (caught.value.line, caught.value.column) == (6, 9)
