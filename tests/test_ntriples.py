"""Unit tests for the N-Triples parser and serialiser."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rdf import BNode, EX, Graph, Literal, Triple, XSD, parse_turtle
from repro.rdf.errors import ParseError
from repro.rdf.ntriples import (
    _EOL_RE,
    _iter_triples,
    _parse_line_tokens,
    escape_string,
    iter_ntriples,
    parse_ntriples,
    serialize_ntriples,
    split_ntriples_lines,
    unescape_string,
)


class TestEscaping:
    def test_round_trip_simple(self):
        assert unescape_string(escape_string('say "hi"\n')) == 'say "hi"\n'

    def test_unicode_escapes(self):
        assert unescape_string("caf\\u00e9") == "café"
        assert unescape_string("\\U0001F600") == "😀"

    def test_invalid_escape_raises(self):
        with pytest.raises(ParseError):
            unescape_string("\\q")
        with pytest.raises(ParseError):
            unescape_string("dangling\\")

    def test_tab_and_backslash(self):
        assert escape_string("a\tb\\c") == "a\\tb\\\\c"

    def test_no_backslash_returns_the_input_itself(self):
        value = "plain caf\u00e9 text"
        assert unescape_string(value) is value

    @pytest.mark.parametrize("escaped", ["\\uZZZZ", "\\u+fff", "\\U00110000"])
    def test_malformed_unicode_escapes_are_parse_errors(self, escaped):
        with pytest.raises(ParseError, match="invalid \\\\[uU] escape"):
            unescape_string("ab" + escaped)

    def test_errors_point_at_the_backslash(self):
        with pytest.raises(ParseError) as info:
            unescape_string("ab\\q", 7, 30)
        assert (info.value.line, info.value.column) == (7, 32)
        assert str(info.value) == "unknown escape sequence: \\q at line 7, column 32"

    def test_error_on_a_later_line_names_only_the_line(self):
        with pytest.raises(ParseError) as info:
            unescape_string("a\nb\\q", 3, 10)
        assert (info.value.line, info.value.column) == (4, None)


class TestParsing:
    def test_simple_triple(self):
        graph = parse_ntriples(
            '<http://example.org/s> <http://example.org/p> "hello" .\n'
        )
        assert Triple(EX.s, EX.p, Literal("hello")) in graph

    def test_iri_object(self):
        graph = parse_ntriples("<http://example.org/s> <http://example.org/p> <http://example.org/o> .")
        assert Triple(EX.s, EX.p, EX.o) in graph

    def test_blank_nodes(self):
        graph = parse_ntriples("_:a <http://example.org/p> _:b .")
        triple = next(iter(graph))
        assert triple.subject == BNode("a")
        assert triple.object == BNode("b")

    def test_typed_literal(self):
        graph = parse_ntriples(
            '<http://example.org/s> <http://example.org/p> '
            '"42"^^<http://www.w3.org/2001/XMLSchema#integer> .'
        )
        triple = next(iter(graph))
        assert triple.object == Literal("42", datatype=XSD.integer)

    def test_language_tagged_literal(self):
        graph = parse_ntriples('<http://example.org/s> <http://example.org/p> "chat"@fr .')
        assert next(iter(graph)).object == Literal("chat", lang="fr")

    def test_comments_and_blank_lines_ignored(self):
        text = """
        # a comment
        <http://example.org/s> <http://example.org/p> "x" .

        # another
        """
        assert len(parse_ntriples(text)) == 1

    def test_escaped_literal_content(self):
        graph = parse_ntriples(
            '<http://example.org/s> <http://example.org/p> "line1\\nline2\\t\\"q\\"" .'
        )
        assert next(iter(graph)).object.lexical == 'line1\nline2\t"q"'

    def test_trailing_comment_after_dot(self):
        graph = parse_ntriples('<http://example.org/s> <http://example.org/p> "x" . # trailing')
        assert len(graph) == 1

    def test_missing_dot_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples('<http://example.org/s> <http://example.org/p> "x"')

    def test_literal_subject_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples('"literal" <http://example.org/p> "x" .')

    def test_bnode_predicate_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples('<http://example.org/s> _:p "x" .')

    def test_error_reports_line_number(self):
        text = '<http://example.org/s> <http://example.org/p> "ok" .\nbroken line .'
        with pytest.raises(ParseError) as info:
            parse_ntriples(text)
        assert info.value.line == 2

    def test_iter_ntriples_is_lazy(self):
        text = '<http://example.org/s> <http://example.org/p> "x" .\n' * 3
        iterator = iter_ntriples(text)
        assert next(iterator).object == Literal("x")


class TestSerialisation:
    def test_round_trip(self):
        graph = Graph([
            Triple(EX.s, EX.p, Literal("hello\nworld")),
            Triple(EX.s, EX.p, Literal(42)),
            Triple(EX.s, EX.q, Literal("chat", lang="fr")),
            Triple(BNode("b1"), EX.p, EX.o),
        ])
        text = serialize_ntriples(graph)
        assert parse_ntriples(text) == graph

    def test_output_is_sorted_and_terminated(self):
        graph = Graph([
            Triple(EX.b, EX.p, Literal(1)),
            Triple(EX.a, EX.p, Literal(1)),
        ])
        lines = serialize_ntriples(graph).strip().splitlines()
        assert lines[0].startswith("<http://example.org/a>")
        assert all(line.endswith(" .") for line in lines)

    def test_empty_graph_serialises_to_empty_string(self):
        assert serialize_ntriples(Graph()) == ""

    def test_plain_string_has_no_datatype_suffix(self):
        graph = Graph([Triple(EX.s, EX.p, Literal("plain"))])
        assert "^^" not in serialize_ntriples(graph)


#: characters ``str.splitlines`` breaks at that N-Triples allows raw inside
#: a string literal.
NON_EOL_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


class TestLineSplitting:
    @pytest.mark.parametrize("char", NON_EOL_BREAKS, ids=repr)
    def test_raw_character_inside_a_literal_parses(self, char):
        graph = parse_ntriples(f'<http://a> <http://b> "x{char}y" .\n')
        assert next(iter(graph)).object == Literal(f"x{char}y")

    @pytest.mark.parametrize("char", NON_EOL_BREAKS, ids=repr)
    def test_serialised_literal_round_trips(self, char):
        graph = Graph([Triple(EX.s, EX.p, Literal(f"x{char}y")),
                       Triple(EX.s, EX.q, Literal("z"))])
        text = serialize_ntriples(graph)
        assert parse_ntriples(text) == graph

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=repr)
    def test_every_ntriples_eol_ends_a_line(self, eol):
        text = eol.join(['<http://a> <http://b> "1" .',
                         "# comment", "",
                         '<http://a> <http://b> "2" .']) + eol
        assert split_ntriples_lines(text)[:4] == [
            '<http://a> <http://b> "1" .', "# comment", "",
            '<http://a> <http://b> "2" .']
        assert [t.object.lexical for t in iter_ntriples(text)] == ["1", "2"]


class TestPositionedErrors:
    @pytest.mark.parametrize("literal, message, column", [
        ('"ab\\q"', "unknown escape sequence: \\q", 26),
        ('"ab\\u12"', "invalid \\u escape: '\\\\u12'", 26),
        ('"\\U0011FFFF"@en', "invalid \\U escape", 24),
    ])
    def test_escape_error_mid_document_has_line_and_column(
            self, literal, message, column):
        text = ('<http://a> <http://b> "ok" .\n'
                f'<http://a> <http://b>  {literal} .\n')
        with pytest.raises(ParseError) as info:
            parse_ntriples(text)
        assert (info.value.line, info.value.column) == (2, column)
        assert str(info.value).startswith(message)

    def test_turtle_escape_error_has_line_and_column(self):
        text = '@prefix e: <http://e/> .\ne:a e:b "ab\\q" .\n'
        with pytest.raises(ParseError) as info:
            parse_turtle(text)
        assert (info.value.line, info.value.column) == (2, 12)

    def test_empty_iri_is_a_parse_error(self):
        with pytest.raises(ParseError) as info:
            parse_ntriples('<http://a> <http://b> <> .')
        assert (info.value.line, info.value.column) == (1, 21)


class TestTermSharing:
    def test_repeated_terms_are_one_object_on_the_dict_path(self):
        text = ('<http://a> <http://p> <http://b> .\n'
                '<http://b> <http://p> "x"@en .\n'
                '<http://a> <http://q> "x"@en .\n'
                '_:n <http://q> <http://a> .\n')
        first, second, third, fourth = iter_ntriples(text)
        assert first.subject is third.subject is fourth.object
        assert first.predicate is second.predicate
        assert first.object is second.subject
        assert second.object is third.object
        by_key = {(t.subject.n3(), t.predicate.n3()): t
                  for t in parse_ntriples(text)}
        assert (by_key[("<http://a>", "<http://p>")].subject
                is by_key[("<http://a>", "<http://q>")].subject)


# -- differential test: split ingest vs the per-token reference -----------

def _reference(text):
    triples = []
    for lineno, line in enumerate(split_ntriples_lines(text), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            triples.append(_parse_line_tokens(line, lineno))
    return triples


def _outcome(parse):
    try:
        return ("ok", parse())
    except ParseError as error:
        return ("error", str(error), error.line, error.column)


_IRI_CHARS = "abcxyz019/#:._-~é"
_LABEL_CHARS = "abAB019_.-"
_RAW_CHARS = "ab zéà\U0001F600' \x1c\t#.<>@^_:"
_ESCAPES = ["\\t", "\\n", "\\r", '\\"', "\\\\", "\\'", "\\u00e9", "\\U0001F600"]

iris = st.builds(lambda tail: f"<http://ex.org/{tail}>",
                 st.text(_IRI_CHARS, max_size=6))
bnodes = st.builds(lambda head, tail: f"_:{head}{tail}",
                   st.sampled_from("ab0"), st.text(_LABEL_CHARS, max_size=4))
lexicals = st.lists(st.one_of(st.sampled_from(_RAW_CHARS),
                              st.sampled_from(_ESCAPES)),
                    max_size=6).map("".join)
literals = st.builds(
    lambda lexical, suffix: f'"{lexical}"{suffix}', lexicals,
    st.sampled_from(["", "@en", "@en-GB", "@EN",
                     "^^<http://www.w3.org/2001/XMLSchema#integer>"]))
spaces = st.sampled_from([" ", "  ", "\t", ""])


_BAD_ESCAPES = ["\\q", "\\ ", "\\u12", "\\uZZZZ", "\\U0011FFFF"]
bad_literals = st.builds(lambda head, bad, tail: f'"{head}{bad}{tail}"',
                         lexicals, st.sampled_from(_BAD_ESCAPES), lexicals)


@st.composite
def triple_lines(draw, objects=st.one_of(iris, bnodes, literals)):
    subject = draw(st.one_of(iris, bnodes))
    obj = draw(objects)
    line = (f"{draw(spaces)}{subject}{draw(spaces)}{draw(iris)}"
            f"{draw(spaces)}{obj}{draw(spaces)}.")
    if draw(st.booleans()):
        line += f"{draw(spaces)}# note"
    return line


@st.composite
def mutated(draw, line):
    index = draw(st.integers(0, len(line)))
    action = draw(st.sampled_from(["delete", "insert", "truncate"]))
    if action == "delete":
        return line[:index] + line[index + 1:]
    if action == "truncate":
        return line[:index]
    insert = draw(st.sampled_from(list('"<>\\._@^ #qu')
                                  + ["\\q", "\\u1", "\\U0011FFFF"]))
    return line[:index] + insert + line[index:]


#: tokens every role draws from, so a token first seen in one role comes
#: back in another: literals as subjects and blank nodes as predicates,
#: equal literals written as different tokens, and literals holding
#: `` .`` (which a line split must not take for the end dot).
_SHARED_TOKENS = [
    "<http://ex.org/a>", "_:b", "_:b.", '"a"',
    '"a"^^<http://www.w3.org/2001/XMLSchema#string>', '"q"@en', '"q"@EN',
    '"x . y"', '"x ."', '" . "', '"\\" ."', '"ab\\q ."',
]
shared = st.sampled_from(_SHARED_TOKENS)


@st.composite
def canonical_lines(draw):
    """``<s> <p> o .`` with single spaces: the lines ingest splits."""
    subject = draw(st.one_of(shared, iris, bnodes))
    predicate = draw(st.one_of(shared, iris, iris))
    obj = draw(st.one_of(shared, iris, bnodes, literals))
    return f"{subject} {predicate} {obj} ."


#: documents every differential run starts with: each role check of the
#: split path, and each way a line can look canonical without being so.
_SPLIT_CASES = [
    # a literal first seen as an object, then as a subject
    '<http://a> <http://p> "x" .\n"x" <http://p> <http://b> .\n',
    # a blank node first seen as a subject, then as a predicate
    "_:b <http://p> <http://a> .\n<http://a> _:b <http://c> .\n",
    # duplicates, and equal literals written as different tokens
    '<http://a> <http://p> "a" .\n'
    '<http://a> <http://p> "a"^^<http://www.w3.org/2001/XMLSchema#string> .\n'
    '<http://a> <http://p> "a" .\n<http://a> <http://p> "q"@en .\n'
    '<http://a> <http://p> "q"@EN .\n',
    # " ." inside literals
    '<http://a> <http://p> "x . y" .\n<http://a> <http://p> " . " .\n'
    '<http://a> <http://p> "x ." .\n<http://a> <http://p> "\\" ." .\n',
    # an escape error behind a " ." in the literal
    '<http://a> <http://p> "ok" .\n<http://a> <http://p> "ab\\q ." .\n',
    # no space before the end dot
    '<http://a> <http://p> "x"a.\n',
    '<http://a> <http://p> _:b..\n',
    # canonical lines beside tabs, doubled spaces and comments
    "<http://a>\t<http://p> <http://b> .\n<http://a> <http://p> <http://b> .\n"
    "<http://a> <http://p>  <http://c> . # c\n<http://b> <http://p> <http://a> .\n"
    "# <http://a> <http://p> <http://d> .\n <http://a> <http://p> <http://e> .\n",
]


def split_cases(test):
    for text in _SPLIT_CASES:
        test = example(text=text)(test)
    return test


@st.composite
def documents(draw):
    # a small pool of lines per document makes terms and triples repeat
    # across lines, canonical ones beside ones with other spacing
    pool = draw(st.lists(st.one_of(triple_lines(), canonical_lines()),
                         min_size=1, max_size=4))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["triple", "triple", "triple", "comment",
                                     "blank", "mutated", "mutated",
                                     "bad-escape", "canonical"]))
        if kind == "triple":
            lines.append(draw(st.sampled_from(pool)))
        elif kind == "canonical":
            lines.append(draw(canonical_lines()))
        elif kind == "bad-escape":
            lines.append(draw(triple_lines(bad_literals)))
        elif kind == "comment":
            lines.append(f"{draw(spaces)}# {draw(triple_lines())}")
        elif kind == "blank":
            lines.append(draw(spaces))
        else:
            lines.append(draw(mutated(draw(st.sampled_from(pool)))))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def _reference_graph(text):
    """The graph ``add`` builds from the reference triples in one batch."""
    graph = Graph()
    with graph.batch():
        for triple in _reference(text):
            graph.add(triple)
    return graph


def _built(graph):
    return set(graph), graph.generation, graph.journal.changes_since(0)


class TestDifferentialParser:
    @settings(max_examples=300, deadline=None)
    @given(text=documents())
    @split_cases
    def test_split_ingest_agrees_with_the_per_token_reference(self, text):
        expected = _outcome(lambda: _reference(text))
        assert _outcome(lambda: list(iter_ntriples(text))) == expected

    @settings(max_examples=100, deadline=None)
    @given(text=documents())
    @split_cases
    def test_graph_parse_agrees_with_the_per_token_reference(self, text):
        # the same triples, generation and journal, or the same error
        expected = _outcome(lambda: _built(_reference_graph(text)))
        parsed = _outcome(lambda: _built(Graph.parse(text, format="ntriples")))
        assert parsed == expected


# -- the lazy line walk against a whole-text regex split -------------------

#: literal contents with raw U+2028 and U+0085 (no N-Triples line end)
#: beside an escaped newline
_BREAK_LEXICALS = st.lists(st.sampled_from(["a", " ", "\u2028", "\x85", "\\n"]),
                           max_size=4).map("".join)


@st.composite
def mixed_eol_documents(draw):
    """Lines of every kind, each ended by its own ``\\n``, ``\\r\\n`` or ``\\r``."""
    objects = st.one_of(iris, literals, st.builds(
        lambda lexical: f'"{lexical}"', _BREAK_LEXICALS))
    kinds = st.one_of(triple_lines(objects), triple_lines(bad_literals),
                      spaces, st.builds(lambda line: f"# {line}", triple_lines()))
    lines = draw(st.lists(st.one_of(kinds, mutated(draw(triple_lines()))),
                          max_size=8))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return text + draw(st.one_of(st.just(""), triple_lines(), spaces))


class TestLazyLineWalk:
    @settings(max_examples=300, deadline=None)
    @given(text=mixed_eol_documents())
    def test_the_walk_equals_the_regex_split(self, text):
        lines = _EOL_RE.split(text)
        assert split_ntriples_lines(text) == lines
        # the same triples, or the same error at the same line and column
        expected = _outcome(lambda: list(_iter_triples(lines)))
        assert _outcome(lambda: list(iter_ntriples(text))) == expected

    @pytest.mark.parametrize("text", ["", "\n", "\r", "\r\n", "\n\r", "a", "a\r\r\nb"],
                             ids=repr)
    def test_edge_texts_split_like_the_regex(self, text):
        assert split_ntriples_lines(text) == _EOL_RE.split(text)
