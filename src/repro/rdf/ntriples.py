"""N-Triples parser and serialiser (RDF 1.1 N-Triples, line-based).

N-Triples is the simplest RDF concrete syntax: one triple per line, full IRIs
only.  It is used as the interchange format for the workload generators and as
the building block of the Turtle serialiser's escaping rules.

Ingest matches each line once against a whole-line regex built from the
per-token patterns below.  A line it rejects is re-parsed token by token
(:func:`_parse_line_tokens`) only to raise the precise :class:`ParseError`.
The parse keeps a term table keyed by raw token, so each distinct IRI,
blank node or literal is built and validated once and every triple that
uses it shares the same object.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, Optional

from .errors import ParseError
from .graph import Graph
from .terms import BNode, IRI, Literal, ObjectTerm, SubjectTerm, Term, Triple

__all__ = [
    "parse_ntriples",
    "iter_ntriples",
    "split_ntriples_lines",
    "parse_term",
    "serialize_ntriples",
    "unescape_string",
    "escape_string",
]

# IRIREF admits no backslash, so IRIs never need unescaping; it must not be
# empty either (an empty IRI is no absolute IRI, and would otherwise escape
# as an untyped ValueError from the IRI constructor).
_IRIREF = r"<([^\x00-\x20<>\"{}|^`\\]+)>"
_BNODE = r"_:([A-Za-z0-9][A-Za-z0-9_.-]*)"
_STRING = r'"((?:[^"\\\n\r]|\\.)*)"'
_LANGTAG = r"@([a-zA-Z]{1,8}(?:-[a-zA-Z0-9]{1,8})*)"
_END = r"\s*\.\s*(#.*)?$"

_SUBJECT_RE = re.compile(rf"\s*(?:{_IRIREF}|{_BNODE})")
_PREDICATE_RE = re.compile(rf"\s*{_IRIREF}")
_OBJECT_RE = re.compile(
    rf"\s*(?:{_IRIREF}|{_BNODE}|{_STRING}(?:{_LANGTAG}|\^\^{_IRIREF})?)"
)
_END_RE = re.compile(_END)

# The same grammar as one match per line.  Groups 1, 4 and 6 are the whole
# subject, predicate and object tokens (the term-table keys); the object
# blank node's lookahead keeps its label as greedy as _OBJECT_RE's, so the
# regex cannot backtrack a trailing "." out of the label into the end dot.
_TRIPLE_RE = re.compile(
    rf"\s*({_IRIREF}|{_BNODE})"
    rf"\s*({_IRIREF})"
    rf"\s*({_IRIREF}|{_BNODE}(?![A-Za-z0-9_.-])"
    rf"|{_STRING}(?:{_LANGTAG}|\^\^{_IRIREF})?)"
    + _END
)

_EOL_RE = re.compile(r"\r\n?|\n")
_LF_RE = re.compile("\n")

_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.?))",
                        re.DOTALL)

_ESCAPE_SEQUENCES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


def unescape_string(value: str, line: Optional[int] = None,
                    column: Optional[int] = None) -> str:
    """Resolve ``\\n``, ``\\t``, ``\\uXXXX`` and ``\\UXXXXXXXX`` escapes.

    ``line`` and ``column`` locate ``value`` in its document; a bad escape
    raises a :class:`ParseError` at the line and column of its backslash
    (line only when the escape sits on a later line of a multi-line string).
    """
    if "\\" not in value:
        return value

    def resolve(match: re.Match) -> str:
        code = match.group(1) or match.group(2)
        if code is not None and (len(code) == 4 or int(code, 16) <= 0x10FFFF):
            return chr(int(code, 16))
        # eight hex digits past U+10FFFF fail like a short \U escape
        esc = "U" if code is not None else match.group(3)
        char = _ESCAPE_SEQUENCES.get(esc)
        if char is not None:
            return char
        offset = match.start()
        if not esc:
            message = "dangling escape at end of string"
        elif esc == "u":
            message = f"invalid \\u escape: {value[offset:offset + 6]!r}"
        elif esc == "U":
            message = f"invalid \\U escape: {value[offset:offset + 10]!r}"
        else:
            message = f"unknown escape sequence: \\{esc}"
        newlines = value.count("\n", 0, offset)
        raise ParseError(
            message,
            None if line is None else line + newlines,
            None if column is None or newlines else column + offset)

    return _ESCAPE_RE.sub(resolve, value)


def escape_string(value: str) -> str:
    """Escape a literal lexical form for N-Triples output."""
    out = []
    for ch in value:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        else:
            out.append(ch)
    return "".join(out)


def _literal(string: str, lang: Optional[str], dtype: Optional[str],
             lineno: int, column: int) -> Literal:
    lexical = unescape_string(string, lineno, column)
    if lang:
        return Literal(lexical, lang=lang)
    if dtype:
        return Literal(lexical, datatype=IRI(dtype))
    return Literal(lexical)


def _parse_subject(line: str, pos: int, lineno: int) -> tuple[SubjectTerm, int]:
    match = _SUBJECT_RE.match(line, pos)
    if not match:
        raise ParseError("expected IRI or blank node as subject", lineno, pos)
    iri, bnode = match.group(1), match.group(2)
    term: SubjectTerm = IRI(iri) if iri is not None else BNode(bnode)
    return term, match.end()


def _parse_predicate(line: str, pos: int, lineno: int) -> tuple[IRI, int]:
    match = _PREDICATE_RE.match(line, pos)
    if not match:
        raise ParseError("expected IRI as predicate", lineno, pos)
    return IRI(match.group(1)), match.end()


def _parse_object(line: str, pos: int, lineno: int) -> tuple[ObjectTerm, int]:
    match = _OBJECT_RE.match(line, pos)
    if not match:
        raise ParseError("expected IRI, blank node or literal as object", lineno, pos)
    iri, bnode, string, lang, dtype = match.group(1, 2, 3, 4, 5)
    term: ObjectTerm
    if iri is not None:
        term = IRI(iri)
    elif bnode is not None:
        term = BNode(bnode)
    else:
        term = _literal(string, lang, dtype, lineno, match.start(3))
    return term, match.end()


def _parse_line_tokens(line: str, lineno: int) -> Triple:
    """Parse one non-blank, non-comment line token by token.

    The reference for the one-match path: ingest calls it only for lines
    :data:`_TRIPLE_RE` rejects, to raise the :class:`ParseError` naming the
    first token that fails, at its line and column.
    """
    subject, pos = _parse_subject(line, 0, lineno)
    predicate, pos = _parse_predicate(line, pos, lineno)
    obj, pos = _parse_object(line, pos, lineno)
    if not _END_RE.match(line, pos):
        raise ParseError("expected '.' at end of triple", lineno, pos)
    return Triple(subject, predicate, obj)


def parse_term(text: str) -> ObjectTerm:
    """Parse one N-Triples term (``<iri>``, ``_:bnode`` or a literal).

    The service layer's query-string contract: verdict queries name nodes in
    N-Triples syntax, the one representation every term already knows how to
    emit (:meth:`~repro.rdf.terms.Term.n3`).  Raises :class:`ParseError` on
    malformed input or trailing garbage.
    """
    stripped = text.strip()
    term, pos = _parse_object(stripped, 0, 1)
    if stripped[pos:].strip():
        raise ParseError(f"trailing characters after term: {stripped[pos:]!r}", 1, pos)
    return term


def _iter_triples(lines: Iterable[str]) -> Iterator[Triple]:
    """The ingest loop: one regex match and three term-table probes a line.

    The table maps raw tokens (``<iri>``, ``_:label``, ``"lexical"@lang``
    …) to the terms built from them, for the lifetime of the parse.
    """
    table: Dict[str, Term] = {}
    get = table.get
    match_line = _TRIPLE_RE.match
    new = tuple.__new__
    for lineno, line in enumerate(lines, start=1):
        match = match_line(line)
        if match is None:
            stripped = line.strip()
            if not stripped or stripped[0] == "#":
                continue
            yield _parse_line_tokens(line, lineno)
            continue
        s_token, p_token, o_token = match.group(1, 4, 6)
        subject = get(s_token)
        if subject is None:
            iri = match.group(2)
            subject = table[s_token] = (IRI(iri) if iri is not None
                                        else BNode(match.group(3)))
        predicate = get(p_token)
        if predicate is None:
            predicate = table[p_token] = IRI(match.group(5))
        obj = get(o_token)
        if obj is None:
            iri, bnode, string = match.group(7, 8, 9)
            if iri is not None:
                obj = IRI(iri)
            elif bnode is not None:
                obj = BNode(bnode)
            else:
                obj = _literal(string, match.group(10), match.group(11),
                               lineno, match.start(9))
            table[o_token] = obj
        # the grammar fixes every position's term kind: skip Triple's checks
        yield new(Triple, (subject, predicate, obj))


def _iter_lines(data: str) -> Iterator[str]:
    """Yield the lines of N-Triples text, each sliced when it is asked for.

    N-Triples ends a line with ``\\n``, ``\\r\\n`` or ``\\r``.  Everything
    else :meth:`str.splitlines` also breaks at (U+2028, U+2029, U+0085,
    ``\\x0b``, ``\\x0c``, ``\\x1c``–``\\x1e``) is a legal raw character
    inside a literal.
    """
    start = 0
    for eol in (_EOL_RE if "\r" in data else _LF_RE).finditer(data):
        yield data[start:eol.start()]
        start = eol.end()
    yield data[start:]


def split_ntriples_lines(data: str) -> List[str]:
    """Split N-Triples text at its end-of-line markers only (a list)."""
    return list(_iter_lines(data))


def iter_ntriples(data: str) -> Iterator[Triple]:
    """Yield triples from N-Triples text, skipping comments and blank lines.

    The whole text is resident already, so the parse keeps a term table for
    its lifetime: triples that repeat a term share one term object.  Lines
    are sliced one at a time: the text is the only copy of the input.
    """
    return _iter_triples(_iter_lines(data))


def parse_ntriples(data: str) -> Graph:
    """Parse N-Triples text into a :class:`~repro.rdf.graph.Graph`."""
    graph = Graph()
    # streamed into one batch: ``add_all`` would list its input first, in
    # case it is a live view of the graph being filled
    with graph.batch():
        for triple in iter_ntriples(data):
            graph.add(triple)
    return graph


def serialize_ntriples(graph: Graph, sort: bool = True) -> str:
    """Serialise ``graph`` as N-Triples (one canonical line per triple)."""
    triples = graph.sorted_triples() if sort else list(graph)
    lines = []
    for triple in triples:
        lines.append(_triple_to_ntriples(triple))
    return "\n".join(lines) + ("\n" if lines else "")


def _term_to_ntriples(term: ObjectTerm) -> str:
    if isinstance(term, Literal):
        quoted = f'"{escape_string(term.lexical)}"'
        if term.lang:
            return f"{quoted}@{term.lang}"
        if term.is_plain:
            return quoted
        return f"{quoted}^^<{term.datatype.value}>"
    return term.n3()


def _triple_to_ntriples(triple: Triple) -> str:
    return (
        f"{_term_to_ntriples(triple.subject)} "
        f"{_term_to_ntriples(triple.predicate)} "
        f"{_term_to_ntriples(triple.object)} ."
    )
