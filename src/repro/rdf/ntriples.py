"""N-Triples parser and serialiser (RDF 1.1 N-Triples, line-based).

N-Triples is the simplest RDF concrete syntax: one triple per line, full IRIs
only.  It is used as the interchange format for the workload generators and as
the building block of the Turtle serialiser's escaping rules.

Ingest splits each canonical line, ``<s> <p> o .`` with single spaces (all
that dumps and :func:`serialize_ntriples` write), once into its three raw
tokens.  The parse keeps one term table keyed by raw token for every role,
so each distinct IRI, blank node or literal is validated against its role's
regex and built once, every triple that uses it shares the same object, and
a hit only checks the role by the term's type.  Any other line (tabs,
doubled spaces, comments, errors) is parsed token by token by
:func:`_parse_line_tokens`, the reference, which raises the precise
:class:`ParseError`.  :func:`parse_ntriples` streams the triples into
:meth:`Graph.fill <repro.rdf.graph.Graph.fill>`, the one-pass build of a new
graph.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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

# One regex per role: the token parser matches it at a position, the split
# path fullmatches a whole token with it.  Any leading whitespace it admits
# is what the token parser skips at the same spot.
_SUBJECT_RE = re.compile(rf"\s*(?:{_IRIREF}|{_BNODE})")
_PREDICATE_RE = re.compile(rf"\s*{_IRIREF}")
_OBJECT_RE = re.compile(
    rf"\s*(?:{_IRIREF}|{_BNODE}|{_STRING}(?:{_LANGTAG}|\^\^{_IRIREF})?)"
)
_END_RE = re.compile(r"\s*\.\s*(#.*)?$")

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


def _term(match: re.Match, lineno: int, offset: int) -> Term:
    """The term a role regex matched (its groups: IRI, blank node, string,
    language, datatype); ``offset`` is where the match's text starts in
    its line."""
    iri = match.group(1)
    if iri is not None:
        return IRI(iri)
    bnode = match.group(2)
    if bnode is not None:
        return BNode(bnode)
    string, lang, dtype = match.group(3, 4, 5)
    return _literal(string, lang, dtype, lineno, offset + match.start(3))


def _parse_subject(line: str, pos: int, lineno: int) -> tuple[SubjectTerm, int]:
    match = _SUBJECT_RE.match(line, pos)
    if not match:
        raise ParseError("expected IRI or blank node as subject", lineno, pos)
    return _term(match, lineno, 0), match.end()


def _parse_predicate(line: str, pos: int, lineno: int) -> tuple[IRI, int]:
    match = _PREDICATE_RE.match(line, pos)
    if not match:
        raise ParseError("expected IRI as predicate", lineno, pos)
    return _term(match, lineno, 0), match.end()


def _parse_object(line: str, pos: int, lineno: int) -> tuple[ObjectTerm, int]:
    match = _OBJECT_RE.match(line, pos)
    if not match:
        raise ParseError("expected IRI, blank node or literal as object", lineno, pos)
    return _term(match, lineno, 0), match.end()


def _parse_line_tokens(line: str, lineno: int) -> Triple:
    """Parse one non-blank, non-comment line token by token.

    The reference for the split path: ingest calls it for every line that
    is not canonical, and it raises the :class:`ParseError` naming the
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


def _new_term(table: Dict[str, Term], token: str, role: re.Pattern,
              lineno: int, offset: int) -> Optional[Term]:
    """Validate ``token`` against its role's regex and store its term;
    ``None`` when the whole token is no such term."""
    match = role.fullmatch(token)
    if match is None:
        return None
    term = table[token] = _term(match, lineno, offset)
    return term


def _iter_triples(lines: Iterable[str]) -> Iterator[Tuple[Term, Term, Term]]:
    """The ingest loop: one split and at most three table probes a line.

    A canonical line, ``<s> <p> o .`` with single spaces, splits into its
    three raw tokens.  The table maps each token (``<iri>``, ``_:label``,
    ``"lexical"@lang`` …) to the one term built from it, whatever role it
    was first seen in, for the lifetime of the parse; a hit checks the role
    by the term's type.  Any other line, and any token that is no term of
    its role, goes to :func:`_parse_line_tokens`.  The role checks fix
    every term's kind, so a canonical line yields a plain ``(s, p, o)``
    tuple, without :class:`Triple`'s own checks.
    """
    table: Dict[str, Term] = {}
    get = table.get
    s_token = subject = None
    for lineno, line in enumerate(lines, start=1):
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[2][-2:] == " .":
            token, p_token, rest = parts
            if token != s_token:
                subject = get(token) or _new_term(table, token, _SUBJECT_RE,
                                                  lineno, 0)
                s_token = (token if subject is not None
                           and subject.__class__ is not Literal else None)
            if s_token is not None:
                predicate = get(p_token) or _new_term(
                    table, p_token, _PREDICATE_RE, lineno, 0)
                if predicate.__class__ is IRI:
                    o_token = rest[:-2]
                    obj = get(o_token) or _new_term(
                        table, o_token, _OBJECT_RE, lineno,
                        len(token) + len(p_token) + 2)
                    if obj is not None:
                        yield subject, predicate, obj
                        continue
        stripped = line.strip()
        if stripped and stripped[0] != "#":
            yield _parse_line_tokens(line, lineno)


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


#: an ``(s, p, o)`` tuple the role checks passed, as a :class:`Triple`
_as_triple = partial(tuple.__new__, Triple)


def iter_ntriples(data: str) -> Iterator[Triple]:
    """Yield triples from N-Triples text, skipping comments and blank lines.

    The whole text is resident already, so the parse keeps a term table for
    its lifetime: triples that repeat a term share one term object.  Lines
    are sliced one at a time: the text is the only copy of the input.
    """
    return map(_as_triple, _iter_triples(_iter_lines(data)))


def parse_ntriples(data: str) -> Graph:
    """Parse N-Triples text into a :class:`~repro.rdf.graph.Graph`."""
    return Graph().fill(_iter_triples(_iter_lines(data)))


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
