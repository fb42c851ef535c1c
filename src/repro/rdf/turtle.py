"""Turtle (Terse RDF Triple Language) parser and serialiser.

The examples in the paper (Example 2) and the workloads in this repository
are written in Turtle, so the substrate ships a reasonably complete Turtle
implementation:

* ``@prefix`` / ``@base`` and SPARQL-style ``PREFIX`` / ``BASE`` directives,
* prefixed names and the ``a`` keyword,
* predicate–object lists (``;``) and object lists (``,``),
* numeric, boolean, plain, language-tagged and datatyped literals,
* long (triple-quoted) strings,
* anonymous blank nodes ``[ ... ]`` and RDF collections ``( ... )``.

The parser is a hand-written tokenizer plus recursive-descent parser; it is
deliberately explicit rather than clever so that error messages carry line and
column information.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Optional, Tuple

from .errors import ParseError
from .graph import Graph
from .namespaces import RDF, XSD, NamespaceManager
from .ntriples import escape_string, unescape_string
from .terms import BNode, IRI, Literal, ObjectTerm, SubjectTerm, Triple

__all__ = ["parse_turtle", "serialize_turtle", "TurtleParser", "TurtleSerializer"]

#: deepest nesting of blank-node property lists ``[ … ]`` and collections
#: ``( … )`` the parser accepts.  Each level costs a few Python frames of
#: recursive descent; past this depth the parser raises a positioned
#: :class:`ParseError` instead of running into the interpreter's recursion
#: limit.
MAX_NESTING_DEPTH = 128


# --------------------------------------------------------------------------- tokens
_TOKEN_SPEC = [
    ("COMMENT", r"#[^\r\n]*"),
    ("WS", r"[ \t\r\n]+"),
    ("PREFIX_DIR", r"@prefix\b|PREFIX\b(?=[ \t])"),
    ("BASE_DIR", r"@base\b|BASE\b(?=[ \t])"),
    ("IRIREF", r"<[^\x00-\x20<>\"{}|^`\\]*>"),
    ("LONG_STRING", r'"""(?:[^"\\]|\\.|"(?!""))*"""' + r"|'''(?:[^'\\]|\\.|'(?!''))*'''"),
    ("STRING", r'"(?:[^"\\\n\r]|\\.)*"' + r"|'(?:[^'\\\n\r]|\\.)*'"),
    ("LANGTAG", r"@[a-zA-Z]{1,8}(?:-[a-zA-Z0-9]{1,8})*"),
    ("DOUBLE_CARET", r"\^\^"),
    ("DOUBLE", r"[+-]?(?:\d+\.\d*[eE][+-]?\d+|\.?\d+[eE][+-]?\d+)"),
    ("DECIMAL", r"[+-]?\d*\.\d+"),
    ("INTEGER", r"[+-]?\d+"),
    ("BNODE_LABEL", r"_:[A-Za-z0-9][A-Za-z0-9_.-]*"),
    ("PNAME", r"(?:[A-Za-z][\w.-]*)?:[\w.-]*(?<!\.)|(?:[A-Za-z][\w.-]*)?:"),
    ("KEYWORD_A", r"a(?=[ \t\r\n<\[])"),
    ("BOOLEAN", r"\b(?:true|false)\b"),
    ("DOT", r"\."),
    ("SEMICOLON", r";"),
    ("COMMA", r","),
    ("LBRACKET", r"\["),
    ("RBRACKET", r"\]"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: str, value: str, line: int, column: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"_Token({self.kind}, {self.value!r}, line={self.line})"


def _tokenize(data: str) -> List[_Token]:
    tokens: List[_Token] = []
    line = 1
    line_start = 0
    pos = 0
    length = len(data)
    while pos < length:
        match = _TOKEN_RE.match(data, pos)
        if not match:
            column = pos - line_start + 1
            raise ParseError(f"unexpected character {data[pos]!r}", line, column)
        kind = match.lastgroup
        value = match.group()
        column = pos - line_start + 1
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, value, line, column))
        # ``\r\n``, ``\r`` and ``\n`` each end one line
        newlines = value.count("\n")
        if "\r" in value:
            newlines += value.count("\r") - value.count("\r\n")
        if newlines:
            line += newlines
            line_start = pos + max(value.rfind("\n"), value.rfind("\r")) + 1
        pos = match.end()
    tokens.append(_Token("EOF", "", line, pos - line_start + 1))
    return tokens


# --------------------------------------------------------------------------- parser
class TurtleParser:
    """Recursive-descent Turtle parser producing a :class:`Graph`."""

    def __init__(self, data: str, base: Optional[str] = None):
        self._tokens = _tokenize(data)
        self._index = 0
        self._base = base or ""
        self._graph = Graph(namespaces=NamespaceManager(bind_defaults=False))
        self._bnode_counter = 0
        self._depth = 0
        #: the triples of the statement being parsed, streamed into the
        #: graph when the statement ends.
        self._pending: List[Triple] = []

    # -- token helpers -----------------------------------------------------
    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _next(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind}, found {token.kind} ({token.value!r})",
                token.line, token.column,
            )
        return self._next()

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message + f" (found {token.value!r})", token.line, token.column)

    def _enter_nested(self) -> None:
        """Open one ``[ … ]`` / ``( … )`` level, refusing past the bound."""
        if self._depth >= MAX_NESTING_DEPTH:
            raise self._error(
                f"nesting deeper than {MAX_NESTING_DEPTH} levels of "
                "blank-node property lists and collections")
        self._depth += 1

    def _fresh_bnode(self) -> BNode:
        self._bnode_counter += 1
        return BNode(f"genid{self._bnode_counter}")

    # -- grammar -------------------------------------------------------------
    def parse(self) -> Graph:
        """Parse the whole document and return the resulting graph."""
        return self._graph.fill(self._triples())

    def _triples(self) -> Iterator[Triple]:
        """The document's triples, each statement's once it ends."""
        pending = self._pending
        while self._peek().kind != "EOF":
            token = self._peek()
            if token.kind == "PREFIX_DIR":
                self._parse_prefix()
            elif token.kind == "BASE_DIR":
                self._parse_base()
            else:
                self._parse_triples_block()
                yield from pending
                pending.clear()

    def _parse_prefix(self) -> None:
        directive = self._next()
        prefix_token = self._expect("PNAME")
        if not prefix_token.value.endswith(":"):
            raise ParseError("prefix declaration must end with ':'",
                             prefix_token.line, prefix_token.column)
        prefix = prefix_token.value[:-1]
        iri_token = self._expect("IRIREF")
        iri_value = self._resolve_iri(iri_token.value[1:-1])
        self._graph.namespaces.bind(prefix, iri_value)
        if directive.value.startswith("@"):
            self._expect("DOT")
        elif self._peek().kind == "DOT":
            self._next()

    def _parse_base(self) -> None:
        directive = self._next()
        iri_token = self._expect("IRIREF")
        self._base = self._resolve_iri(iri_token.value[1:-1])
        if directive.value.startswith("@"):
            self._expect("DOT")
        elif self._peek().kind == "DOT":
            self._next()

    def _parse_triples_block(self) -> None:
        token = self._peek()
        if token.kind == "LBRACKET":
            subject = self._parse_blank_node_property_list()
            if self._peek().kind != "DOT":
                self._parse_predicate_object_list(subject)
        else:
            subject = self._parse_subject()
            self._parse_predicate_object_list(subject)
        self._expect("DOT")

    def _parse_subject(self) -> SubjectTerm:
        token = self._peek()
        if token.kind == "IRIREF":
            return self._parse_iriref()
        if token.kind == "PNAME":
            return self._parse_pname()
        if token.kind == "BNODE_LABEL":
            self._next()
            return BNode(token.value[2:])
        if token.kind == "LPAREN":
            return self._parse_collection()
        raise self._error("expected subject (IRI, prefixed name or blank node)")

    def _parse_predicate(self) -> IRI:
        token = self._peek()
        if token.kind == "KEYWORD_A":
            self._next()
            return RDF.type
        if token.kind == "IRIREF":
            return self._parse_iriref()
        if token.kind == "PNAME":
            return self._parse_pname()
        raise self._error("expected predicate (IRI, prefixed name or 'a')")

    def _parse_predicate_object_list(self, subject: SubjectTerm) -> None:
        while True:
            predicate = self._parse_predicate()
            self._parse_object_list(subject, predicate)
            if self._peek().kind == "SEMICOLON":
                while self._peek().kind == "SEMICOLON":
                    self._next()
                if self._peek().kind in ("DOT", "RBRACKET"):
                    return
                continue
            return

    def _parse_object_list(self, subject: SubjectTerm, predicate: IRI) -> None:
        while True:
            obj = self._parse_object()
            self._pending.append(Triple(subject, predicate, obj))
            if self._peek().kind == "COMMA":
                self._next()
                continue
            return

    def _parse_object(self) -> ObjectTerm:
        token = self._peek()
        if token.kind == "IRIREF":
            return self._parse_iriref()
        if token.kind == "PNAME":
            return self._parse_pname()
        if token.kind == "BNODE_LABEL":
            self._next()
            return BNode(token.value[2:])
        if token.kind == "LBRACKET":
            return self._parse_blank_node_property_list()
        if token.kind == "LPAREN":
            return self._parse_collection()
        if token.kind in ("STRING", "LONG_STRING"):
            return self._parse_string_literal()
        if token.kind == "INTEGER":
            self._next()
            return Literal(token.value, datatype=XSD.integer)
        if token.kind == "DECIMAL":
            self._next()
            return Literal(token.value, datatype=XSD.decimal)
        if token.kind == "DOUBLE":
            self._next()
            return Literal(token.value, datatype=XSD.double)
        if token.kind == "BOOLEAN":
            self._next()
            return Literal(token.value, datatype=XSD.boolean)
        if token.kind == "KEYWORD_A":
            # 'a' in object position is just a prefixless name error
            raise self._error("'a' is only allowed in predicate position")
        raise self._error("expected object")

    def _parse_string_literal(self) -> Literal:
        token = self._next()
        raw = token.value
        quote = 3 if token.kind == "LONG_STRING" else 1
        lexical = unescape_string(raw[quote:-quote], token.line,
                                  token.column + quote)
        nxt = self._peek()
        if nxt.kind == "LANGTAG":
            self._next()
            return Literal(lexical, lang=nxt.value[1:])
        if nxt.kind == "DOUBLE_CARET":
            self._next()
            dt_token = self._peek()
            if dt_token.kind == "IRIREF":
                datatype = self._parse_iriref()
            elif dt_token.kind == "PNAME":
                datatype = self._parse_pname()
            else:
                raise self._error("expected datatype IRI after '^^'")
            return Literal(lexical, datatype=datatype)
        return Literal(lexical)

    def _parse_blank_node_property_list(self) -> BNode:
        self._enter_nested()
        self._expect("LBRACKET")
        node = self._fresh_bnode()
        if self._peek().kind != "RBRACKET":
            self._parse_predicate_object_list(node)
        self._expect("RBRACKET")
        self._depth -= 1
        return node

    def _parse_collection(self) -> SubjectTerm:
        self._enter_nested()
        self._expect("LPAREN")
        items: List[ObjectTerm] = []
        while self._peek().kind != "RPAREN":
            items.append(self._parse_object())
        self._expect("RPAREN")
        self._depth -= 1
        if not items:
            return RDF.nil
        head = self._fresh_bnode()
        current = head
        for index, item in enumerate(items):
            self._pending.append(Triple(current, RDF.first, item))
            if index == len(items) - 1:
                self._pending.append(Triple(current, RDF.rest, RDF.nil))
            else:
                nxt = self._fresh_bnode()
                self._pending.append(Triple(current, RDF.rest, nxt))
                current = nxt
        return head

    def _parse_iriref(self) -> IRI:
        token = self._next()
        return IRI(self._resolve_iri(unescape_string(token.value[1:-1])))

    def _parse_pname(self) -> IRI:
        token = self._next()
        prefix, _, local = token.value.partition(":")
        try:
            namespace = self._graph.namespaces.namespace(prefix)
        except Exception:
            raise ParseError(f"unknown prefix {prefix!r}", token.line, token.column) from None
        return IRI(namespace.base + local)

    def _resolve_iri(self, value: str) -> str:
        if not self._base:
            return value
        if re.match(r"^[A-Za-z][A-Za-z0-9+.-]*:", value):
            return value
        if value.startswith("#") or not value:
            return self._base.split("#")[0] + value
        if value.startswith("/"):
            match = re.match(r"^([A-Za-z][A-Za-z0-9+.-]*://[^/]*)", self._base)
            root = match.group(1) if match else self._base
            return root + value
        return self._base.rsplit("/", 1)[0] + "/" + value


def parse_turtle(data: str, base: Optional[str] = None) -> Graph:
    """Parse Turtle text into a graph."""
    return TurtleParser(data, base=base).parse()


# ----------------------------------------------------------------------- serialiser
class TurtleSerializer:
    """Serialise a :class:`Graph` as compact, deterministic Turtle."""

    def __init__(self, graph: Graph):
        self._graph = graph

    def serialize(self) -> str:
        lines: List[str] = []
        used_prefixes = self._used_prefixes()
        for prefix, base in sorted(used_prefixes):
            lines.append(f"@prefix {prefix}: <{base}> .")
        if used_prefixes:
            lines.append("")
        by_subject: dict[SubjectTerm, List[Triple]] = {}
        for triple in self._graph.sorted_triples():
            by_subject.setdefault(triple.subject, []).append(triple)
        for subject in sorted(by_subject, key=lambda term: term.sort_key()):
            lines.extend(self._subject_block(subject, by_subject[subject]))
            lines.append("")
        return "\n".join(lines).rstrip("\n") + "\n" if lines else ""

    def _used_prefixes(self) -> List[Tuple[str, str]]:
        used: set[Tuple[str, str]] = set()
        for triple in self._graph:
            for term in triple:
                if isinstance(term, IRI):
                    compact = self._graph.namespaces.compact(term)
                    if compact:
                        prefix = compact.split(":", 1)[0]
                        used.add((prefix, self._graph.namespaces.namespace(prefix).base))
                elif isinstance(term, Literal):
                    compact = self._graph.namespaces.compact(term.datatype)
                    if compact and not term.is_plain and not term.lang:
                        prefix = compact.split(":", 1)[0]
                        used.add((prefix, self._graph.namespaces.namespace(prefix).base))
        return sorted(used)

    def _subject_block(self, subject: SubjectTerm, triples: List[Triple]) -> List[str]:
        by_predicate: dict[IRI, List[ObjectTerm]] = {}
        for triple in triples:
            by_predicate.setdefault(triple.predicate, []).append(triple.object)
        predicate_lines: List[str] = []
        predicates = sorted(by_predicate, key=lambda term: term.sort_key())
        for index, predicate in enumerate(predicates):
            objects = ", ".join(
                self._term(obj) for obj in sorted(by_predicate[predicate],
                                                  key=lambda term: term.sort_key())
            )
            terminator = " ;" if index < len(predicates) - 1 else " ."
            predicate_lines.append(f"    {self._predicate(predicate)} {objects}{terminator}")
        return [self._term(subject)] + predicate_lines

    def _predicate(self, predicate: IRI) -> str:
        if predicate == RDF.type:
            return "a"
        return self._term(predicate)

    def _term(self, term: ObjectTerm) -> str:
        if isinstance(term, IRI):
            compact = self._graph.namespaces.compact(term)
            return compact if compact else term.n3()
        if isinstance(term, BNode):
            return term.n3()
        if isinstance(term, Literal):
            return self._literal(term)
        raise TypeError(f"cannot serialise {term!r}")  # pragma: no cover

    def _literal(self, literal: Literal) -> str:
        if literal.lang:
            return f'"{escape_string(literal.lexical)}"@{literal.lang}'
        if literal.datatype == XSD.integer and re.fullmatch(r"[+-]?\d+", literal.lexical):
            return literal.lexical
        if literal.datatype == XSD.boolean and literal.lexical in ("true", "false"):
            return literal.lexical
        if literal.datatype == XSD.decimal and re.fullmatch(r"[+-]?\d*\.\d+", literal.lexical):
            return literal.lexical
        if literal.is_plain:
            return f'"{escape_string(literal.lexical)}"'
        compact = self._graph.namespaces.compact(literal.datatype)
        datatype = compact if compact else literal.datatype.n3()
        return f'"{escape_string(literal.lexical)}"^^{datatype}'


def serialize_turtle(graph: Graph) -> str:
    """Serialise ``graph`` as Turtle text."""
    return TurtleSerializer(graph).serialize()
