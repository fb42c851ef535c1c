"""ShEx compact syntax (ShExC) parser and serialiser.

The paper presents its schemas in the compact syntax (Examples 1, 6, 13, 14)::

    PREFIX foaf: <http://xmlns.com/foaf/0.1/>
    PREFIX xsd:  <http://www.w3.org/2001/XMLSchema#>

    <Person> {
      foaf:age   xsd:integer ,
      foaf:name  xsd:string + ,
      foaf:knows @<Person> *
    }

This module translates that syntax into :class:`~repro.shex.schema.Schema`
objects built from the regular shape expression algebra, and back.  The
grammar supported covers the subset the paper needs plus the extensions used
by the workloads:

* ``PREFIX``/``BASE`` directives and ``start = @<Label>``,
* triple constraints ``predicate valueExpr cardinality`` with cardinalities
  ``*``, ``+``, ``?``, ``{m}``, ``{m,n}`` and ``{m,}``,
* groups ``( … )`` with their own cardinality,
* ``,`` and ``;`` as unordered-concatenation separators and ``|`` for
  alternatives,
* value expressions: ``.``, datatypes, ``@label`` references, node kinds
  (``IRI``, ``BNODE``, ``LITERAL``, ``NONLITERAL``), value sets ``[ … ]``
  with IRIs, literals and stems (``<http://ex.org/>~``), and numeric/string
  facets (``MININCLUSIVE``, ``MAXLENGTH``, ``PATTERN`` …).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..rdf.errors import ParseError
from ..rdf.namespaces import NamespaceManager, XSD
from ..rdf.ntriples import unescape_string
from ..rdf.terms import IRI, Literal
from .expressions import (
    EMPTY,
    EPSILON,
    And,
    Arc,
    EmptyTriples,
    Or,
    ShapeExpr,
    Star,
    balanced,
    expression_size,
    interleave_all,
    optional,
    plus,
    repeat,
    star,
)
from .node_constraints import (
    AnyValue,
    DatatypeConstraint,
    Facets,
    IRIStem,
    LanguageTag,
    NodeConstraint,
    NodeKind,
    NodeKindConstraint,
    PredicateSet,
    ShapeRef,
    ValueSet,
)
from .schema import Schema
from .typing import ShapeLabel

__all__ = ["parse_shexc", "serialize_shexc", "ShExCParser", "ShExCSerializer"]

#: deepest nesting of triple-expression groups ``( … )`` the parser accepts.
#: Each level costs a few Python frames of recursive descent; past this depth
#: the parser raises a positioned :class:`ParseError` instead of running into
#: the interpreter's recursion limit.
MAX_NESTING_DEPTH = 128

#: largest schema the parser builds, counted in expression-tree nodes
#: (:func:`~repro.shex.expressions.expression_size`, summed over shapes).
#: ``E+`` expands to ``E ‖ E*`` and ``E{m,n}`` to ``n`` copies of ``E``, so
#: nested repetitions grow geometrically while the text grows linearly;
#: every later pass over a shape walks that tree.  Each expansion and each
#: finished shape is checked, and past this size the parser raises a
#: positioned :class:`ParseError` instead of expanding further.
MAX_EXPRESSION_SIZE = 50_000


_RDF_TYPE = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")

_TOKEN_SPEC = [
    ("COMMENT", r"#[^\n]*"),
    ("WS", r"[ \t\r\n]+"),
    ("PREFIX_KW", r"(?i:PREFIX)\b"),
    ("BASE_KW", r"(?i:BASE)\b"),
    ("START_KW", r"(?i:start)\b(?=\s*=)"),
    ("NODEKIND", r"(?:IRI|BNODE|LITERAL|NONLITERAL)\b"),
    ("FACET_KW", r"(?i:MININCLUSIVE|MAXINCLUSIVE|MINEXCLUSIVE|MAXEXCLUSIVE|"
                 r"MINLENGTH|MAXLENGTH|LENGTH|PATTERN)\b"),
    ("IRIREF", r"<[^\x00-\x20<>\"{}|^`\\]*>"),
    ("STRING", r'"(?:[^"\\\n\r]|\\.)*"' + r"|'(?:[^'\\\n\r]|\\.)*'"),
    ("LANGTAG", r"@[a-zA-Z]{1,8}(?:-[a-zA-Z0-9]{1,8})*(?![\w:])"),
    ("AT", r"@"),
    ("DOUBLE_CARET", r"\^\^"),
    ("DOUBLE", r"[+-]?(?:\d+\.\d*[eE][+-]?\d+|\.?\d+[eE][+-]?\d+)"),
    ("DECIMAL", r"[+-]?\d*\.\d+"),
    ("REPEAT", r"\{\s*\d+\s*(?:,\s*(?:\d+|\*)?\s*)?\}"),
    ("INTEGER", r"[+-]?\d+"),
    ("PNAME", r"(?:[A-Za-z][\w.-]*)?:[\w.-]*(?<!\.)|(?:[A-Za-z][\w.-]*)?:"),
    ("KEYWORD_A", r"a(?=[ \t\r\n])"),
    ("BOOLEAN", r"\b(?:true|false)\b"),
    ("TILDE", r"~"),
    ("EQUALS", r"="),
    ("LBRACE", r"\{"),
    ("RBRACE", r"\}"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("LBRACKET", r"\["),
    ("RBRACKET", r"\]"),
    ("SEMICOLON", r";"),
    ("COMMA", r","),
    ("PIPE", r"\|"),
    ("STAR", r"\*"),
    ("PLUS", r"\+"),
    ("QUESTION", r"\?"),
    ("DOT", r"\."),
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
        return f"_Token({self.kind}, {self.value!r})"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - line_start + 1)
        kind = match.lastgroup
        value = match.group()
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, value, line, pos - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rfind("\n") + 1
        pos = match.end()
    tokens.append(_Token("EOF", "", line, pos - line_start + 1))
    return tokens


class ShExCParser:
    """Recursive-descent parser for the ShEx compact syntax subset."""

    def __init__(self, text: str):
        self._tokens = _tokenize(text)
        self._index = 0
        self._namespaces = NamespaceManager(bind_defaults=False)
        self._base = ""
        self._shapes: Dict[ShapeLabel, ShapeExpr] = {}
        self._start: Optional[ShapeLabel] = None
        self._depth = 0
        self._size = 0  # expression nodes of the shapes parsed so far

    # -- token helpers -----------------------------------------------------------
    def _peek(self, offset: int = 0) -> _Token:
        return self._tokens[min(self._index + offset, len(self._tokens) - 1)]

    def _next(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._peek()
        if token.kind != kind:
            raise ParseError(f"expected {kind}, found {token.kind} ({token.value!r})",
                             token.line, token.column)
        return self._next()

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(f"{message} (found {token.value!r})", token.line, token.column)

    def _bounded(self, expr: ShapeExpr, token: _Token, copies: int = 1) -> ShapeExpr:
        """Return ``expr`` unless ``copies`` of it overrun the schema's size bound.

        ``token`` positions the error.  ``copies > 1`` checks a repetition
        before it is expanded: every copy holds a whole ``expr`` subtree,
        so ``copies * size`` is a lower bound on the expansion.
        """
        if self._size + copies * expression_size(expr) > MAX_EXPRESSION_SIZE:
            raise ParseError(
                f"schema expands to more than {MAX_EXPRESSION_SIZE} "
                f"expression nodes (at {token.value!r})", token.line, token.column)
        return expr

    # -- entry point --------------------------------------------------------------
    def parse(self) -> Schema:
        """Parse the document and return the schema."""
        while self._peek().kind != "EOF":
            token = self._peek()
            if token.kind == "PREFIX_KW":
                self._parse_prefix()
            elif token.kind == "BASE_KW":
                self._parse_base()
            elif token.kind == "START_KW":
                self._parse_start()
            else:
                self._parse_shape_definition()
        if not self._shapes:
            raise ParseError("the schema does not define any shape")
        start = self._start
        if start is None and len(self._shapes) == 1:
            start = next(iter(self._shapes))
        return Schema(self._shapes, start=start)

    # -- directives ---------------------------------------------------------------
    def _parse_prefix(self) -> None:
        self._next()
        pname = self._expect("PNAME")
        if not pname.value.endswith(":"):
            raise ParseError("prefix declarations must end with ':'",
                             pname.line, pname.column)
        iri = self._expect("IRIREF")
        self._namespaces.bind(pname.value[:-1], iri.value[1:-1])

    def _parse_base(self) -> None:
        self._next()
        iri = self._expect("IRIREF")
        self._base = iri.value[1:-1]

    def _parse_start(self) -> None:
        self._next()
        self._expect("EQUALS")
        self._expect("AT")
        self._start = self._parse_shape_label()

    # -- shapes ------------------------------------------------------------------
    def _parse_shape_label(self) -> ShapeLabel:
        token = self._peek()
        if token.kind == "IRIREF":
            self._next()
            return ShapeLabel(self._resolve_iri(token.value[1:-1]))
        if token.kind == "PNAME":
            self._next()
            return ShapeLabel(self._expand_pname(token).value)
        raise self._error("expected a shape label (IRI or prefixed name)")

    def _parse_shape_definition(self) -> None:
        label = self._parse_shape_label()
        self._expect("LBRACE")
        if self._peek().kind == "RBRACE":
            expr: ShapeExpr = EPSILON
        else:
            expr = self._parse_one_of()
        self._bounded(expr, self._expect("RBRACE"))
        if label in self._shapes:
            raise ParseError(f"shape {label} is defined twice")
        self._shapes[label] = expr
        self._size += expression_size(expr)

    # -- triple expressions ----------------------------------------------------------
    def _parse_one_of(self) -> ShapeExpr:
        """oneOf: eachOf ('|' eachOf)*

        The branches (and the members of each ``eachOf``) are combined as a
        balanced tree: both operators are associative, and a balanced tree
        keeps thousand-member shapes shallow for the recursive passes.
        """
        branches = [self._parse_each_of()]
        while self._peek().kind == "PIPE":
            self._next()
            branches.append(self._parse_each_of())
        return balanced(Or, branches, EMPTY)

    def _parse_each_of(self) -> ShapeExpr:
        """eachOf: unary ((',' | ';') unary)*"""
        members = [self._parse_unary()]
        while self._peek().kind in ("COMMA", "SEMICOLON"):
            self._next()
            if self._peek().kind in ("RBRACE", "RPAREN"):
                break  # trailing separator
            members.append(self._parse_unary())
        return interleave_all(*members)

    def _parse_unary(self) -> ShapeExpr:
        token = self._peek()
        if token.kind == "LPAREN":
            if self._depth >= MAX_NESTING_DEPTH:
                raise self._error(
                    f"groups nested deeper than {MAX_NESTING_DEPTH} levels")
            self._depth += 1
            self._next()
            inner = self._parse_one_of()
            self._expect("RPAREN")
            self._depth -= 1
            return self._apply_cardinality(inner)
        return self._parse_triple_constraint()

    def _parse_triple_constraint(self) -> ShapeExpr:
        predicate = self._parse_predicate()
        constraint = self._parse_value_expression()
        expr = Arc(PredicateSet.single(predicate), constraint)
        return self._apply_cardinality(expr)

    def _parse_predicate(self) -> IRI:
        token = self._peek()
        if token.kind == "KEYWORD_A":
            self._next()
            return _RDF_TYPE
        if token.kind == "IRIREF":
            self._next()
            return IRI(self._resolve_iri(token.value[1:-1]))
        if token.kind == "PNAME":
            self._next()
            return self._expand_pname(token)
        raise self._error("expected a predicate")

    def _apply_cardinality(self, expr: ShapeExpr) -> ShapeExpr:
        token = self._peek()
        if token.kind == "STAR":
            self._next()
            return star(expr)
        if token.kind == "PLUS":
            self._next()
            return self._bounded(plus(expr), token)
        if token.kind == "QUESTION":
            self._next()
            return optional(expr)
        if token.kind == "REPEAT":
            self._next()
            minimum, maximum = _parse_repeat_bounds(token.value)
            if maximum is not None and maximum < minimum:
                raise ParseError(f"repetition {token.value} has maximum below minimum",
                                 token.line, token.column)
            # the parsed group holds an arc, so no copy simplifies away
            self._bounded(expr, token, copies=minimum + 1 if maximum is None else maximum)
            return self._bounded(repeat(expr, minimum, maximum), token)
        return expr

    # -- value expressions -------------------------------------------------------------
    def _parse_value_expression(self) -> NodeConstraint:
        token = self._peek()
        constraint: NodeConstraint
        if token.kind == "DOT":
            self._next()
            constraint = AnyValue()
        elif token.kind == "AT":
            self._next()
            label = self._parse_shape_label()
            return ShapeRef(label)
        elif token.kind == "NODEKIND":
            self._next()
            kind = {
                "IRI": NodeKind.IRI,
                "BNODE": NodeKind.BNODE,
                "LITERAL": NodeKind.LITERAL,
                "NONLITERAL": NodeKind.NONLITERAL,
            }[token.value]
            constraint = NodeKindConstraint(kind, self._parse_facets())
        elif token.kind == "LBRACKET":
            constraint = self._parse_value_set()
        elif token.kind in ("IRIREF", "PNAME"):
            datatype_iri = self._parse_predicate()
            constraint = DatatypeConstraint(datatype_iri, self._parse_facets())
        elif token.kind == "LANGTAG":
            self._next()
            constraint = LanguageTag(token.value[1:])
        else:
            raise self._error("expected a value expression")
        return constraint

    def _parse_facets(self) -> Facets:
        values: Dict[str, object] = {}
        mapping = {
            "MININCLUSIVE": "min_inclusive",
            "MAXINCLUSIVE": "max_inclusive",
            "MINEXCLUSIVE": "min_exclusive",
            "MAXEXCLUSIVE": "max_exclusive",
            "MINLENGTH": "min_length",
            "MAXLENGTH": "max_length",
            "LENGTH": "length",
            "PATTERN": "pattern",
        }
        while self._peek().kind == "FACET_KW":
            keyword = self._next().value.upper()
            field = mapping[keyword]
            token = self._next()
            if field == "pattern":
                if token.kind != "STRING":
                    raise ParseError("PATTERN expects a string argument",
                                     token.line, token.column)
                values[field] = unescape_string(token.value[1:-1])
            else:
                if token.kind not in ("INTEGER", "DECIMAL", "DOUBLE"):
                    raise ParseError(f"{keyword} expects a numeric argument",
                                     token.line, token.column)
                number = float(token.value)
                if field in ("min_length", "max_length", "length"):
                    values[field] = int(number)
                else:
                    values[field] = number
        return Facets(**values)

    def _parse_value_set(self) -> NodeConstraint:
        self._expect("LBRACKET")
        values = []
        stems: List[IRIStem] = []
        while self._peek().kind != "RBRACKET":
            token = self._peek()
            if token.kind == "IRIREF":
                self._next()
                iri_value = self._resolve_iri(token.value[1:-1])
                if self._peek().kind == "TILDE":
                    self._next()
                    stems.append(IRIStem(iri_value))
                else:
                    values.append(IRI(iri_value))
            elif token.kind == "PNAME":
                self._next()
                iri = self._expand_pname(token)
                if self._peek().kind == "TILDE":
                    self._next()
                    stems.append(IRIStem(iri.value))
                else:
                    values.append(iri)
            elif token.kind in ("INTEGER", "DECIMAL", "DOUBLE", "BOOLEAN", "STRING"):
                values.append(self._parse_literal())
            else:
                raise self._error("unexpected token in value set")
        self._expect("RBRACKET")
        members: List[NodeConstraint] = []
        if values:
            members.append(ValueSet(values))
        members.extend(stems)
        if not members:
            raise self._error("empty value set")
        if len(members) == 1:
            return members[0]
        from .node_constraints import ConstraintOr

        return ConstraintOr(members)

    def _parse_literal(self) -> Literal:
        token = self._next()
        if token.kind == "INTEGER":
            return Literal(token.value, datatype=XSD.integer)
        if token.kind == "DECIMAL":
            return Literal(token.value, datatype=XSD.decimal)
        if token.kind == "DOUBLE":
            return Literal(token.value, datatype=XSD.double)
        if token.kind == "BOOLEAN":
            return Literal(token.value, datatype=XSD.boolean)
        lexical = unescape_string(token.value[1:-1])
        nxt = self._peek()
        if nxt.kind == "LANGTAG":
            self._next()
            return Literal(lexical, lang=nxt.value[1:])
        if nxt.kind == "DOUBLE_CARET":
            self._next()
            datatype_iri = self._parse_predicate()
            return Literal(lexical, datatype=datatype_iri)
        return Literal(lexical)

    # -- names -------------------------------------------------------------------
    def _expand_pname(self, token: _Token) -> IRI:
        prefix, _, local = token.value.partition(":")
        try:
            namespace = self._namespaces.namespace(prefix)
        except Exception:
            raise ParseError(f"unknown prefix {prefix!r}",
                             token.line, token.column) from None
        return IRI(namespace.base + local)

    def _resolve_iri(self, value: str) -> str:
        if not self._base or re.match(r"^[A-Za-z][A-Za-z0-9+.-]*:", value):
            return value
        return self._base + value


def _parse_repeat_bounds(text: str) -> Tuple[int, Optional[int]]:
    """Parse ``{m}``, ``{m,n}``, ``{m,}`` or ``{m,*}`` into ``(m, n-or-None)``."""
    inner = text.strip()[1:-1].replace(" ", "")
    if "," not in inner:
        count = int(inner)
        return count, count
    minimum_text, maximum_text = inner.split(",", 1)
    minimum = int(minimum_text)
    if maximum_text in ("", "*"):
        return minimum, None
    return minimum, int(maximum_text)


def parse_shexc(text: str) -> Schema:
    """Parse a ShExC document into a :class:`~repro.shex.schema.Schema`."""
    return ShExCParser(text).parse()


# -------------------------------------------------------------------------- serialiser
class ShExCSerializer:
    """Serialise a :class:`Schema` back to compact syntax.

    The regular shape expression algebra has already expanded the derived
    operators, so the serialiser re-detects the common patterns (``E+``,
    ``E?``) to keep the output readable.  Schemas that round-trip through
    :func:`parse_shexc` ∘ :func:`serialize_shexc` are semantically equivalent
    even when the concrete cardinality syntax differs.
    """

    def __init__(self, schema: Schema):
        self._schema = schema
        self._namespaces = NamespaceManager(bind_defaults=True)

    def serialize(self) -> str:
        lines: List[str] = []
        prefixes_used = set()
        body_blocks: List[str] = []
        if self._schema.start is not None:
            body_blocks.append(f"start = @<{self._schema.start}>")
        for label, expr in self._schema.items():
            rendered = self._render_expression(expr, prefixes_used)
            body_blocks.append(f"<{label}> {{\n  {rendered}\n}}")
        for prefix, base in sorted(self._namespaces.prefixes()):
            if prefix in prefixes_used:
                lines.append(f"PREFIX {prefix}: <{base}>")
        if lines:
            lines.append("")
        lines.extend(body_blocks)
        return "\n".join(lines) + "\n"

    # -- expressions -----------------------------------------------------------
    def _render_expression(self, expr: ShapeExpr, prefixes_used: set) -> str:
        if isinstance(expr, EmptyTriples):
            return ""
        return self._render(expr, prefixes_used)

    def _render(self, expr: ShapeExpr, prefixes_used: set) -> str:
        plus_body = _detect_plus(expr)
        if plus_body is not None:
            return self._render_with_cardinality(plus_body, "+", prefixes_used)
        optional_body = _detect_optional(expr)
        if optional_body is not None:
            return self._render_with_cardinality(optional_body, "?", prefixes_used)
        if isinstance(expr, Star):
            return self._render_with_cardinality(expr.expr, "*", prefixes_used)
        if isinstance(expr, And):
            return (f"{self._render(expr.left, prefixes_used)} ; "
                    f"{self._render(expr.right, prefixes_used)}")
        if isinstance(expr, Or):
            return (f"( {self._render(expr.left, prefixes_used)} | "
                    f"{self._render(expr.right, prefixes_used)} )")
        if isinstance(expr, Arc):
            return self._render_arc(expr, prefixes_used)
        if isinstance(expr, EmptyTriples):
            return "( )"
        raise TypeError(f"cannot serialise {expr!r} to ShExC")

    def _render_with_cardinality(self, body: ShapeExpr, cardinality: str,
                                 prefixes_used: set) -> str:
        if isinstance(body, Arc):
            return f"{self._render_arc(body, prefixes_used)} {cardinality}"
        return f"( {self._render(body, prefixes_used)} ) {cardinality}"

    def _render_arc(self, expr: Arc, prefixes_used: set) -> str:
        predicate = expr.predicate.sample()
        if predicate is None:
            raise TypeError("cannot serialise wildcard predicate sets to ShExC")
        predicate_text = self._compact(predicate, prefixes_used)
        constraint = expr.object
        if isinstance(constraint, ShapeRef):
            return f"{predicate_text} @<{constraint.label}>"
        if isinstance(constraint, AnyValue):
            return f"{predicate_text} ."
        if isinstance(constraint, DatatypeConstraint):
            text = f"{predicate_text} {self._compact(constraint.datatype, prefixes_used)}"
            return text + _render_facets(constraint.facets)
        if isinstance(constraint, NodeKindConstraint):
            return f"{predicate_text} {constraint.kind.upper()}" + _render_facets(constraint.facets)
        if isinstance(constraint, LanguageTag):
            return f"{predicate_text} @{constraint.tag}"
        if isinstance(constraint, ValueSet):
            values = " ".join(self._value_text(value, prefixes_used)
                              for value in constraint)
            return f"{predicate_text} [ {values} ]"
        if isinstance(constraint, IRIStem):
            return f"{predicate_text} [ <{constraint.stem}>~ ]"
        raise TypeError(f"cannot serialise constraint {constraint!r} to ShExC")

    def _value_text(self, value, prefixes_used: set) -> str:
        if isinstance(value, IRI):
            return self._compact(value, prefixes_used)
        if isinstance(value, Literal):
            if value.datatype == XSD.integer:
                return value.lexical
            if value.lang:
                return f'"{value.lexical}"@{value.lang}'
            if value.is_plain:
                return f'"{value.lexical}"'
            return f'"{value.lexical}"^^{self._compact(value.datatype, prefixes_used)}'
        return value.n3()

    def _compact(self, iri: IRI, prefixes_used: set) -> str:
        compact = self._namespaces.compact(iri)
        if compact:
            prefixes_used.add(compact.split(":", 1)[0])
            return compact
        return iri.n3()


def _render_facets(facets: Facets) -> str:
    if facets.is_trivial():
        return ""
    parts = []
    mapping = [
        ("min_inclusive", "MININCLUSIVE"), ("max_inclusive", "MAXINCLUSIVE"),
        ("min_exclusive", "MINEXCLUSIVE"), ("max_exclusive", "MAXEXCLUSIVE"),
        ("min_length", "MINLENGTH"), ("max_length", "MAXLENGTH"),
        ("length", "LENGTH"),
    ]
    for attribute, keyword in mapping:
        value = getattr(facets, attribute)
        if value is not None:
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            parts.append(f"{keyword} {value}")
    if facets.pattern is not None:
        escaped = facets.pattern.replace("\\", "\\\\").replace('"', '\\"')
        parts.append(f'PATTERN "{escaped}"')
    return " " + " ".join(parts)


def _detect_plus(expr: ShapeExpr) -> Optional[ShapeExpr]:
    """Recognise ``E ‖ E*`` (the expansion of ``E+``)."""
    if isinstance(expr, And) and isinstance(expr.right, Star) and expr.right.expr == expr.left:
        return expr.left
    if isinstance(expr, And) and isinstance(expr.left, Star) and expr.left.expr == expr.right:
        return expr.right
    return None


def _detect_optional(expr: ShapeExpr) -> Optional[ShapeExpr]:
    """Recognise ``E | ε`` (the expansion of ``E?``)."""
    if isinstance(expr, Or) and isinstance(expr.right, EmptyTriples):
        return expr.left
    if isinstance(expr, Or) and isinstance(expr.left, EmptyTriples):
        return expr.right
    return None


def serialize_shexc(schema: Schema) -> str:
    """Serialise ``schema`` to ShEx compact syntax."""
    return ShExCSerializer(schema).serialize()
