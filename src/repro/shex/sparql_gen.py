"""Compiling shape expressions to SPARQL queries (Section 3 of the paper).

The paper's Example 4 shows the Person shape hand-compiled into a SPARQL ASK
query built from counting sub-SELECTs: for every declared predicate the query
checks that

* the number of arcs using that predicate is within the declared cardinality
  bounds, and
* every one of those arcs satisfies the declared value constraint (the two
  counts are equal).

This module automates that translation for the *flattenable* fragment of
regular shape expressions — interleaves of single-predicate arcs with
cardinalities, which covers every non-recursive shape in the paper.  It also
enforces the closed-world reading of shapes (the node must not carry arcs
with undeclared predicates), matching the semantics of ``Σgₙ ∈ Sₙ[[e]]``.

Recursive shapes (``@<Person>`` references back into the schema) cannot be
expressed in plain SPARQL, which is exactly the limitation Section 3 points
out; the compiler raises :class:`SparqlCompilationError` for them unless the
reference is approximated by a node-kind check (``approximate_references``).

The :class:`SparqlEngine` adapter evaluates the generated queries with
:mod:`repro.sparql`, so the benchmarks can compare SPARQL-based validation
against the derivative and backtracking engines on the same graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..rdf.graph import Graph
from ..rdf.namespaces import XSD
from ..rdf.terms import BNode, IRI, Literal, SubjectTerm, Triple
from ..sparql import ask as sparql_ask
from ..sparql import select as sparql_select
from .expressions import (
    EPSILON,
    And,
    Arc,
    Empty,
    EmptyTriples,
    Or,
    ShapeExpr,
    Star,
    alternative,
)
from .node_constraints import (
    AnyValue,
    DatatypeConstraint,
    IRIStem,
    LanguageTag,
    NodeConstraint,
    NodeKind,
    NodeKindConstraint,
    ShapeRef,
    ValueSet,
)
from .results import MatchResult, MatchStats
from .schema import ValidationContext

__all__ = [
    "SparqlCompilationError",
    "PredicateSpec",
    "flatten_expression",
    "shape_to_sparql_ask",
    "shape_to_sparql_select",
    "SparqlEngine",
]


class SparqlCompilationError(Exception):
    """Raised when an expression falls outside the SPARQL-compilable fragment."""


@dataclass
class PredicateSpec:
    """One flattened triple constraint: predicate, value constraint, cardinality."""

    predicate: IRI
    constraint: NodeConstraint
    min_count: int
    max_count: Optional[int]  # None = unbounded

    def merge_sequential(self, other: "PredicateSpec") -> "PredicateSpec":
        """Combine two specs for the same predicate used twice in an interleave."""
        if other.predicate != self.predicate or other.constraint != self.constraint:
            raise SparqlCompilationError(
                "cannot merge constraints with different value expressions for "
                f"predicate {self.predicate}"
            )
        maximum = None
        if self.max_count is not None and other.max_count is not None:
            maximum = self.max_count + other.max_count
        return PredicateSpec(self.predicate, self.constraint,
                             self.min_count + other.min_count, maximum)


# ------------------------------------------------------------------------ flattening
def flatten_expression(expr: ShapeExpr) -> List[PredicateSpec]:
    """Flatten an interleave-of-arcs expression into predicate specifications.

    Recognised building blocks:

    * ``Arc``                        → ``{1, 1}``
    * ``Arc*``                       → ``{0, ∞}``
    * ``Arc ‖ Arc*`` (i.e. ``Arc+``) → ``{1, ∞}``
    * ``Arc | ε``   (i.e. ``Arc?``)  → ``{0, 1}``
    * ``ε``                          → nothing
    * ``E ‖ F``                      → union of the flattenings (same-predicate
      entries are merged by adding their bounds, which is how ``E{m,n}``
      expansions come back together).

    Anything else (alternatives between different predicates, stars over
    groups, ``∅``) raises :class:`SparqlCompilationError`.
    """
    specs = _flatten(expr)
    merged: Dict[Tuple[IRI, NodeConstraint], PredicateSpec] = {}
    order: List[Tuple[IRI, NodeConstraint]] = []
    for spec in specs:
        key = (spec.predicate, spec.constraint)
        if key in merged:
            merged[key] = merged[key].merge_sequential(spec)
        else:
            merged[key] = spec
            order.append(key)
    result = [merged[key] for key in order]
    predicates_seen: Dict[IRI, int] = {}
    for spec in result:
        predicates_seen[spec.predicate] = predicates_seen.get(spec.predicate, 0) + 1
    duplicated = [predicate for predicate, count in predicates_seen.items() if count > 1]
    if duplicated:
        raise SparqlCompilationError(
            "the SPARQL compiler cannot express two different value constraints "
            f"for the same predicate: {', '.join(p.n3() for p in duplicated)}"
        )
    return result


def _flatten(expr: ShapeExpr) -> List[PredicateSpec]:
    if isinstance(expr, EmptyTriples):
        return []
    if isinstance(expr, Empty):
        raise SparqlCompilationError("∅ cannot be compiled to SPARQL")
    if isinstance(expr, Arc):
        return [_arc_spec(expr, 1, 1)]
    if isinstance(expr, Star):
        if isinstance(expr.expr, Arc):
            return [_arc_spec(expr.expr, 0, None)]
        raise SparqlCompilationError(
            "Kleene star over a composite expression cannot be compiled to SPARQL"
        )
    if isinstance(expr, And):
        # ``Arc+`` is ``Arc ‖ Arc*``: its {1,1} and {0,∞} specs merge to {1,∞}
        return [spec for operand in expr.operands for spec in _flatten(operand)]
    if isinstance(expr, Or):
        optional_body = _optional_body(expr)
        if optional_body is not None:
            if isinstance(optional_body, Arc):
                return [_arc_spec(optional_body, 0, 1)]
            inner = _flatten(optional_body)
            return [PredicateSpec(spec.predicate, spec.constraint, 0, spec.max_count)
                    for spec in inner]
        raise SparqlCompilationError(
            "alternatives between different triple constraints cannot be compiled"
        )
    raise SparqlCompilationError(f"cannot flatten expression {expr.to_str()}")


def _optional_body(expr: Or) -> Optional[ShapeExpr]:
    """Recognise ``E | ε`` (the expansion of ``E?``): an ``Or`` holding ``ε``."""
    if EPSILON in expr.operands:
        return alternative(*(operand for operand in expr.operands
                             if not isinstance(operand, EmptyTriples)))
    return None


def _arc_spec(expr: Arc, minimum: int, maximum: Optional[int]) -> PredicateSpec:
    predicate = expr.predicate.sample()
    if predicate is None or len(expr.predicate.predicates) != 1 \
            or expr.predicate.any_predicate or expr.predicate.stem is not None:
        raise SparqlCompilationError(
            "only single-predicate arcs can be compiled to SPARQL"
        )
    return PredicateSpec(predicate, expr.object, minimum, maximum)


# ------------------------------------------------------------------- query generation
def _constraint_filter(constraint: NodeConstraint, variable: str,
                       approximate_references: bool) -> Optional[str]:
    """Return a FILTER expression (as text) for ``constraint`` on ``?variable``.

    Returns ``None`` when the constraint accepts every term (no filter needed).
    """
    if isinstance(constraint, AnyValue):
        return None
    if isinstance(constraint, DatatypeConstraint):
        clauses = [f"isLiteral(?{variable})",
                   f"datatype(?{variable}) = <{constraint.datatype.value}>"]
        facets = constraint.facets
        if facets.min_inclusive is not None:
            clauses.append(f"?{variable} >= {_number(facets.min_inclusive)}")
        if facets.max_inclusive is not None:
            clauses.append(f"?{variable} <= {_number(facets.max_inclusive)}")
        if facets.min_exclusive is not None:
            clauses.append(f"?{variable} > {_number(facets.min_exclusive)}")
        if facets.max_exclusive is not None:
            clauses.append(f"?{variable} < {_number(facets.max_exclusive)}")
        if facets.min_length is not None:
            clauses.append(f"strlen(str(?{variable})) >= {facets.min_length}")
        if facets.max_length is not None:
            clauses.append(f"strlen(str(?{variable})) <= {facets.max_length}")
        if facets.length is not None:
            clauses.append(f"strlen(str(?{variable})) = {facets.length}")
        if facets.pattern is not None:
            clauses.append(f'regex(str(?{variable}), "{_escape(facets.pattern)}")')
        return " && ".join(clauses)
    if isinstance(constraint, NodeKindConstraint):
        if constraint.kind == NodeKind.IRI:
            return f"isIRI(?{variable})"
        if constraint.kind == NodeKind.BNODE:
            return f"isBlank(?{variable})"
        if constraint.kind == NodeKind.LITERAL:
            return f"isLiteral(?{variable})"
        return f"(isIRI(?{variable}) || isBlank(?{variable}))"
    if isinstance(constraint, ValueSet):
        alternatives = " || ".join(
            f"?{variable} = {_term_text(value)}" for value in constraint
        )
        return f"({alternatives})"
    if isinstance(constraint, IRIStem):
        return f'(isIRI(?{variable}) && strstarts(str(?{variable}), "{_escape(constraint.stem)}"))'
    if isinstance(constraint, LanguageTag):
        return f'langMatches(lang(?{variable}), "{constraint.tag}")'
    if isinstance(constraint, ShapeRef):
        if approximate_references:
            # a reference can only be satisfied by an IRI or a blank node;
            # the recursive part is checked by the shape engines, not SPARQL.
            return f"(isIRI(?{variable}) || isBlank(?{variable}))"
        raise SparqlCompilationError(
            "shape references cannot be expressed in SPARQL (Section 3 of the paper); "
            "pass approximate_references=True for the node-kind approximation"
        )
    raise SparqlCompilationError(f"cannot compile constraint {constraint.describe()}")


def _term_text(term) -> str:
    if isinstance(term, IRI):
        return term.n3()
    if isinstance(term, Literal):
        if term.datatype == XSD.integer:
            return term.lexical
        return term.n3()
    if isinstance(term, BNode):
        raise SparqlCompilationError("blank nodes cannot appear in SPARQL value sets")
    return str(term)


def _number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_text(node: SubjectTerm) -> str:
    if isinstance(node, IRI):
        return node.n3()
    raise SparqlCompilationError(
        "per-node ASK queries require an IRI focus node; "
        f"got {node!r} (use the SELECT form for blank nodes)"
    )


def shape_to_sparql_ask(expr: ShapeExpr, node: SubjectTerm, *,
                        closed: bool = True,
                        approximate_references: bool = False) -> str:
    """Compile ``expr`` into an ASK query checking one focus ``node``.

    The query mirrors the structure of Example 4: one counting sub-SELECT per
    declared predicate for the cardinality bound, one for the value
    constraint, plus (when ``closed``) a final check that the node carries no
    arc with an undeclared predicate.
    """
    specs = flatten_expression(expr)
    node_text = _node_text(node)
    blocks: List[str] = []
    for index, spec in enumerate(specs):
        blocks.extend(_spec_blocks(spec, index, node_text, approximate_references))
    if closed:
        blocks.append(_closed_block(specs, node_text))
    body = "\n".join(blocks)
    return f"ASK {{\n{body}\n}}"


def _spec_blocks(spec: PredicateSpec, index: int, node_text: str,
                 approximate_references: bool) -> List[str]:
    """Blocks checking one predicate specification against a fixed focus node.

    ``COUNT(*)`` over an empty match yields 0, so one pair of counting
    sub-SELECTs covers mandatory and optional predicates alike: the total
    count must lie inside the cardinality bounds and must equal the count of
    arcs whose value satisfies the constraint.
    """
    predicate = spec.predicate.n3()
    blocks: List[str] = []
    filter_text = _constraint_filter(spec.constraint, "o", approximate_references)
    count_all = f"?c{index}_all"
    count_ok = f"?c{index}_ok"
    blocks.append(_count_block(node_text, predicate, count_all, None))
    cardinality = []
    if spec.min_count > 0:
        cardinality.append(f"{count_all} >= {spec.min_count}")
    if spec.max_count is not None:
        cardinality.append(f"{count_all} <= {spec.max_count}")
    if cardinality:
        blocks.append(f"  FILTER ({' && '.join(cardinality)})")
    if filter_text is not None:
        blocks.append(_count_block(node_text, predicate, count_ok, filter_text))
        blocks.append(f"  FILTER ({count_all} = {count_ok})")
    return blocks


def _count_block(node_text: str, predicate: str, variable: str,
                 filter_text: Optional[str], indent: str = "  ") -> str:
    lines = [f"{indent}{{ SELECT (COUNT(*) AS {variable}) {{"]
    lines.append(f"{indent}    {node_text} {predicate} ?o .")
    if filter_text:
        lines.append(f"{indent}    FILTER ({filter_text})")
    lines.append(f"{indent}}} }}")
    return "\n".join(lines)


def _closed_block(specs: List[PredicateSpec], node_text: str) -> str:
    """Require that the node has no arc outside the declared predicates."""
    if not specs:
        return (
            "  { SELECT (1 AS ?closed) {\n"
            f"      OPTIONAL {{ {node_text} ?p ?o }}\n"
            "      FILTER (!bound(?p))\n"
            "  }}"
        )
    different = " && ".join(f"?p != {spec.predicate.n3()}" for spec in specs)
    return (
        "  { SELECT (1 AS ?closed) {\n"
        f"      OPTIONAL {{ {node_text} ?p ?o . FILTER ({different}) }}\n"
        "      FILTER (!bound(?p))\n"
        "  }}"
    )


def shape_to_sparql_select(expr: ShapeExpr, *, var: str = "node",
                           closed: bool = True,
                           approximate_references: bool = False) -> str:
    """Compile ``expr`` into a SELECT query returning the conforming nodes.

    The query binds ``?node`` (configurable) to every subject that satisfies
    every cardinality and value constraint.  Optional (min = 0) constraints
    and closedness are encoded with the same UNION/OPTIONAL tricks as the
    ASK form but over a variable focus node.
    """
    specs = flatten_expression(expr)
    if not specs:
        raise SparqlCompilationError("cannot build a SELECT query for the empty shape")
    blocks: List[str] = []
    for index, spec in enumerate(specs):
        predicate = spec.predicate.n3()
        filter_text = _constraint_filter(spec.constraint, "o", approximate_references)
        count_all = f"?c{index}_all"
        count_ok = f"?c{index}_ok"
        if spec.min_count == 0:
            present = (
                f"  {{\n"
                f"    {{ SELECT ?{var} (COUNT(*) AS {count_all}) {{\n"
                f"        ?{var} {predicate} ?o .\n"
                f"    }} GROUP BY ?{var} }}\n"
                f"    {{ SELECT ?{var} (COUNT(*) AS {count_ok}) {{\n"
                f"        ?{var} {predicate} ?o .\n"
                + (f"        FILTER ({filter_text})\n" if filter_text else "")
                + f"    }} GROUP BY ?{var}"
                + (f" HAVING (COUNT(*) <= {spec.max_count})" if spec.max_count is not None else "")
                + " }\n"
                f"    FILTER ({count_all} = {count_ok})\n"
                f"  }} UNION {{\n"
                f"    {{ SELECT ?{var} {{\n"
                f"        ?{var} ?anyp{index} ?anyo{index} .\n"
                f"        OPTIONAL {{ ?{var} {predicate} ?o }}\n"
                f"        FILTER (!bound(?o))\n"
                f"    }} }}\n"
                f"  }}"
            )
            blocks.append(present)
            continue
        having = []
        if spec.min_count > 0:
            having.append(f"COUNT(*) >= {spec.min_count}")
        if spec.max_count is not None:
            having.append(f"COUNT(*) <= {spec.max_count}")
        having_text = f" HAVING ({' && '.join(having)})" if having else ""
        blocks.append(
            f"  {{ SELECT ?{var} (COUNT(*) AS {count_all}) {{\n"
            f"      ?{var} {predicate} ?o .\n"
            f"  }} GROUP BY ?{var}{having_text} }}"
        )
        if filter_text is not None:
            blocks.append(
                f"  {{ SELECT ?{var} (COUNT(*) AS {count_ok}) {{\n"
                f"      ?{var} {predicate} ?o .\n"
                f"      FILTER ({filter_text})\n"
                f"  }} GROUP BY ?{var} }}"
            )
            blocks.append(f"  FILTER ({count_all} = {count_ok})")
    if closed:
        different = " && ".join(f"?p != {spec.predicate.n3()}" for spec in specs)
        blocks.append(
            f"  {{ SELECT ?{var} (1 AS ?closedflag) {{\n"
            f"      ?{var} ?anyp ?anyo .\n"
            f"      OPTIONAL {{ ?{var} ?p ?extra . FILTER ({different}) }}\n"
            f"      FILTER (!bound(?p))\n"
            f"  }} }}"
        )
    body = "\n".join(blocks)
    return f"SELECT DISTINCT ?{var} WHERE {{\n{body}\n}}"


# --------------------------------------------------------------------------- engine
class SparqlEngine:
    """Validation engine that matches neighbourhoods by compiling to SPARQL.

    The engine materialises the neighbourhood into a scratch graph and runs
    the generated ASK query against it.  It deliberately mirrors the
    restrictions of Section 3: recursive references are only approximated
    (node-kind check), so it should be used for the non-recursive shapes the
    benchmarks compare — which is also the fragment where SPARQL is a fair
    baseline.
    """

    name = "sparql"

    def __init__(self, closed: bool = True, approximate_references: bool = True):
        self.closed = closed
        self.approximate_references = approximate_references

    def match_neighbourhood(self, expr: ShapeExpr, triples: FrozenSet[Triple],
                            context: Optional[ValidationContext] = None) -> MatchResult:
        """Match ``triples`` (a node neighbourhood) against ``expr`` via SPARQL."""
        stats = MatchStats()
        triples = frozenset(triples)
        if not triples:
            # the ASK form needs a focus node; the empty neighbourhood matches
            # exactly the nullable expressions, so answer directly.
            from .derivatives import nullable

            matched = nullable(expr)
            return MatchResult(matched, stats,
                               "" if matched else "empty neighbourhood not accepted")
        focus = next(iter(triples)).subject
        scratch = Graph(triples)
        try:
            query = shape_to_sparql_ask(
                expr, focus, closed=self.closed,
                approximate_references=self.approximate_references,
            )
        except SparqlCompilationError as error:
            return MatchResult(False, stats,
                               f"not SPARQL-compilable: {error}")
        stats.arc_checks += len(triples)
        matched = sparql_ask(scratch, query)
        return MatchResult(matched, stats,
                           "" if matched else "SPARQL ASK returned false")

    __call__ = match_neighbourhood

    # -- graph-level helpers --------------------------------------------------------
    def conforming_nodes(self, graph: Graph, expr: ShapeExpr, *,
                         var: str = "node") -> List[SubjectTerm]:
        """Return the nodes of ``graph`` conforming to ``expr`` via one SELECT query."""
        query = shape_to_sparql_select(
            expr, var=var, closed=self.closed,
            approximate_references=self.approximate_references,
        )
        solutions = sparql_select(graph, query)
        nodes = []
        for solution in solutions:
            value = solution.get(var)
            if value is not None and value not in nodes:
                nodes.append(value)
        return sorted(nodes, key=lambda term: term.sort_key())
