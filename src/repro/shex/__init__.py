"""Shape Expressions: the paper's primary contribution.

The package implements Regular Shape Expressions (Section 4), their
declarative semantics (Section 4), the backtracking matcher derived from the
inference rules (Section 5), the derivative-based matcher (Sections 6–7),
labelled Shape Expression Schemas with recursive references (Section 8), the
ShEx compact syntax, a JSON interchange format and a compiler to SPARQL
(Section 3).

Typical usage::

    from repro.rdf import Graph
    from repro.shex import Schema, Validator

    schema = Schema.from_shexc('''
        PREFIX foaf: <http://xmlns.com/foaf/0.1/>
        PREFIX xsd:  <http://www.w3.org/2001/XMLSchema#>
        <Person> {
          foaf:age   xsd:integer ,
          foaf:name  xsd:string + ,
          foaf:knows @<Person> *
        }
    ''')
    graph = Graph.parse(open("people.ttl").read())
    validator = Validator(graph, schema)           # derivative engine
    report = validator.validate_graph()

Engines, production and the reference
-------------------------------------

``Validator(graph, schema, engine=..., **engine_options)`` accepts:

* ``engine="derivatives"`` (default) — the paper's linear derivative
  matcher.  Its options are the Section 4 ablations: ``simplify`` (apply
  the rewrite rules, default True), ``order_by_predicate`` (sort
  neighbourhoods before consuming them, default True) and ``memoize``
  (per-neighbourhood ``(expression, triple)`` memo, default True).
* ``engine="backtracking"`` — the exponential inference-rule baseline;
  option ``budget`` caps rule applications.

Validation has one production configuration, used by every surface (the
CLI, the service, the shard replicas):

* one shared :class:`~repro.shex.schema.FixpointContext` threads the
  bulk operations (``validate_graph``, ``infer_typing``, ``validate_map``,
  ``conforming_nodes``) and solves the typing as the greatest fixpoint of
  one-step matching: a reference is answered from the current typing and
  never recursed into, a pair that fails re-queues only the pairs that
  read it, and every verdict a solve writes is final;
* a :class:`~repro.shex.cache.SignatureCache` keyed by each subject's
  typed neighbourhood signature (constraint bits plus reference bits read
  from the typing), so recursive subjects get hits too;
* a :class:`CompiledSchema` (per-label nullability, required-predicate
  sets, cardinality bounds, value screens, per-predicate signature atoms)
  whose **static prefilter** decides a pair on a signature-cache miss from
  the node's ``predicate → objects`` buckets, before the engine runs;
* for the derivatives engine, a **global cross-node**
  :class:`DerivativeCache` keyed by hash-consed expression structure plus
  constraint-verdict vectors.

Every production memo table holds at most a module constant's worth of
entries, and a store into a full table clears it first
(:func:`repro.shex.cache.bounded_store`): ``MAX_SIGNATURE_CACHE_ENTRIES``
and ``MAX_DERIVATIVE_CACHE_ENTRIES`` in :mod:`repro.shex.cache`,
``MAX_SIGNATURE_ATOM_ENTRIES`` in :mod:`repro.shex.compiled`.

``Validator(..., reference=True)`` (CLI ``validate --reference``) is the
only alternative: the paper's reference semantics — a fresh
:class:`~repro.shex.reference.ReferenceContext` per node, the recursive
descent under coinductive hypotheses bounded by
``repro.shex.reference.MAX_RECURSION_DEPTH`` hops, and none of the
compiled, signature or derivative caches.  It gives the same verdicts
within its budget and is the oracle the fast paths are tested against.

The backtracking engine, the SPARQL compiler (:mod:`repro.shex.sparql_gen`)
and the SPARQL engine behind it, language enumeration, shape maps and ShExJ
load on first use (PEP 562), and the reference validator imports
:mod:`repro.shex.reference` itself, so a production run never loads them.
"""

from .._lazy import lazy_exports
from .cache import DerivativeCache
from .compiled import CompiledSchema, CompiledShape, PrefilterDecision
from .derivatives import (
    MAX_DERIVATIVE_STEPS,
    DerivativeBudgetExceeded,
    DerivativeEngine,
    derivative,
    derivative_graph,
    derivative_trace,
    matches,
    nullable,
)
from .expressions import (
    EMPTY,
    EPSILON,
    And,
    Arc,
    Empty,
    EmptyTriples,
    Or,
    ShapeExpr,
    Star,
    alternative,
    alternative_all,
    arc,
    expression_cache_stats,
    expression_depth,
    expression_size,
    interleave,
    interleave_all,
    iter_subexpressions,
    optional,
    plus,
    referenced_labels,
    repeat,
    star,
)
from .node_constraints import (
    AnyValue,
    ConstraintAnd,
    ConstraintNot,
    ConstraintOr,
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
    datatype,
    shape_ref,
    value_set,
)
from .reporting import (
    format_csv,
    format_text,
    report_to_dict,
    report_to_json,
    summarize,
)
from .results import MatchResult, MatchStats, ValidationReportEntry
from .schema import Schema, SchemaError, ValidationContext
from .shexc import parse_shexc, serialize_shexc
from .typing import ShapeLabel, ShapeTyping
from .validator import (
    ENGINES,
    RevalidationResult,
    ValidationReport,
    Validator,
    get_engine,
)

__all__ = [
    # expressions
    "ShapeExpr", "Empty", "EmptyTriples", "Arc", "Star", "And", "Or",
    "EMPTY", "EPSILON",
    "arc", "interleave", "alternative", "interleave_all", "alternative_all",
    "star", "plus", "optional", "repeat",
    "expression_size", "expression_depth", "iter_subexpressions", "referenced_labels",
    "expression_cache_stats",
    # node constraints
    "NodeConstraint", "AnyValue", "ValueSet", "DatatypeConstraint", "NodeKind",
    "NodeKindConstraint", "IRIStem", "LanguageTag", "Facets",
    "ConstraintAnd", "ConstraintOr", "ConstraintNot", "ShapeRef", "PredicateSet",
    "value_set", "datatype", "shape_ref",
    # semantics and engines
    "enumerate_language", "language_size", "LanguageEnumerationError",
    "nullable", "derivative", "derivative_graph", "derivative_trace", "matches",
    "DerivativeEngine", "DerivativeCache",
    "MAX_DERIVATIVE_STEPS", "DerivativeBudgetExceeded",
    "BacktrackingEngine", "BacktrackingBudgetExceeded", "matches_backtracking",
    # schema layer
    "Schema", "SchemaError", "ValidationContext",
    "CompiledSchema", "CompiledShape", "PrefilterDecision",
    "ShapeLabel", "ShapeTyping",
    "MatchResult", "MatchStats", "ValidationReportEntry",
    "Validator", "ValidationReport", "RevalidationResult", "get_engine", "ENGINES",
    # syntaxes
    "parse_shexc", "serialize_shexc", "schema_to_dict", "schema_from_dict",
    # shape maps and reporting
    "ShapeMap", "FixedEntry", "QueryEntry", "parse_shape_map",
    "format_text", "format_csv", "report_to_dict", "report_to_json", "summarize",
    # SPARQL compilation
    "shape_to_sparql_ask", "shape_to_sparql_select", "SparqlEngine",
]

# Names whose modules load on first attribute access.
__getattr__, __dir__ = lazy_exports(__name__, {
    "LanguageEnumerationError": "language",
    "enumerate_language": "language",
    "language_size": "language",
    "FixedEntry": "shape_map",
    "QueryEntry": "shape_map",
    "ShapeMap": "shape_map",
    "parse_shape_map": "shape_map",
    "schema_from_dict": "shexj",
    "schema_to_dict": "shexj",
    "BacktrackingBudgetExceeded": "backtracking",
    "BacktrackingEngine": "backtracking",
    "matches_backtracking": "backtracking",
    "SparqlEngine": "sparql_gen",
    "shape_to_sparql_ask": "sparql_gen",
    "shape_to_sparql_select": "sparql_gen",
})
