"""repro — RDF validation with Shape Expressions and regular expression derivatives.

A complete, pure-Python reproduction of

    Labra Gayo, Prud'hommeaux, Staworko, Solbrig:
    *Towards an RDF validation language based on Regular Expression
    derivatives*, EDBT/ICDT 2015 Workshops, pp. 197–204.

The package bundles:

* :mod:`repro.rdf` — an RDF substrate (terms, graphs, Turtle/N-Triples),
* :mod:`repro.shex` — Regular Shape Expressions, the derivative and
  backtracking matchers, schemas with recursion, ShExC parsing and the
  SPARQL compiler,
* :mod:`repro.sparql` — a SPARQL subset engine used as the Section 3 baseline,
* :mod:`repro.workloads` — synthetic graph and schema generators used by the
  examples and benchmarks.

Quickstart::

    from repro import Graph, Schema, Validator

    schema = Schema.from_shexc('''
        PREFIX foaf: <http://xmlns.com/foaf/0.1/>
        PREFIX xsd:  <http://www.w3.org/2001/XMLSchema#>
        <Person> {
          foaf:age   xsd:integer ,
          foaf:name  xsd:string + ,
          foaf:knows @<Person> *
        }
    ''')
    graph = Graph.parse(turtle_text)
    print(Validator(graph, schema).conforming_nodes("Person"))
"""

from ._lazy import lazy_exports
from .rdf import (
    BNode,
    Graph,
    IRI,
    Literal,
    Namespace,
    Triple,
    parse_ntriples,
    serialize_ntriples,
)
from .shex import (
    DerivativeEngine,
    MatchResult,
    Schema,
    ShapeLabel,
    ShapeTyping,
    ValidationReport,
    Validator,
    parse_shexc,
)

__version__ = "1.0.0"

__all__ = [
    "IRI", "BNode", "Literal", "Triple", "Graph", "Namespace",
    "parse_turtle", "serialize_turtle", "parse_ntriples", "serialize_ntriples",
    "Schema", "ShapeLabel", "ShapeTyping", "Validator", "ValidationReport",
    "MatchResult", "DerivativeEngine", "BacktrackingEngine", "parse_shexc",
    "__version__",
]

# Turtle and the backtracking engine load on first attribute access.
__getattr__, __dir__ = lazy_exports(__name__, {
    "parse_turtle": "rdf",
    "serialize_turtle": "rdf",
    "BacktrackingEngine": "shex",
})
