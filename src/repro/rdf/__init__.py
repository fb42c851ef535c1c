"""RDF substrate: terms, graphs, namespaces, datatypes and concrete syntaxes.

This package is a self-contained, pure-Python replacement for the external
RDF stack the paper's implementations rely on.  It provides everything the
Shape Expression matchers need:

* the term model (:class:`IRI`, :class:`BNode`, :class:`Literal`,
  :class:`Triple`),
* an indexed in-memory :class:`Graph` with the union / neighbourhood /
  decomposition algebra of Section 2 of the paper,
* namespace management and the common vocabularies,
* XSD datatype validation,
* N-Triples and Turtle parsers and serialisers.

The Turtle module loads on first use (PEP 562), so an N-Triples run never
imports it.
"""

from .._lazy import lazy_exports
from .datatypes import (
    canonical_lexical,
    datatype_matches,
    is_valid_lexical,
    to_python_value,
)
from .errors import (
    DatatypeError,
    GraphError,
    NamespaceError,
    ParseError,
    RDFError,
)
from .graph import (
    ChangeJournal,
    Graph,
    OrderedTriples,
    decomposition_count,
    decompositions,
)
from .namespaces import (
    DC,
    DCTERMS,
    EX,
    FOAF,
    OWL,
    RDF,
    RDFS,
    SCHEMA,
    SHEX,
    XSD,
    Namespace,
    NamespaceManager,
)
from .ntriples import parse_ntriples, parse_term, serialize_ntriples
from .terms import (
    BNode,
    IRI,
    Literal,
    ObjectTerm,
    SubjectTerm,
    Term,
    Triple,
    is_object_term,
    is_predicate_term,
    is_subject_term,
)

__all__ = [
    # terms
    "Term", "IRI", "BNode", "Literal", "Triple", "SubjectTerm", "ObjectTerm",
    "is_subject_term", "is_predicate_term", "is_object_term",
    # graph / storage layer
    "Graph", "ChangeJournal",
    "OrderedTriples", "decompositions", "decomposition_count",
    # namespaces
    "Namespace", "NamespaceManager",
    "RDF", "RDFS", "XSD", "OWL", "FOAF", "SCHEMA", "DC", "DCTERMS", "SHEX", "EX",
    # datatypes
    "is_valid_lexical", "to_python_value", "canonical_lexical", "datatype_matches",
    # serialisation
    "parse_ntriples", "parse_term", "serialize_ntriples", "parse_turtle", "serialize_turtle",
    # errors
    "RDFError", "NamespaceError", "DatatypeError", "ParseError", "GraphError",
]

# Names whose modules load on first attribute access.
__getattr__, __dir__ = lazy_exports(__name__, {
    "parse_turtle": "turtle",
    "serialize_turtle": "turtle",
})
