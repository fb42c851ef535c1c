"""Exception hierarchy for the RDF substrate.

All exceptions raised by :mod:`repro.rdf` derive from :class:`RDFError` so
that callers can catch substrate failures with a single ``except`` clause
while still distinguishing parse errors from model errors.
"""

from __future__ import annotations

__all__ = [
    "RDFError",
    "NamespaceError",
    "DatatypeError",
    "ParseError",
    "GraphError",
]


class RDFError(Exception):
    """Base class for every error raised by the RDF substrate."""


class NamespaceError(RDFError):
    """Raised for unknown prefixes or invalid namespace bindings."""


class DatatypeError(RDFError):
    """Raised when a literal's lexical form is invalid for its datatype."""


class GraphError(RDFError):
    """Raised for invalid graph-level operations."""


class ParseError(RDFError):
    """Raised by the N-Triples, Turtle and ShExC parsers.

    Carries the position of the offending input so that error messages point
    at the exact line and column.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
