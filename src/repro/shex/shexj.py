"""JSON interchange format for schemas (a ShExJ-inspired representation).

Schemas can be exported to plain dictionaries (and therefore JSON) and
reconstructed from them.  The format follows the spirit of ShExJ: every
expression node is a dictionary with a ``type`` field.  It is used by the
examples to persist schemas and by tests as an additional round-trip check on
the expression algebra.
"""

from __future__ import annotations

from typing import Any, Dict

from ..rdf.terms import BNode, IRI, Literal
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
    interleave,
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
    NodeKindConstraint,
    PredicateSet,
    ShapeRef,
    ValueSet,
)
from .schema import Schema
from .typing import ShapeLabel

__all__ = ["schema_to_dict", "schema_from_dict", "expression_to_dict", "expression_from_dict"]


# ------------------------------------------------------------------------ terms
def _term_to_dict(term) -> Dict[str, Any]:
    if isinstance(term, IRI):
        return {"type": "iri", "value": term.value}
    if isinstance(term, BNode):
        return {"type": "bnode", "id": term.id}
    if isinstance(term, Literal):
        out: Dict[str, Any] = {"type": "literal", "value": term.lexical}
        if term.lang:
            out["language"] = term.lang
        else:
            out["datatype"] = term.datatype.value
        return out
    raise TypeError(f"cannot serialise term {term!r}")


def _term_from_dict(data: Dict[str, Any]):
    kind = data["type"]
    if kind == "iri":
        return IRI(data["value"])
    if kind == "bnode":
        return BNode(data["id"])
    if kind == "literal":
        if "language" in data:
            return Literal(data["value"], lang=data["language"])
        return Literal(data["value"], datatype=IRI(data["datatype"]))
    raise ValueError(f"unknown term type: {kind!r}")


# ------------------------------------------------------------------- constraints
def _facets_to_dict(facets: Facets) -> Dict[str, Any]:
    out = {}
    for name in ("min_inclusive", "max_inclusive", "min_exclusive", "max_exclusive",
                 "min_length", "max_length", "length", "pattern"):
        value = getattr(facets, name)
        if value is not None:
            out[name] = value
    return out


def _constraint_to_dict(constraint: NodeConstraint) -> Dict[str, Any]:
    if isinstance(constraint, AnyValue):
        return {"type": "Wildcard"}
    if isinstance(constraint, ValueSet):
        return {"type": "ValueSet",
                "values": [_term_to_dict(value) for value in constraint]}
    if isinstance(constraint, DatatypeConstraint):
        out = {"type": "Datatype", "datatype": constraint.datatype.value}
        facets = _facets_to_dict(constraint.facets)
        if facets:
            out["facets"] = facets
        return out
    if isinstance(constraint, NodeKindConstraint):
        out = {"type": "NodeKind", "kind": constraint.kind}
        facets = _facets_to_dict(constraint.facets)
        if facets:
            out["facets"] = facets
        return out
    if isinstance(constraint, IRIStem):
        return {"type": "IriStem", "stem": constraint.stem}
    if isinstance(constraint, LanguageTag):
        return {"type": "Language", "tag": constraint.tag}
    if isinstance(constraint, ShapeRef):
        return {"type": "ShapeRef", "reference": str(constraint.label)}
    if isinstance(constraint, ConstraintAnd):
        return {"type": "ConstraintAnd",
                "operands": [_constraint_to_dict(op) for op in constraint.operands]}
    if isinstance(constraint, ConstraintOr):
        return {"type": "ConstraintOr",
                "operands": [_constraint_to_dict(op) for op in constraint.operands]}
    if isinstance(constraint, ConstraintNot):
        return {"type": "ConstraintNot", "operand": _constraint_to_dict(constraint.operand)}
    raise TypeError(f"cannot serialise constraint {constraint!r}")


def _constraint_from_dict(data: Dict[str, Any]) -> NodeConstraint:
    kind = data["type"]
    if kind == "Wildcard":
        return AnyValue()
    if kind == "ValueSet":
        return ValueSet([_term_from_dict(value) for value in data["values"]])
    if kind == "Datatype":
        return DatatypeConstraint(IRI(data["datatype"]),
                                  Facets(**data.get("facets", {})))
    if kind == "NodeKind":
        return NodeKindConstraint(data["kind"], Facets(**data.get("facets", {})))
    if kind == "IriStem":
        return IRIStem(data["stem"])
    if kind == "Language":
        return LanguageTag(data["tag"])
    if kind == "ShapeRef":
        return ShapeRef(ShapeLabel(data["reference"]))
    if kind == "ConstraintAnd":
        return ConstraintAnd([_constraint_from_dict(op) for op in data["operands"]])
    if kind == "ConstraintOr":
        return ConstraintOr([_constraint_from_dict(op) for op in data["operands"]])
    if kind == "ConstraintNot":
        return ConstraintNot(_constraint_from_dict(data["operand"]))
    raise ValueError(f"unknown constraint type: {kind!r}")


def _predicate_set_to_dict(predicates: PredicateSet) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    if predicates.any_predicate:
        out["any"] = True
    if predicates.predicates:
        out["predicates"] = sorted(p.value for p in predicates.predicates)
    if predicates.stem is not None:
        out["stem"] = predicates.stem
    return out


def _predicate_set_from_dict(data: Dict[str, Any]) -> PredicateSet:
    return PredicateSet(
        predicates=[IRI(value) for value in data.get("predicates", [])],
        stem=data.get("stem"),
        any_predicate=data.get("any", False),
    )


# ------------------------------------------------------------------ expressions
def expression_to_dict(expr: ShapeExpr) -> Dict[str, Any]:
    """Convert a shape expression to a JSON-friendly dictionary."""
    if isinstance(expr, Empty):
        return {"type": "Empty"}
    if isinstance(expr, EmptyTriples):
        return {"type": "Epsilon"}
    if isinstance(expr, Arc):
        return {
            "type": "Arc",
            "predicate": _predicate_set_to_dict(expr.predicate),
            "object": _constraint_to_dict(expr.object),
        }
    if isinstance(expr, Star):
        return {"type": "Star", "expression": expression_to_dict(expr.expr)}
    if isinstance(expr, (And, Or)):
        return {"type": type(expr).__name__,
                "operands": [expression_to_dict(operand) for operand in expr.operands]}
    raise TypeError(f"cannot serialise expression {expr!r}")


def expression_from_dict(data: Dict[str, Any]) -> ShapeExpr:
    """Rebuild a shape expression from its dictionary form."""
    kind = data["type"]
    if kind == "Empty":
        from .expressions import EMPTY

        return EMPTY
    if kind == "Epsilon":
        return EPSILON
    if kind == "Arc":
        return Arc(_predicate_set_from_dict(data["predicate"]),
                   _constraint_from_dict(data["object"]))
    if kind == "Star":
        return Star(expression_from_dict(data["expression"]))
    if kind == "And":
        return interleave(*(expression_from_dict(operand) for operand in data["operands"]))
    if kind == "Or":
        return alternative(*(expression_from_dict(operand) for operand in data["operands"]))
    raise ValueError(f"unknown expression type: {kind!r}")


# ----------------------------------------------------------------------- schemas
def schema_to_dict(schema: Schema) -> Dict[str, Any]:
    """Convert a schema to a JSON-friendly dictionary."""
    return {
        "type": "Schema",
        "start": str(schema.start) if schema.start is not None else None,
        "shapes": {
            str(label): expression_to_dict(expr) for label, expr in schema.items()
        },
    }


def schema_from_dict(data: Dict[str, Any]) -> Schema:
    """Rebuild a schema from its dictionary form."""
    if data.get("type") != "Schema":
        raise ValueError("not a schema dictionary")
    shapes = {
        ShapeLabel(name): expression_from_dict(expr)
        for name, expr in data.get("shapes", {}).items()
    }
    return Schema(shapes, start=data.get("start"))
