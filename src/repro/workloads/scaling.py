"""Scaling workloads: the parameterised neighbourhoods behind the benchmarks.

Every benchmark in ``benchmarks/`` measures both engines on neighbourhoods
produced here.  Each generator returns a :class:`NeighbourhoodCase` carrying
the expression, the node, the triples and the expected verdict, so that the
benchmark can assert correctness before timing anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, List

from ..rdf.namespaces import EX, XSD
from ..rdf.terms import IRI, Literal, Triple
from ..shex.expressions import (
    ShapeExpr,
    arc,
    interleave,
    interleave_all,
    plus,
    repeat,
    star,
)
from ..shex.node_constraints import DatatypeConstraint, value_set

__all__ = [
    "NeighbourhoodCase",
    "star_case",
    "paper_interleave_case",
    "interleave_width_case",
    "balanced_alternation_case",
    "cardinality_case",
    "mixed_portal_case",
    "shuffled",
]


@dataclass
class NeighbourhoodCase:
    """One matching problem: expression + neighbourhood + expected verdict."""

    name: str
    expression: ShapeExpr
    node: IRI
    triples: FrozenSet[Triple]
    expected: bool
    #: free-form parameters, echoed in benchmark output tables.
    parameters: dict

    def __post_init__(self):
        self.triples = frozenset(self.triples)

    @property
    def size(self) -> int:
        """Number of triples in the neighbourhood."""
        return len(self.triples)


_NODE = EX.subject


def star_case(arcs: int, matching: bool = True) -> NeighbourhoodCase:
    """``(b → {1..k})*`` against ``arcs`` distinct arcs; a mismatch is injected if asked.

    The value set grows with the neighbourhood (triples form a set, so each
    arc needs a distinct object).  This is the friendliest possible workload
    for both engines (no forced interleave split), used as the baseline curve
    of benchmark B1.
    """
    value_bound = max(5, arcs)
    values = value_set(*range(1, value_bound + 1))
    expression = star(arc(EX.b, values))
    triples = {
        Triple(_NODE, EX.b, Literal(index + 1)) for index in range(arcs)
    }
    if not matching and arcs:
        triples = set(triples)
        triples.pop()
        triples.add(Triple(_NODE, EX.b, Literal("out of range")))
    return NeighbourhoodCase(
        name=f"star-{arcs}", expression=expression, node=_NODE,
        triples=frozenset(triples), expected=matching or arcs == 0,
        parameters={"arcs": arcs, "matching": matching},
    )


def paper_interleave_case(extra_b_arcs: int, matching: bool = True) -> NeighbourhoodCase:
    """The paper's running example ``a→1 ‖ (b→V)*`` scaled up.

    RDF neighbourhoods are *sets* of triples, so growing the number of ``b``
    arcs requires growing their value set as well: the expression becomes
    ``a→{1} ‖ (b→{1..k})*`` with ``k = max(2, extra_b_arcs)``, which for
    ``extra_b_arcs = 2`` is exactly the paper's ``a→1 ‖ (b→{1,2})*``.
    With ``matching=False`` a second ``a`` arc is added, which is the
    rejection scenario of Example 12.
    """
    value_bound = max(2, extra_b_arcs)
    expression = interleave(
        arc(EX.a, value_set(1)),
        star(arc(EX.b, value_set(*range(1, value_bound + 1)))),
    )
    triples = {Triple(_NODE, EX.a, Literal(1))}
    for index in range(extra_b_arcs):
        triples.add(Triple(_NODE, EX.b, Literal(index + 1)))
    if not matching:
        triples.add(Triple(_NODE, EX.a, Literal(2)))
    return NeighbourhoodCase(
        name=f"paper-interleave-{extra_b_arcs}", expression=expression, node=_NODE,
        triples=frozenset(triples), expected=matching,
        parameters={"extra_b_arcs": extra_b_arcs, "matching": matching},
    )


def interleave_width_case(width: int, arcs_per_branch: int = 1,
                          matching: bool = True) -> NeighbourhoodCase:
    """``p1→v ‖ p2→v ‖ … ‖ pk→v`` with one (or more) arc per predicate.

    Widening the interleave is what blows up the backtracking matcher: every
    ``‖`` forces a decomposition of the remaining neighbourhood (benchmark B3).
    """
    branches = []
    triples = set()
    for index in range(width):
        predicate = EX[f"p{index}"]
        values = value_set(*range(1, arcs_per_branch + 1))
        if arcs_per_branch == 1:
            branches.append(arc(predicate, values))
        else:
            branches.append(repeat(arc(predicate, values), arcs_per_branch, arcs_per_branch))
        for value in range(1, arcs_per_branch + 1):
            triples.add(Triple(_NODE, predicate, Literal(value)))
    expression = interleave_all(*branches)
    if not matching and triples:
        triples.add(Triple(_NODE, EX.unexpected, Literal(0)))
    return NeighbourhoodCase(
        name=f"interleave-{width}x{arcs_per_branch}", expression=expression, node=_NODE,
        triples=frozenset(triples), expected=matching,
        parameters={"width": width, "arcs_per_branch": arcs_per_branch,
                    "matching": matching},
    )


def balanced_alternation_case(pairs: int, matching: bool = True) -> NeighbourhoodCase:
    """Example 10's expression ``(a→V | b→V)*`` with ``pairs`` a/b arc pairs.

    The derivative of this expression grows as arcs are consumed (the paper
    points this out explicitly), so benchmark B2 tracks the peak expression
    size along with the running time.  As in :func:`paper_interleave_case`
    the value set grows with the neighbourhood because triples form a set;
    ``pairs = 1`` corresponds to the paper's ``(a→{1,2} | b→{1,2})*``.
    """
    value_bound = max(2, pairs)
    values = value_set(*range(1, value_bound + 1))
    expression = star(arc(EX.a, values) | arc(EX.b, values))
    triples = set()
    for index in range(pairs):
        triples.add(Triple(_NODE, EX.a, Literal(index + 1)))
        triples.add(Triple(_NODE, EX.b, Literal(index + 1)))
    if not matching:
        triples.add(Triple(_NODE, EX.c, Literal(1)))
    return NeighbourhoodCase(
        name=f"balanced-{pairs}", expression=expression, node=_NODE,
        triples=frozenset(triples), expected=matching,
        parameters={"pairs": pairs, "matching": matching},
    )


def cardinality_case(minimum: int, maximum: int, arcs: int) -> NeighbourhoodCase:
    """``(p→V){m,n}`` against ``arcs`` arcs (benchmark B4).

    The expected verdict is ``m <= arcs <= n``; the repeat operator expands
    into ``m`` copies and ``n - m`` optional copies interleaved, as defined
    in Section 4, so large ranges stress the expression-size handling of
    both engines.
    """
    values = value_set(*range(arcs + 2)) if arcs else value_set(0, 1)
    expression = repeat(arc(EX.p, values), minimum, maximum)
    triples = {Triple(_NODE, EX.p, Literal(index)) for index in range(arcs)}
    return NeighbourhoodCase(
        name=f"cardinality-{minimum}-{maximum}-{arcs}", expression=expression,
        node=_NODE, triples=frozenset(triples),
        expected=minimum <= arcs <= maximum,
        parameters={"min": minimum, "max": maximum, "arcs": arcs},
    )


def mixed_portal_case(properties: int, multivalued_every: int = 3,
                      matching: bool = True) -> NeighbourhoodCase:
    """A linked-data-portal record: many single-valued and some multi-valued arcs.

    Mimics the dataset descriptions in the portals the paper cites
    (one label, one publisher, several themes, several distributions, …).
    """
    branches: List[ShapeExpr] = []
    triples = set()
    for index in range(properties):
        predicate = EX[f"prop{index}"]
        constraint = DatatypeConstraint(XSD.string)
        if index % multivalued_every == 0:
            branches.append(plus(arc(predicate, constraint)))
            triples.add(Triple(_NODE, predicate, Literal(f"value {index}a")))
            triples.add(Triple(_NODE, predicate, Literal(f"value {index}b")))
        else:
            branches.append(arc(predicate, constraint))
            triples.add(Triple(_NODE, predicate, Literal(f"value {index}")))
    expression = interleave_all(*branches)
    if not matching and triples:
        triples.add(Triple(_NODE, EX[f"prop{0}"], Literal(1)))  # non-string value
    return NeighbourhoodCase(
        name=f"portal-{properties}", expression=expression, node=_NODE,
        triples=frozenset(triples), expected=matching,
        parameters={"properties": properties, "matching": matching},
    )


def shuffled(case: NeighbourhoodCase, seed: int = 0) -> List[Triple]:
    """Return the case's triples in a deterministic shuffled order.

    Used by the triple-ordering ablation: the derivative algorithm is
    correct for any consumption order, but the order affects intermediate
    expression sizes.
    """
    triples = sorted(case.triples, key=Triple.sort_key)
    rng = random.Random(seed)
    rng.shuffle(triples)
    return triples
