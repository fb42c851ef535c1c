#!/usr/bin/env python3
"""Recursive schemas: Examples 13 and 14 of the paper.

Shape Expression Schemas may reference themselves (``foaf:knows @<Person>*``),
so validation needs the typing context ``Γ`` of Section 8.  This script
validates chains, cycles and trees of people, shows the inferred shape typing
and demonstrates that cyclic data terminates thanks to the coinductive
reading of the typing rules (production computes their greatest fixpoint;
``reference=True`` descends under hypotheses).

Run with::

    python examples/recursive_shapes.py
"""

from repro import Graph, Schema, Validator
from repro.rdf import EX, FOAF, Literal, Triple
from repro.workloads import (
    knows_chain_graph,
    knows_cycle_graph,
    knows_tree_graph,
    person_schema,
)

EXAMPLE_13_SCHEMA = """
PREFIX ex: <http://example.org/>

<p> {
  ex:a [ 1 ] ,
  ex:b [ 1 2 ] + ,
  ex:c @<p> *
}
"""


def example_13() -> None:
    """The schema ``p ↦ a→1 ‖ (b→{1,2})+ ‖ (c→p)*`` on a small graph."""
    schema = Schema.from_shexc(EXAMPLE_13_SCHEMA)
    graph = Graph()
    n1, n2 = EX.n1, EX.n2
    # n1 conforms and references n2, which also conforms
    graph.add(Triple(n1, EX.a, Literal(1)))
    graph.add(Triple(n1, EX.b, Literal(1)))
    graph.add(Triple(n1, EX.b, Literal(2)))
    graph.add(Triple(n1, EX.c, n2))
    graph.add(Triple(n2, EX.a, Literal(1)))
    graph.add(Triple(n2, EX.b, Literal(2)))
    # n3 is broken: value 3 is outside the declared value set
    n3 = EX.n3
    graph.add(Triple(n3, EX.a, Literal(1)))
    graph.add(Triple(n3, EX.b, Literal(3)))

    validator = Validator(graph, schema)
    print("Example 13 — schema with a recursive reference c→p*")
    for node in (n1, n2, n3):
        entry = validator.validate_node(node, "p")
        print(f"  {entry}")
    typing = validator.infer_typing()
    print(f"  inferred typing: {typing.to_dict()}")
    print()


def example_14_chain() -> None:
    """A chain of people, each knowing the next (Example 14's Person schema)."""
    graph, head = knows_chain_graph(depth=6)
    validator = Validator(graph, person_schema())
    report = validator.validate_map({head: "Person"})
    print("Example 14 — chain of foaf:knows references")
    print(f"  head of the chain: {report.entries[0]}")
    print(f"  shape-reference checks performed: {report.stats.reference_checks}")
    print()


def example_14_cycle() -> None:
    """A cycle of people: recursion must terminate and every node conforms."""
    graph, start = knows_cycle_graph(length=4)
    validator = Validator(graph, person_schema())
    typing = validator.infer_typing()
    print("Cyclic foaf:knows data (4-node cycle)")
    print(f"  every node conforms: {len(typing) == 4}")
    print(f"  typing: {typing.to_dict()}")
    print()


def example_14_tree_with_failure() -> None:
    """A tree of people where one leaf is broken: the whole path fails."""
    graph, root = knows_tree_graph(depth=3, fanout=2)
    validator = Validator(graph, person_schema())
    assert validator.validate_node(root, "Person").conforms

    # break one leaf: give it a second age
    leaves = [node for node in graph.nodes() if not list(graph.objects(node, FOAF.knows))]
    broken_leaf = sorted(leaves, key=lambda term: term.value)[0]
    graph.add(Triple(broken_leaf, FOAF.age, Literal(999)))

    fresh = Validator(graph, person_schema())
    entry = fresh.validate_node(root, "Person")
    print("Tree of people with one broken leaf")
    print(f"  broken leaf : {broken_leaf.n3()}")
    print(f"  root verdict: {'conforms' if entry.conforms else 'does not conform'}")
    print("  (the root fails because foaf:knows requires the referenced node to")
    print("   have shape Person, recursively)")


def main() -> None:
    example_13()
    example_14_chain()
    example_14_cycle()
    example_14_tree_with_failure()


if __name__ == "__main__":
    main()
