"""Property-based tests: ``revalidate`` always equals a fresh full run.

The contract of incremental revalidation is *verdict-level equivalence*: for
any schema, any graph and any interleaving of mutations and revalidation
checkpoints, the delta-updated report must carry exactly the verdicts (and
the typing) a fresh validator computes on the mutated graph from scratch.
Hypothesis drives random recursive schemas against random add/remove/
revalidate sequences over a small triple universe — small enough to explore
collisions (re-adding removed triples, emptying subjects, dirtying the same
subject twice) yet rich enough to exercise reference chains and cycles.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.rdf import EX, XSD, Graph, Literal, Triple
from repro.shex import Schema, Validator
from repro.shex.expressions import arc, interleave_all, optional, plus, star
from repro.shex.node_constraints import DatatypeConstraint, shape_ref, value_set

NODES = [EX[f"n{i}"] for i in range(5)]
PREDICATES = [EX.p, EX.q, EX.r]
LABELS = ["A", "B"]
OBJECTS = [Literal(1), Literal(2), Literal("x"),
           Literal("3", datatype=XSD.string)] + NODES[:3]
UNIVERSE = [Triple(subject, predicate, obj)
            for subject in NODES
            for predicate in PREDICATES
            for obj in OBJECTS]


def constraints() -> st.SearchStrategy:
    return st.one_of(
        st.builds(lambda values: value_set(*values),
                  st.lists(st.sampled_from([1, 2, "x"]), min_size=1,
                           max_size=2, unique=True)),
        st.just(DatatypeConstraint(XSD.integer)),
        st.just(DatatypeConstraint(XSD.string)),
        # reference arcs make the reverse-reachability closure matter
        st.sampled_from([shape_ref(label) for label in LABELS]),
    )


def shapes() -> st.SearchStrategy:
    def build(arcs):
        return interleave_all(*[
            modifier(arc(predicate, constraint))
            for (predicate, constraint, modifier) in arcs
        ])

    modifiers = st.sampled_from([lambda e: e, star, optional, plus])
    return st.builds(
        build,
        st.lists(st.tuples(st.sampled_from(PREDICATES), constraints(),
                           modifiers),
                 min_size=1, max_size=3),
    )


def schemas() -> st.SearchStrategy[Schema]:
    return st.builds(
        lambda a, b: Schema({"A": a, "B": b}),
        shapes(), shapes(),
    )


def operations() -> st.SearchStrategy[list]:
    operation = st.one_of(
        st.tuples(st.just("add"), st.sampled_from(UNIVERSE)),
        st.tuples(st.just("remove"), st.sampled_from(UNIVERSE)),
        st.tuples(st.just("revalidate"), st.none()),
    )
    return st.lists(operation, min_size=1, max_size=12)


def _verdicts(report):
    return {(entry.node, str(entry.label)): entry.conforms for entry in report}


def _check_roundtrip(schema, initial, ops):
    graph = Graph(initial)
    validator = Validator(graph, schema)
    validator.validate_graph()

    def checkpoint():
        result = validator.revalidate()
        fresh = Validator(graph.copy(), schema).validate_graph()
        assert _verdicts(result.report) == _verdicts(fresh), (
            f"revalidate verdicts diverge from a fresh run after "
            f"{len(ops)} ops"
        )
        assert result.report.typing == fresh.typing
        # the full report is canonically ordered like a fresh one
        assert [(e.node, e.label) for e in result.report.entries] \
            == [(e.node, e.label) for e in fresh.entries]

    for kind, triple in ops:
        if kind == "add":
            graph.add(triple)
        elif kind == "remove":
            graph.discard(triple)
        else:
            checkpoint()
    checkpoint()


class TestRevalidateEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(schema=schemas(),
           initial=st.frozensets(st.sampled_from(UNIVERSE), max_size=10),
           ops=operations())
    def test_serial_revalidate_matches_fresh_full_run(self, schema, initial, ops):
        _check_roundtrip(schema, initial, ops)

    @settings(max_examples=40, deadline=None)
    @given(schema=schemas(),
           initial=st.frozensets(st.sampled_from(UNIVERSE), max_size=10),
           ops=operations())
    def test_batched_mutations_revalidate_identically(self, schema, initial, ops):
        """The same edits applied through one batch journal entry."""
        graph = Graph(initial)
        validator = Validator(graph, schema)
        validator.validate_graph()
        with graph.batch():
            for kind, triple in ops:
                if kind == "add":
                    graph.add(triple)
                elif kind == "remove":
                    graph.discard(triple)
        result = validator.revalidate()
        fresh = Validator(graph.copy(), schema).validate_graph()
        assert _verdicts(result.report) == _verdicts(fresh)
        assert result.report.typing == fresh.typing
