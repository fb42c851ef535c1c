"""Property-based tests: signature-deduped verdicts equal the reference's.

The neighbourhood-signature cache serves a verdict for every subject whose
typed signature — constraint bits plus reference bits read from the
current typing — was already matched, so for any random (schema, graph)
pair, production bulk validation (signature cache on) must produce exactly
the verdicts of a ``reference=True`` run,
which has no signature, compiled or derivative cache.  The schemas
drawn here include shape references (self- and mutually-recursive), the
graphs include self-loops and cross-references, and the property is checked
on the serial path and on incremental revalidation after a random mutation.

A regression test rides along for the stats contract: each run's report
holds its own stats record, and a run the signature cache serves records
the hit and no engine work.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import EX, XSD, Literal, Triple
from repro.rdf.graph import Graph
from repro.shex import Validator, arc, datatype, shape_ref, value_set
from repro.shex.expressions import ShapeExpr, And, Or, Star
from repro.shex.node_constraints import PredicateSet
from repro.shex.schema import Schema
from repro.shex.typing import ShapeLabel

PREDICATES = [EX.p, EX.q, EX.r]
NODES = [EX[f"n{i}"] for i in range(5)]
OBJECTS = NODES + [Literal(1), Literal(2), Literal("x")]
LABELS = [ShapeLabel("S0"), ShapeLabel("S1")]


def constraints() -> st.SearchStrategy:
    return st.one_of(
        st.just(datatype(XSD.integer)),
        st.just(datatype(XSD.string)),
        st.builds(lambda values: value_set(*values),
                  st.lists(st.sampled_from([1, 2, "x"]), min_size=1,
                           max_size=2, unique=True)),
        # references make schemas recursive: S0 may point at itself or S1
        st.sampled_from([shape_ref(label) for label in LABELS]),
    )


def arcs() -> st.SearchStrategy[ShapeExpr]:
    return st.builds(lambda p, c: arc(PredicateSet.single(p), c),
                     st.sampled_from(PREDICATES), constraints())


def expressions() -> st.SearchStrategy[ShapeExpr]:
    return st.recursive(
        arcs(),
        lambda children: st.one_of(
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Star, children),
        ),
        max_leaves=5,
    )


def schemas() -> st.SearchStrategy[Schema]:
    return st.builds(
        lambda e0, e1: Schema({LABELS[0]: e0, LABELS[1]: e1}),
        expressions(), expressions())


def triples() -> st.SearchStrategy[Triple]:
    return st.builds(Triple, st.sampled_from(NODES),
                     st.sampled_from(PREDICATES), st.sampled_from(OBJECTS))


def graphs() -> st.SearchStrategy[Graph]:
    return st.sets(triples(), min_size=1, max_size=12).map(Graph)


def _verdicts(report):
    return {(entry.node, entry.label): entry.conforms for entry in report}


def _run(graph, schema, *, cached: bool):
    validator = Validator(graph, schema, reference=not cached)
    return validator, validator.validate_graph()


class TestSignatureDedupeIdentity:
    @settings(max_examples=120, deadline=None)
    @given(schema=schemas(), graph=graphs())
    def test_serial_verdicts_identical(self, schema, graph):
        _, cached = _run(graph, schema, cached=True)
        _, uncached = _run(graph, schema, cached=False)
        assert _verdicts(cached) == _verdicts(uncached)

    @settings(max_examples=40, deadline=None)
    @given(schema=schemas(), graph=graphs(),
           additions=st.sets(triples(), max_size=4),
           removal_picks=st.lists(st.integers(min_value=0), max_size=3))
    def test_revalidate_after_mutation_identical(self, schema, graph,
                                                 additions, removal_picks):
        validator, _ = _run(graph, schema, cached=True)
        existing = sorted(graph, key=lambda triple: triple.sort_key())
        removals = {existing[pick % len(existing)] for pick in removal_picks}
        added = {triple for triple in additions if triple not in set(existing)}
        if not added and not removals:
            return
        for triple in removals:
            graph.remove(triple)
        graph.add_all(added)
        validator.revalidate()
        fresh = Graph()
        fresh.add_all(graph)
        _, uncached = _run(fresh, schema, cached=False)
        assert _verdicts(validator.maintained_report()) == _verdicts(uncached)


class TestStatsSnapshotIndependence:
    """Run stats stay independent records under dedupe."""

    def _twin_graph(self):
        # two structurally identical subjects: the second is a cache hit
        graph = Graph()
        for node in (EX.a, EX.b):
            graph.add(Triple(node, EX.p, Literal(1)))
            graph.add(Triple(node, EX.q, Literal("x")))
        return graph

    def _twin_schema(self):
        return Schema({"S": And(arc(PredicateSet.single(EX.p), datatype(XSD.integer)),
                                arc(PredicateSet.single(EX.q), datatype(XSD.string)))})

    def test_hit_entry_has_its_own_snapshot(self):
        # one run per twin: the second is served by the signature cache
        validator = Validator(self._twin_graph(), self._twin_schema())
        first = validator.validate_map({EX.a: "S"})
        second = validator.validate_map({EX.b: "S"})
        assert validator.signature_cache is not None
        assert second.stats.signature_hits == 1
        assert second.stats.derivative_steps == 0
        assert first.stats.signature_hits == 0
        assert first.stats.derivative_steps > 0
        assert first.stats is not second.stats
        # the whole graph in one run: one miss, one hit
        whole = Validator(self._twin_graph(), self._twin_schema()).validate_graph()
        assert whole.stats.signature_misses == 1
        assert whole.stats.signature_hits == 1
        assert whole.stats.derivative_steps == first.stats.derivative_steps

    def test_snapshots_survive_later_runs(self):
        validator = Validator(self._twin_graph(), self._twin_schema())
        report = validator.validate_graph()
        frozen = report.stats.as_dict()
        validator.validate_graph()
        validator.validate_node(EX.a, "S")
        assert report.stats.as_dict() == frozen

    def test_verdicts_and_hit_counters_with_conforming_and_failing_twins(self):
        graph = self._twin_graph()
        # break both twins identically on a *faceted* constraint: the value
        # screen refuses facets, so the failure is decided by the engine and
        # the failing verdict is deduped too.
        schema = Schema({"S": And(
            arc(PredicateSet.single(EX.p), datatype(XSD.integer)),
            arc(PredicateSet.single(EX.q), datatype(XSD.string, min_length=1)))})
        graph.add(Triple(EX.c, EX.p, Literal(1)))
        graph.add(Triple(EX.c, EX.q, Literal("")))
        graph.add(Triple(EX.d, EX.p, Literal(1)))
        graph.add(Triple(EX.d, EX.q, Literal("")))
        validator = Validator(graph, schema)
        report = validator.validate_graph()
        verdicts = _verdicts(report)
        label = ShapeLabel("S")
        assert verdicts[(EX.a, label)] and verdicts[(EX.b, label)]
        assert not verdicts[(EX.c, label)] and not verdicts[(EX.d, label)]
        stats = validator.signature_cache.stats()
        assert stats["hits"] >= 2 and stats["dedupes"] >= 2


class TestSignatureRule:
    """What a signature holds, and how long it is kept.

    A ``@label`` atom's bit is the object's typing bit for ``label``, read
    from the context's typing; every other bit is a context-free
    constraint verdict.  The typing-free part is a function of the
    subject's own arcs, so retraction drops only the retracted nodes'
    signatures.
    """

    def _schema(self):
        return Schema({"S": And(
            arc(PredicateSet.single(EX.p), datatype(XSD.integer)),
            Star(arc(PredicateSet.single(EX.r), shape_ref("S"))))})

    def _graph(self):
        graph = Graph()
        for node in (EX.closed, EX.twin, EX.refers, EX.loops, EX.literal_ref):
            graph.add(Triple(node, EX.p, Literal(1)))
        graph.add(Triple(EX.refers, EX.r, EX.closed))
        graph.add(Triple(EX.loops, EX.r, EX.loops))
        # the reference atom can consume the triple, so it gets a typing
        # bit: a literal never conforms to S
        graph.add(Triple(EX.literal_ref, EX.r, Literal("x")))
        return graph

    def test_reference_bits_are_read_from_the_typing(self):
        validator = Validator(self._graph(), self._schema())
        report = validator.validate_graph()
        context = validator._bulk_context()
        closed = context.node_signature(EX.closed)
        assert closed == ((EX.p.value, (True,)),)
        assert context.node_signature(EX.twin) == closed
        assert context.node_signature(EX.refers) == \
            ((EX.p.value, (True,)), (EX.r.value, (True,)))
        # the self-loop's bit is its own greatest-fixpoint verdict
        assert context.node_signature(EX.loops) == \
            context.node_signature(EX.refers)
        assert context.node_signature(EX.literal_ref) == \
            ((EX.p.value, (True,)), (EX.r.value, (False,)))
        verdicts = _verdicts(report)
        label = ShapeLabel("S")
        assert verdicts[(EX.refers, label)] and verdicts[(EX.loops, label)]
        assert not verdicts[(EX.literal_ref, label)]
        # equal typed signatures share one cached verdict
        assert validator.signature_cache.stats()["hits"] >= 2
        # asked for before any run, a signature solves the pairs it reads
        fresh = Validator(self._graph(), self._schema())._bulk_context()
        assert fresh.node_signature(EX.refers) == \
            context.node_signature(EX.refers)
        assert fresh.is_confirmed(EX.closed, label)

    def test_retraction_drops_only_the_retracted_signatures(self):
        validator = Validator(self._graph(), self._schema())
        validator.validate_graph()
        context = validator._bulk_context()
        memo = context._signatures
        assert {EX.closed, EX.twin, EX.refers} <= set(memo)
        context.retract_nodes({EX.closed})
        assert EX.closed not in memo
        assert EX.twin in memo and EX.refers in memo
        assert context.node_signature(EX.closed) == \
            context.node_signature(EX.twin)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
