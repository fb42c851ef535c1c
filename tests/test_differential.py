"""Differential oracle: production validation against the paper's reference.

Production solves the typing as a greatest fixpoint — references are read
from the current typing, a pair that fails re-queues only the pairs that
read it, and every matched pair goes through the typed-signature lane
(signature cache → prefilter → engine).  ``Validator(reference=True)`` keeps
the paper's recursive ``MatchShape`` descent under coinductive hypotheses.
For positive schemas both define the same typing, so hypothesis drives
generated cases through both and demands:

* full ``(node, label, conforms)`` equality of a whole-graph run;
* after every add/remove delta, a production ``revalidate`` equal to a
  fresh production run and to a fresh reference run.

The schemas have one to three labels whose ``@<L>`` arcs sit under ``?``,
``*``, ``+`` and ``{m,n}``, inside ``|`` and ``‖``; the graphs have
reference cycles, self-loops, blank nodes and literal objects.  Pairs the
reference marks ``limit_exceeded`` are compared on that flag only (the
reference gave up; production never does).  Each case runs under a
deadline.

A second generator builds chains and rings of 6–12 nodes linked by
``ex:p`` under a self-referencing shape, with deltas that touch the middle
of the chain.  An edit there flips the verdicts of referrers two or more
hops upstream, which is what a retraction closure cut short would miss.

A third generator builds one shape whose arcs repeat a predicate, the
case canonical ``‖`` and ``|`` exist for; there the derivative verdicts
are also checked against the backtracking engine.
"""

from __future__ import annotations

from datetime import timedelta

from hypothesis import given, settings, strategies as st

from repro.rdf import EX, XSD, BNode, Graph, Literal, Triple
from repro.shex import Schema, Validator
from repro.shex.expressions import (
    alternative,
    arc,
    interleave,
    optional,
    plus,
    repeat,
    star,
)
from repro.shex.node_constraints import datatype, shape_ref, value_set

PREDICATES = [EX.p, EX.q, EX.r]
SUBJECTS = [EX.a, EX.b, EX.c, BNode("x"), BNode("y")]
OBJECTS = SUBJECTS + [Literal(1), Literal("s")]
UNIVERSE = [Triple(subject, predicate, obj)
            for subject in SUBJECTS
            for predicate in PREDICATES
            for obj in OBJECTS]
LABEL_NAMES = ["L0", "L1", "L2"]

#: generous: a case takes milliseconds, the bound only catches a hang.
DEADLINE = timedelta(seconds=10)


def constraints(labels):
    return st.one_of(
        st.just(datatype(XSD.integer)),
        st.just(datatype(XSD.string)),
        st.just(value_set(1, "s")),
        st.sampled_from([shape_ref(label) for label in labels]),
        st.sampled_from([shape_ref(label) for label in labels]),
    )


def cardinalities():
    return st.one_of(
        st.just(lambda expr: expr),
        st.just(optional),
        st.just(star),
        st.just(plus),
        st.builds(lambda low, extra: lambda expr: repeat(expr, low, low + extra),
                  st.integers(0, 2), st.integers(0, 1)),
    )


def expressions(labels):
    leaf = st.builds(lambda predicate, constraint, card: card(arc(predicate, constraint)),
                     st.sampled_from(PREDICATES), constraints(labels),
                     cardinalities())
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.builds(interleave, children, children),
            st.builds(alternative, children, children),
            st.builds(lambda expr: star(expr), children),
        ),
        max_leaves=5,
    )


@st.composite
def schemas(draw):
    labels = LABEL_NAMES[:draw(st.integers(1, 3))]
    return Schema({label: draw(expressions(labels)) for label in labels})


def graphs():
    return st.lists(st.sampled_from(UNIVERSE), min_size=1, max_size=14).map(
        lambda triples: Graph(triples))


def deltas():
    return st.lists(
        st.lists(st.tuples(st.booleans(), st.sampled_from(UNIVERSE)),
                 min_size=1, max_size=3),
        min_size=1, max_size=4)


@st.composite
def chains(draw):
    """``(schema, graph, rounds)``: a chain or ring under ``<L0>``, edited in the middle.

    ``<L0>`` needs exactly one integer ``ex:q`` and references ``<L0>``
    through ``ex:p``, so a node conforms only while every node it reaches
    does.  Each delta adds or removes a node's ``ex:q`` value, a bad string
    value, or its ``ex:p`` link, on nodes at least two hops from the head.
    """
    size = draw(st.integers(6, 12))
    nodes = [EX[f"n{index}"] for index in range(size)]
    links = list(zip(nodes, nodes[1:]))
    if draw(st.booleans()):
        links.append((nodes[-1], nodes[0]))
    p_card = draw(st.sampled_from([optional, star]))
    schema = Schema({"L0": interleave(p_card(arc(EX.p, shape_ref("L0"))),
                                      arc(EX.q, datatype(XSD.integer)))})
    graph = Graph([Triple(subject, EX.p, obj) for subject, obj in links])
    broken = draw(st.sets(st.sampled_from(nodes), max_size=2))
    for node in nodes:
        if node not in broken:
            graph.add(Triple(node, EX.q, Literal(1)))
    middle = nodes[2:]
    edits = st.one_of(
        st.builds(lambda node: Triple(node, EX.q, Literal(1)), st.sampled_from(middle)),
        st.builds(lambda node: Triple(node, EX.q, Literal("s")), st.sampled_from(middle)),
        st.sampled_from([Triple(subject, EX.p, obj) for subject, obj in links
                         if subject in middle]),
    )
    rounds = draw(st.lists(st.lists(st.tuples(st.booleans(), edits),
                                    min_size=1, max_size=2),
                           min_size=1, max_size=4))
    return schema, graph, rounds


@st.composite
def repeated_predicate_cases(draw):
    """``(schema, graph)``: one shape whose arcs share one or two predicates.

    Two to four arcs on ``ex:p`` / ``ex:q`` (``@<L0>`` among their
    constraints), each under a cardinality, interleaved; subjects carry a
    few arcs of those predicates.  Such shapes are where operand order and
    multiplicity matter: the residuals of repeated predicates.
    """
    repeated = PREDICATES[:2]
    items = draw(st.lists(
        st.builds(lambda predicate, constraint, card: card(arc(predicate, constraint)),
                  st.sampled_from(repeated), constraints(["L0"]), cardinalities()),
        min_size=2, max_size=4))
    subjects = SUBJECTS[:3]
    objects = subjects + [Literal(1), Literal(2), Literal("s")]
    triples = draw(st.lists(
        st.builds(Triple, st.sampled_from(subjects), st.sampled_from(repeated),
                  st.sampled_from(objects)),
        min_size=1, max_size=8))
    return Schema({"L0": interleave(*items)}), Graph(triples)


def verdicts(report):
    """``(node, label) → conforms``; the reference's budget cut-offs become ``None``."""
    return {(entry.node, str(entry.label)):
            None if entry.limit_exceeded else entry.conforms
            for entry in report}


def agree(production, reference):
    """Equal pairs; a pair the reference cut off is compared on the flag only."""
    assert production.keys() == reference.keys()
    assert None not in production.values()
    for pair, expected in reference.items():
        if expected is not None:
            assert production[pair] == expected, pair


class TestProductionAgreesWithTheReference:
    @settings(max_examples=150, deadline=DEADLINE)
    @given(schemas(), graphs())
    def test_whole_graph_runs_agree(self, schema, graph):
        production = verdicts(Validator(graph, schema).validate_graph())
        reference = verdicts(Validator(graph, schema,
                                       reference=True).validate_graph())
        agree(production, reference)

    @settings(max_examples=60, deadline=DEADLINE)
    @given(schemas(), graphs(), deltas())
    def test_revalidate_after_every_delta_equals_a_fresh_run(
            self, schema, graph, rounds):
        revalidate_rounds(schema, graph, rounds)

    @settings(max_examples=60, deadline=DEADLINE)
    @given(chains())
    def test_revalidate_mid_chain_edits_equals_a_fresh_run(self, case):
        revalidate_rounds(*case)


class TestRepeatedPredicates:
    @settings(max_examples=100, deadline=DEADLINE)
    @given(repeated_predicate_cases())
    def test_derivatives_agree_with_the_reference_and_backtracking(self, case):
        """Production, the reference and the backtracking engine (which
        keeps the paper's binary ``And`` rule) give the same verdicts."""
        schema, graph = case
        production = verdicts(Validator(graph, schema).validate_graph())
        agree(production, verdicts(Validator(graph, schema,
                                              reference=True).validate_graph()))
        assert verdicts(Validator(graph, schema, engine="backtracking")
                        .validate_graph()) == production


def revalidate_rounds(schema, graph, rounds):
    """Apply each round of ``(add, triple)`` edits, revalidating after each.

    The maintained report must equal a fresh production run and agree with
    a fresh reference run on the edited graph.
    """
    validator = Validator(graph, schema)
    validator.validate_graph()
    for changes in rounds:
        for add, triple in changes:
            if add:
                graph.add(triple)
            else:
                graph.discard(triple)
        validator.revalidate()
        maintained = verdicts(validator.maintained_report())
        snapshot = graph.copy()
        assert maintained == verdicts(
            Validator(snapshot, schema).validate_graph())
        agree(maintained, verdicts(
            Validator(snapshot, schema, reference=True).validate_graph()))
