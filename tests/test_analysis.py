"""Tests for the static analysis of expressions and schemas."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import EX, FOAF, Literal, Triple
from repro.shex import (
    EMPTY,
    EPSILON,
    AnyValue,
    Arc,
    PredicateSet,
    Schema,
    ShapeLabel,
    ShapeRef,
    arc,
    interleave,
    interleave_all,
    matches,
    optional,
    plus,
    repeat,
    star,
    value_set,
)
from repro.shex.analysis import (
    analyze_schema,
    cardinality_bounds,
    is_deterministic,
    is_empty,
    is_single_occurrence,
    is_universal,
    predicate_occurrences,
    recursive_labels,
    schema_dependency_graph,
    stratify_schema,
)
from repro.workloads import person_schema, portal_schema


def reference(predicate, label):
    return Arc(PredicateSet.single(predicate), ShapeRef(ShapeLabel(label)))


class TestEmptiness:
    def test_empty_expression(self):
        assert is_empty(EMPTY)
        assert not is_empty(EPSILON)
        assert not is_empty(arc(EX.p))

    def test_interleave_with_empty_is_empty(self):
        assert is_empty(interleave(arc(EX.p), EMPTY, simplify=False))

    def test_alternative_is_empty_only_if_both_are(self):
        from repro.shex.expressions import Or

        assert not is_empty(Or(EMPTY, arc(EX.p)))
        assert is_empty(Or(EMPTY, EMPTY))

    def test_star_is_never_empty(self):
        assert not is_empty(star(arc(EX.p)))

    def test_universal_accepts_only_empty_neighbourhood(self):
        assert is_universal(EPSILON)
        assert not is_universal(arc(EX.p))
        assert not is_universal(optional(arc(EX.p)))
        assert is_universal(star(EPSILON))
        from repro.shex.expressions import Or

        assert is_universal(Or(EMPTY, EPSILON))


class TestSingleOccurrence:
    def test_person_schema_is_single_occurrence(self):
        for _, expr in person_schema().items():
            assert is_single_occurrence(expr)

    def test_duplicate_predicate_with_different_constraints(self):
        expr = interleave(arc(EX.p, value_set(1)), arc(EX.p, value_set(2)))
        assert not is_single_occurrence(expr)

    def test_plus_expansion_still_counts_once(self):
        # E+ duplicates the arc syntactically but with an identical constraint
        assert is_single_occurrence(plus(arc(EX.p, value_set(1))))

    def test_wildcard_predicates_are_not_single_occurrence(self):
        expr = Arc(PredicateSet(any_predicate=True), value_set(1))
        assert not is_single_occurrence(expr)

    def test_occurrence_counter(self):
        expr = interleave_all(arc(EX.a, value_set(1)), arc(EX.b, value_set(1)),
                              arc(EX.a, value_set(2)))
        occurrences = predicate_occurrences(expr)
        assert occurrences[EX.a] == 2
        assert occurrences[EX.b] == 1


class TestDeterminism:
    def test_distinct_predicates_are_deterministic(self):
        expr = interleave(arc(EX.a, value_set(1)), arc(EX.b, value_set(1)))
        assert is_deterministic(expr)

    def test_same_predicate_different_constraints_is_not(self):
        expr = interleave(arc(EX.a, value_set(1)), arc(EX.a, value_set(2)))
        assert not is_deterministic(expr)

    def test_wildcard_overlaps_everything(self):
        expr = interleave(arc(EX.a, value_set(1)),
                          Arc(PredicateSet(any_predicate=True), value_set(1)))
        assert not is_deterministic(expr)

    def test_stem_overlap(self):
        stem_arc = Arc(PredicateSet(stem="http://example.org/"), value_set(1))
        expr = interleave(arc(EX.a, value_set(2)), stem_arc)
        assert not is_deterministic(expr)
        foreign = Arc(PredicateSet(stem="http://other.org/"), value_set(1))
        assert is_deterministic(interleave(arc(EX.a, value_set(2)), foreign))

    def test_identical_arcs_do_not_break_determinism(self):
        assert is_deterministic(plus(arc(EX.a, value_set(1))))


class TestCardinalityBounds:
    def test_single_arc(self):
        bounds = cardinality_bounds(arc(EX.p, value_set(1)))
        assert (bounds[EX.p].minimum, bounds[EX.p].maximum) == (1, 1)

    def test_star_plus_optional(self):
        expr = interleave_all(
            star(arc(EX.a)), plus(arc(EX.b)), optional(arc(EX.c)),
        )
        bounds = cardinality_bounds(expr)
        assert (bounds[EX.a].minimum, bounds[EX.a].maximum) == (0, None)
        assert (bounds[EX.b].minimum, bounds[EX.b].maximum) == (1, None)
        assert (bounds[EX.c].minimum, bounds[EX.c].maximum) == (0, 1)

    def test_repeat_range(self):
        bounds = cardinality_bounds(repeat(arc(EX.p, value_set(1, 2, 3, 4)), 2, 4))
        assert (bounds[EX.p].minimum, bounds[EX.p].maximum) == (2, 4)

    def test_alternative_takes_min_and_max(self):
        expr = plus(arc(EX.p)) | arc(EX.p)
        bounds = cardinality_bounds(expr)
        assert (bounds[EX.p].minimum, bounds[EX.p].maximum) == (1, None)

    def test_person_schema_bounds(self):
        bounds = cardinality_bounds(person_schema().expression("Person"))
        assert (bounds[FOAF.age].minimum, bounds[FOAF.age].maximum) == (1, 1)
        assert (bounds[FOAF.name].minimum, bounds[FOAF.name].maximum) == (1, None)
        assert (bounds[FOAF.knows].minimum, bounds[FOAF.knows].maximum) == (0, None)

    def test_render(self):
        bounds = cardinality_bounds(plus(arc(EX.p)))
        assert bounds[EX.p].render() == "{1,∞}"

    def test_multi_predicate_arc_guarantees_neither_predicate(self):
        # {p q} → . consumes one triple whose predicate is p or q
        expr = Arc(PredicateSet([EX.p, EX.q]), AnyValue())
        bounds = cardinality_bounds(expr)
        assert (bounds[EX.p].minimum, bounds[EX.p].maximum) == (0, 1)
        assert (bounds[EX.q].minimum, bounds[EX.q].maximum) == (0, 1)
        assert matches(expr, [Triple(EX.n, EX.p, Literal(1))])

    def test_stem_arc_lifts_the_maximum_of_the_predicates_it_covers(self):
        # p . ; <http://example.org/>~ . * : the stem absorbs extra p triples
        expr = interleave(arc(EX.p, AnyValue()),
                          star(Arc(PredicateSet(stem=EX.base), AnyValue())))
        bounds = cardinality_bounds(expr)
        assert (bounds[EX.p].minimum, bounds[EX.p].maximum) == (1, None)
        assert matches(expr, [Triple(EX.n, EX.p, Literal(index))
                              for index in range(3)])


class TestSchemaStructure:
    def test_dependency_graph_of_portal_schema(self):
        graph = schema_dependency_graph(portal_schema())
        assert ShapeLabel("Publisher") in graph[ShapeLabel("Dataset")]
        assert ShapeLabel("Distribution") in graph[ShapeLabel("Dataset")]
        assert ShapeLabel("Dataset") not in graph[ShapeLabel("Publisher")]

    def test_recursive_labels(self):
        assert recursive_labels(person_schema()) == {ShapeLabel("Person")}
        assert recursive_labels(portal_schema()) == frozenset()

    def test_mutual_recursion(self):
        schema = Schema({
            "A": reference(EX.toB, "B"),
            "B": reference(EX.toA, "A"),
            "C": arc(EX.leaf),
        })
        assert recursive_labels(schema) == {ShapeLabel("A"), ShapeLabel("B")}

    def test_stratification_orders_dependencies_first(self):
        strata = stratify_schema(portal_schema())
        flat = [label for stratum in strata for label in stratum]
        assert flat.index(ShapeLabel("Publisher")) < flat.index(ShapeLabel("Dataset"))
        assert flat.index(ShapeLabel("Distribution")) < flat.index(ShapeLabel("Dataset"))

    def test_stratification_groups_cycles_together(self):
        schema = Schema({
            "A": reference(EX.toB, "B"),
            "B": reference(EX.toA, "A"),
        })
        strata = stratify_schema(schema)
        assert len(strata) == 1
        assert set(strata[0]) == {ShapeLabel("A"), ShapeLabel("B")}


@st.composite
def label_graphs(draw):
    """A random directed graph over 1–8 shape labels, self-loops included."""
    count = draw(st.integers(min_value=1, max_value=8))
    labels = [f"L{index}" for index in range(count)]
    edges = draw(st.sets(st.tuples(st.sampled_from(labels), st.sampled_from(labels)),
                         max_size=count * 3))
    return labels, edges


def schema_of(labels, edges):
    shapes = {}
    for label in labels:
        arcs = [reference(EX[f"to{target}"], target)
                for source, target in sorted(edges) if source == label]
        shapes[label] = interleave_all(*arcs) if arcs else arc(EX.leaf)
    return Schema(shapes)


def reaches(edges, source):
    """Labels reachable from ``source`` by one or more edges."""
    seen, frontier = set(), [source]
    while frontier:
        current = frontier.pop()
        for start, target in edges:
            if start == current and target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


class TestStructureProperties:
    """The stdlib SCC against a brute-force reachability oracle."""

    @given(label_graphs())
    @settings(max_examples=200, deadline=None)
    def test_recursive_labels_are_the_labels_that_reach_themselves(self, graph):
        labels, edges = graph
        expected = {ShapeLabel(label) for label in labels if label in reaches(edges, label)}
        assert recursive_labels(schema_of(labels, edges)) == expected

    @given(label_graphs())
    @settings(max_examples=200, deadline=None)
    def test_strata_are_the_sccs_in_dependency_order(self, graph):
        labels, edges = graph
        strata = stratify_schema(schema_of(labels, edges))
        flat = [label for stratum in strata for label in stratum]
        assert sorted(flat) == sorted(ShapeLabel(label) for label in labels)
        position = {label: index for index, stratum in enumerate(strata)
                    for label in stratum}
        for stratum in strata:
            for member in stratum:
                mutual = {other for other in labels
                          if other == str(member)
                          or (other in reaches(edges, str(member))
                              and str(member) in reaches(edges, other))}
                assert {str(label) for label in stratum} == mutual
        for source, target in edges:
            assert position[ShapeLabel(target)] <= position[ShapeLabel(source)]


class TestSchemaReport:
    def test_person_schema_report(self):
        report = analyze_schema(person_schema())
        assert report.shape_count == 1
        assert report.recursive == {ShapeLabel("Person")}
        assert report.is_sorbe
        assert not report.empty_shapes
        assert "Person" in report.summary()

    def test_portal_schema_report(self):
        report = analyze_schema(portal_schema())
        assert report.shape_count == 3
        assert not report.recursive
        assert report.is_sorbe
        assert len(report.strata) == 3

    def test_non_sorbe_schema(self):
        schema = Schema.single(
            "S", interleave(arc(EX.p, value_set(1)), arc(EX.p, value_set(2))))
        report = analyze_schema(schema)
        assert not report.is_sorbe
        assert not report.deterministic[ShapeLabel("S")]
