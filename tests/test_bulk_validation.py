"""Bulk validation: soundness regressions and the shared-context fast path.

The regression tests pin down three bugs the bulk subsystem fixed (each of
them fails against the seed implementation):

* a coinductive success recorded while its hypothesis was still in progress
  used to be cached as definitive, flipping verdicts on cyclic data when the
  context was reused;
* failures derived while in-progress hypotheses were consulted were cached
  unconditionally;
* hitting the recursion-depth budget was cached like a semantic failure, so
  a node that merely exhausted the budget stayed non-conforming forever.

The property-style tests check that the production bulk path (shared
context, global derivative cache, hash-consed expressions) agrees with the
``reference=True`` fresh-context-per-node semantics, with the backtracking
engine, and with the workload generators' ground truth — including cyclic
graphs and shape references to literal objects.
"""

import pytest

from repro.rdf import EX, FOAF, Graph, Literal, Triple
from repro.shex import (
    BacktrackingEngine,
    DerivativeCache,
    DerivativeEngine,
    Schema,
    ShapeLabel,
    ShapeTyping,
    Validator,
    arc,
    datatype,
    shape_ref,
    star,
)
from repro.rdf.namespaces import XSD
from repro.shex.reference import MAX_RECURSION_DEPTH, ReferenceContext
from repro.workloads import (
    generate_kb_workload,
    generate_person_workload,
    knows_chain_graph,
    knows_cycle_graph,
    person_schema,
)

PERSON = ShapeLabel("Person")


def make_context(graph, schema, **kwargs) -> ReferenceContext:
    engine = DerivativeEngine()
    return ReferenceContext(graph, schema, engine.match_neighbourhood, **kwargs)


def cycle_with_invalid_member() -> Graph:
    """``a ↔ b`` knows-cycle where ``a`` is broken and ``b`` is otherwise fine.

    ``a`` is missing its mandatory ``foaf:name`` — a failure the derivative
    engine only discovers *after* consuming the ``knows`` arc (predicates are
    consumed in sorted order and ``age < knows < name``), so the coinductive
    reference to ``b`` has already been consulted when ``a`` fails.
    """
    graph = Graph()
    graph.add(Triple(EX.a, FOAF.age, Literal(40)))
    graph.add(Triple(EX.a, FOAF.knows, EX.b))  # no foaf:name → a fails
    graph.add(Triple(EX.b, FOAF.age, Literal(30)))
    graph.add(Triple(EX.b, FOAF.name, Literal("B")))
    graph.add(Triple(EX.b, FOAF.knows, EX.a))
    return graph


class TestHypothesisDependentCaching:
    """Satellite 1: verdicts derived under in-progress hypotheses are provisional."""

    def test_stale_coinductive_success_does_not_flip_a_later_verdict(self):
        # Validating `a` first hypothesises a→Person and (coinductively)
        # accepts `b` under that hypothesis; `a` then fails on its missing
        # name.  The seed cached b→Person as definitive, so querying `b` in
        # the same context wrongly conformed.  `b` does not conform: its
        # knows-arc points at a non-Person, and the shape is closed.
        context = make_context(cycle_with_invalid_member(), person_schema())
        assert not context.check_reference(EX.a, PERSON).matched
        assert not context.check_reference(EX.b, PERSON).matched
        assert not context.is_confirmed(EX.b, PERSON)

    def test_hypothesis_dependent_failure_is_not_cached(self):
        # `x` (no name) fails while the hypothesis y→Person is active — the
        # knows-arc consulted it before the missing name was discovered.  The
        # failure is correct here, but it rests on an assumption that is
        # retracted afterwards, so it must not be cached as definitive.
        graph = Graph()
        graph.add(Triple(EX.x, FOAF.age, Literal(30)))
        graph.add(Triple(EX.x, FOAF.knows, EX.y))  # no foaf:name → fails
        graph.add(Triple(EX.y, FOAF.age, Literal(30)))
        graph.add(Triple(EX.y, FOAF.name, Literal("Y")))
        graph.add(Triple(EX.y, FOAF.knows, EX.x))
        context = make_context(graph, person_schema())
        assert not context.check_reference(EX.y, PERSON).matched
        assert not context.is_failed(EX.x, PERSON)
        # a direct query settles it definitively
        assert not context.check_reference(EX.x, PERSON).matched
        assert context.is_failed(EX.x, PERSON)

    def test_valid_cycle_still_confirms_every_member(self):
        # the provisional machinery must not lose sound coinductive
        # confirmations: once the outermost frame of the cycle settles
        # successfully, every member is promoted.
        graph, head = knows_cycle_graph(4)
        context = make_context(graph, person_schema())
        result = context.check_reference(head, PERSON)
        assert result.matched
        for index in range(4):
            assert context.is_confirmed(EX[f"cycle{index}"], PERSON)

    def test_refuted_intermediate_hypothesis_drops_its_dependents(self):
        # A provisional success can rest on SEVERAL in-progress hypotheses at
        # once.  Here e→E succeeds while both o→O (outer) and m→M
        # (intermediate) are hypothesised; m→M is then refuted (no `t` arc)
        # but o→O settles successfully via its other Or-branch.  e→E must be
        # dropped with its refuted dependency, not promoted with the
        # surviving one.
        from repro.shex import alternative, interleave, shape_ref

        schema = Schema({
            "O": alternative(arc(EX.p, shape_ref("M")), arc(EX.p)),
            "M": interleave(arc(EX.q, shape_ref("E")), arc(EX.t)),
            "E": interleave(arc(EX.r, shape_ref("O")), arc(EX.s, shape_ref("M"))),
        })
        graph = Graph()
        graph.add(Triple(EX.o, EX.p, EX.m))
        graph.add(Triple(EX.m, EX.q, EX.e))
        graph.add(Triple(EX.e, EX.r, EX.o))
        graph.add(Triple(EX.e, EX.s, EX.m))
        expected = None
        for reference in (True, False):
            validator = Validator(graph, schema, reference=reference)
            report = validator.validate_graph(["O", "E"])
            verdicts = {(entry.node, str(entry.label)): entry.conforms
                        for entry in report}
            if expected is None:
                expected = verdicts
            assert verdicts == expected, f"reference={reference}"
            assert not verdicts[(EX.e, "E")]

    def test_production_bulk_run_is_order_independent_on_cycles(self):
        graph = cycle_with_invalid_member()
        for reference in (False, True):
            validator = Validator(graph, person_schema(), reference=reference)
            report = validator.validate_graph()
            verdicts = {entry.node: entry.conforms for entry in report}
            assert verdicts == {EX.a: False, EX.b: False}, \
                f"reference={reference}"


class TestStatsAliasing:
    """Each run records its work once, in its own ``report.stats``."""

    def test_entries_do_not_share_stats_objects(self):
        """Entries carry no stats; each run's report has its own record."""
        from repro.workloads import paper_example_graph

        for reference in (False, True):
            validator = Validator(paper_example_graph(), person_schema(),
                                  reference=reference)
            first = validator.validate_graph()
            frozen = first.stats.as_dict()
            second = validator.validate_graph()
            assert first.stats is not second.stats
            assert first.stats.as_dict() == frozen
            assert not hasattr(first.entries[0], "stats")

    def test_total_stats_equals_the_sum_of_entries(self, monkeypatch):
        """A run's record is the sum of every match and reference check."""
        from repro.shex.schema import FixpointContext
        from repro.workloads import paper_example_graph

        for reference in (False, True):
            validator = Validator(paper_example_graph(), person_schema(),
                                  reference=reference)
            steps, reads = [], []
            match = validator.engine.match_neighbourhood

            def counting_match(expr, triples, context=None):
                result = match(expr, triples, context)
                steps.append(result.stats.derivative_steps)
                return result

            context_class = ReferenceContext if reference else FixpointContext
            check = context_class.check_reference

            def counting_check(context, node, label):
                reads.append((node, label))
                return check(context, node, label)

            monkeypatch.setattr(validator.engine, "match_neighbourhood",
                                counting_match)
            monkeypatch.setattr(context_class, "check_reference", counting_check)
            report = validator.validate_graph()
            monkeypatch.undo()
            assert steps and report.stats.derivative_steps == sum(steps)
            # the reference checks every pair through check_reference;
            # production counts each requested pair once, plus every read
            requested = 0 if reference else len(report)
            assert report.stats.reference_checks == requested + len(reads)

    def test_merge_still_mutates_but_combined_is_pure(self):
        from repro.shex import MatchStats

        left = MatchStats(derivative_steps=2)
        right = MatchStats(derivative_steps=3)
        combined = left.combined(right)
        assert combined.derivative_steps == 5
        assert left.derivative_steps == 2 and right.derivative_steps == 3
        assert combined is not left and combined is not right


class TestDepthBudget:
    """Satellite 3: budget exhaustion is non-cacheable and distinguishable."""

    def test_budget_failure_is_flagged(self):
        graph, head = knows_chain_graph(10)
        context = make_context(graph, person_schema(), max_recursion_depth=3)
        result = context.check_reference(head, PERSON)
        assert not result.matched
        assert result.limit_exceeded

    def test_budget_failure_is_not_cached(self):
        # chain p0→…→p4 with budget 3: validating the head exhausts the
        # budget, but p2 is only three hops from the end — a direct query
        # must succeed.  The seed cached the budget failure and flipped it.
        graph, head = knows_chain_graph(4)
        context = make_context(graph, person_schema(), max_recursion_depth=3)
        assert not context.check_reference(head, PERSON).matched
        assert not context.is_failed(EX.chain2, PERSON)
        retry = context.check_reference(EX.chain2, PERSON)
        assert retry.matched
        assert not retry.limit_exceeded

    def test_semantic_failures_are_not_flagged(self):
        context = make_context(cycle_with_invalid_member(), person_schema())
        result = context.check_reference(EX.a, PERSON)
        assert not result.matched
        assert not result.limit_exceeded

    def test_validator_surfaces_the_flag(self):
        # the budget bounds the reference's descent; production never
        # recurses (tests/test_recursion_budget.py)
        graph, head = knows_chain_graph(MAX_RECURSION_DEPTH + 10)
        validator = Validator(graph, person_schema(), reference=True)
        entry = validator.validate_node(head, "Person")
        assert not entry.conforms
        assert entry.limit_exceeded


class TestHashConsing:
    """Tentpole: structurally-equal expressions are pointer-equal."""

    def test_interning_makes_equal_expressions_identical(self):
        first = star(arc(EX.p, datatype(XSD.string))) & arc(EX.q)
        second = star(arc(EX.p, datatype(XSD.string))) & arc(EX.q)
        assert first is second

    def test_interning_survives_distinct_schemas(self):
        a = person_schema().expression("Person")
        b = person_schema().expression("Person")
        assert a is b


class TestDerivativeCache:
    """Tentpole: the global cross-node derivative cache."""

    def test_cache_is_shared_across_nodes_and_runs(self):
        cache = DerivativeCache()
        workload = generate_person_workload(num_people=15, seed=3)
        validator = Validator(workload.graph, workload.schema,
                              engine=DerivativeEngine(cache=cache))
        validator.validate_graph()
        first_entries = len(cache)
        assert cache.hits > 0
        # a second run over a *different* graph with the same schema reuses
        # the derivative entries outright
        other = generate_person_workload(num_people=15, seed=4)
        Validator(other.graph, other.schema,
                  engine=DerivativeEngine(cache=cache)).validate_graph()
        assert len(cache) == first_entries

    def test_cached_engine_verdicts_match_uncached(self):
        workload = generate_person_workload(num_people=25, seed=5)
        plain = Validator(workload.graph, workload.schema, reference=True)
        cached = Validator(workload.graph, workload.schema)
        assert cached.engine.cache is not None and plain.engine.cache is None
        plain_verdicts = {(e.node, e.conforms) for e in plain.validate_graph()}
        cached_verdicts = {(e.node, e.conforms) for e in cached.validate_graph()}
        assert plain_verdicts == cached_verdicts


class TestBulkAgreement:
    """Property-style: all engines and paths agree over the bulk API."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bulk_matches_ground_truth_and_per_node(self, seed):
        workload = generate_person_workload(num_people=20, invalid_fraction=0.3,
                                            seed=seed)
        valid = set(workload.valid_nodes)
        bulk = Validator(workload.graph, workload.schema)
        per_node = Validator(workload.graph, workload.schema, reference=True)
        bulk_verdicts = {e.node: e.conforms for e in bulk.validate_graph()}
        per_node_verdicts = {e.node: e.conforms for e in per_node.validate_graph()}
        assert bulk_verdicts == per_node_verdicts
        for node in workload.all_nodes:
            assert bulk_verdicts[node] == (node in valid), node

    @pytest.mark.parametrize("seed", [0, 1])
    def test_derivatives_and_backtracking_agree_on_the_bulk_path(self, seed):
        workload = generate_person_workload(num_people=10, invalid_fraction=0.3,
                                            knows_probability=0.2, seed=seed)
        derivative = Validator(workload.graph, workload.schema)
        backtracking = Validator(workload.graph, workload.schema,
                                 engine=BacktrackingEngine(budget=5_000_000))
        d = {e.node: e.conforms for e in derivative.validate_graph()}
        b = {e.node: e.conforms for e in backtracking.validate_graph()}
        assert d == b

    def test_derivatives_and_backtracking_agree_at_the_default_knows_density(self):
        workload = generate_person_workload(num_people=20, invalid_fraction=0.2,
                                            seed=1)
        derivative = Validator(workload.graph, workload.schema)
        backtracking = Validator(workload.graph, workload.schema,
                                 engine=BacktrackingEngine(budget=5_000_000))
        d = {e.node: e.conforms for e in derivative.validate_graph()}
        b = {e.node: e.conforms for e in backtracking.validate_graph()}
        assert d == b

    def test_every_profile_timer_runs(self):
        # a kb pass goes through the signature, prefilter, dispatch and
        # derivative-cache phases; only the backtracking engine backtracks
        kb = generate_kb_workload(num_entities=120, num_hubs=4, seed=11)
        stats = Validator(kb.graph, kb.schema).validate_graph().stats
        people = generate_person_workload(num_people=12, invalid_fraction=0.25,
                                          knows_probability=0.2, seed=11)
        stats.merge(Validator(people.graph, people.schema,
                              engine=BacktrackingEngine()).validate_graph().stats)
        for timer in ("signature_time", "prefilter_time", "dispatch_time",
                      "backtrack_time", "cache_time"):
            assert getattr(stats, timer) > 0, timer

    def test_engines_agree_on_cyclic_graphs_in_production(self):
        graph, _ = knows_cycle_graph(5)
        for engine in (DerivativeEngine(cache=True),
                       BacktrackingEngine(budget=5_000_000)):
            validator = Validator(graph, person_schema(), engine=engine)
            report = validator.validate_graph()
            assert all(entry.conforms for entry in report), engine.name

    def test_literal_object_shape_references(self):
        # `@<Tag>` references whose objects are literals: a literal has an
        # empty neighbourhood, so it conforms exactly to nullable shapes.
        schema = Schema({
            "Tagged": star(arc(EX.tag, shape_ref("Tag"))) & arc(EX.id),
            "Tag": star(arc(EX.anything)),
        }, start="Tagged")
        graph = Graph()
        graph.add(Triple(EX.item, EX.id, Literal(1)))
        graph.add(Triple(EX.item, EX.tag, Literal("news")))
        graph.add(Triple(EX.item, EX.tag, Literal("sports")))
        for engine in (DerivativeEngine(cache=True),
                       BacktrackingEngine(budget=1_000_000)):
            validator = Validator(graph, schema, engine=engine)
            assert validator.validate_node(EX.item, "Tagged").conforms, engine.name

    def test_infer_typing_shared_equals_fresh(self):
        workload = generate_person_workload(num_people=15, seed=7)
        shared = Validator(workload.graph, workload.schema).infer_typing()
        fresh = Validator(workload.graph, workload.schema,
                          reference=True).infer_typing()
        assert shared == fresh


class TestBulkOperationsShareThePairLoop:
    """``validate_map``, ``infer_typing`` and ``conforming_nodes`` run the
    same signature-first pair loop as ``validate_graph``."""

    SCHEMA = """
    PREFIX foaf: <http://xmlns.com/foaf/0.1/>
    PREFIX xsd:  <http://www.w3.org/2001/XMLSchema#>
    <Person> { foaf:age xsd:integer , foaf:name xsd:string + , foaf:knows IRI * }
    <Named> { foaf:name xsd:string + }
    """

    def _setup(self):
        workload = generate_person_workload(num_people=30, seed=4)
        schema = Schema.from_shexc(self.SCHEMA)
        truth = Validator(workload.graph, schema).validate_graph()
        verdicts = {(entry.node, entry.label): entry.conforms for entry in truth}
        return workload.graph, schema, verdicts

    def test_validate_map(self):
        graph, schema, verdicts = self._setup()
        validator = Validator(graph, schema)
        report = validator.validate_map({node: PERSON for node, label in verdicts
                                         if label == PERSON})
        assert {(entry.node, entry.label): entry.conforms for entry in report} \
            == {pair: conforms for pair, conforms in verdicts.items()
                if pair[1] == PERSON}
        assert report.typing == ShapeTyping.from_pairs(
            pair for pair, ok in verdicts.items() if ok and pair[1] == PERSON)
        assert report.stats.signature_hits > 0

    def test_infer_typing(self):
        graph, schema, verdicts = self._setup()
        validator = Validator(graph, schema)
        typing = validator.infer_typing()
        assert typing == ShapeTyping.from_pairs(
            pair for pair, ok in verdicts.items() if ok)
        assert validator._bulk_context().stats.signature_hits > 0

    def test_conforming_nodes(self):
        graph, schema, verdicts = self._setup()
        validator = Validator(graph, schema)
        nodes = validator.conforming_nodes("Person")
        assert set(nodes) == {node for (node, label), ok in verdicts.items()
                              if ok and label == PERSON}
        assert validator._bulk_context().stats.signature_hits > 0


class TestGraphNeighbourhoodCache:
    def test_neighbourhood_ordered_is_cached_and_sorted(self):
        graph = Graph()
        graph.add(Triple(EX.n, EX.b, Literal(2)))
        graph.add(Triple(EX.n, EX.a, Literal(1)))
        first = graph.neighbourhood_ordered(EX.n)
        assert [t.predicate for t in first] == [EX.a, EX.b]
        assert graph.neighbourhood_ordered(EX.n) is first

    def test_mutation_invalidates_the_cache(self):
        graph = Graph()
        graph.add(Triple(EX.n, EX.a, Literal(1)))
        assert len(graph.neighbourhood(EX.n)) == 1
        graph.add(Triple(EX.n, EX.b, Literal(2)))
        assert len(graph.neighbourhood(EX.n)) == 2
        assert len(graph.neighbourhood_ordered(EX.n)) == 2
        graph.discard(Triple(EX.n, EX.a, Literal(1)))
        assert len(graph.neighbourhood(EX.n)) == 1

    def test_graph_mutation_invalidates_the_production_context(self):
        graph = Graph()
        graph.add(Triple(EX.solo, FOAF.age, Literal(30)))
        graph.add(Triple(EX.solo, FOAF.name, Literal("Solo")))
        validator = Validator(graph, person_schema())
        assert validator.validate_graph().entry_for(EX.solo).conforms
        graph.add(Triple(EX.solo, FOAF.age, Literal(31)))  # now two ages → invalid
        assert not validator.validate_graph().entry_for(EX.solo).conforms

    def test_inputs_are_bound_at_construction(self):
        graph = Graph()
        graph.add(Triple(EX.n, EX.p, Literal(1)))
        lenient = Schema({"S": star(arc(EX.p))}, start="S")
        strict = Schema({"S": arc(EX.q)}, start="S")
        validator = Validator(graph, lenient)
        assert validator.validate_graph().entry_for(EX.n).conforms
        for name, value in (("graph", Graph()), ("schema", strict),
                            ("engine", DerivativeEngine())):
            with pytest.raises(AttributeError):
                setattr(validator, name, value)
        assert validator.graph is graph and validator.schema is lenient
        assert validator.validate_graph().entry_for(EX.n).conforms
        # another schema takes another validator
        assert not Validator(graph, strict).validate_graph() \
            .entry_for(EX.n).conforms

    def test_unordered_engine_is_not_handed_presorted_neighbourhoods(self):
        graph = Graph()
        graph.add(Triple(EX.n, EX.p, Literal(1)))
        ordered = DerivativeEngine(order_by_predicate=True)
        unordered = DerivativeEngine(order_by_predicate=False)
        ctx_ordered = ReferenceContext(graph, person_schema(),
                                       ordered.match_neighbourhood)
        ctx_unordered = ReferenceContext(graph, person_schema(),
                                         unordered.match_neighbourhood)
        assert ctx_ordered._ordered_neighbourhoods
        assert not ctx_unordered._ordered_neighbourhoods
