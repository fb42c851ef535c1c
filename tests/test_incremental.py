"""Incremental revalidation: journal, batching, retraction, revalidate.

The subsystem spans every layer — the graph's bounded change journal and
batch coalescing, the reverse reference-reachability closure, the context's
retraction protocol and the validator's ``revalidate`` — so this module
tests each layer in isolation
and then the end-to-end contract: *revalidate verdicts equal a fresh full
run* on every mutation pattern.
"""

from __future__ import annotations

import pytest

from repro.rdf import (
    EX,
    FOAF,
    ChangeJournal,
    Graph,
    GraphError,
    Literal,
    Triple,
    XSD,
)
from repro.shex import (
    Arc,
    PredicateSet,
    Schema,
    ShapeRef,
    Validator,
    arc,
    interleave_all,
    star,
)
from repro.shex.partition import ReferenceIndex, affected_nodes
from repro.shex.schema import SchemaError
from repro.shex.typing import ShapeLabel
from repro.workloads import (
    generate_community_workload,
    generate_person_workload,
    person_schema,
)


def _verdicts(report):
    return {(entry.node, str(entry.label)): entry.conforms for entry in report}


def _triples(*specs):
    return [Triple(*spec) for spec in specs]


# --------------------------------------------------------------------- journal
class TestChangeJournal:
    def test_records_and_answers_changes_since(self):
        journal = ChangeJournal()
        journal.record(EX.a, 1)
        journal.record(EX.b, 2)
        assert journal.changes_since(0) == {EX.a, EX.b}
        assert journal.changes_since(1) == {EX.b}
        assert journal.changes_since(2) == frozenset()

    def test_re_dirtying_updates_the_epoch(self):
        journal = ChangeJournal()
        journal.record(EX.a, 1)
        journal.record(EX.a, 5)
        assert journal.changes_since(4) == {EX.a}

    def test_overflow_answers_none_for_older_generations(self):
        journal = ChangeJournal(max_entries=2)
        journal.record(EX.a, 1)
        journal.record(EX.b, 2)
        journal.record(EX.c, 3)  # overflows: three distinct subjects
        assert journal.overflows == 1
        assert journal.changes_since(0) is None
        assert journal.changes_since(2) is None
        # generations from the overflow on are answerable again
        journal.record(EX.d, 4)
        assert journal.changes_since(3) == {EX.d}

    def test_rejects_a_zero_bound(self):
        with pytest.raises(ValueError):
            ChangeJournal(max_entries=0)

    def test_stats_counters(self):
        journal = ChangeJournal(max_entries=10)
        journal.record(EX.a, 1)
        stats = journal.stats()
        assert stats["tracked_subjects"] == 1
        assert stats["records"] == 1
        assert stats["overflows"] == 0
        assert stats["max_entries"] == 10


class TestGraphJournalIntegration:
    def test_mutations_are_journalled_per_subject(self):
        graph = Graph()
        start = graph.generation
        graph.add(Triple(EX.a, EX.p, Literal(1)))
        graph.add(Triple(EX.b, EX.p, Literal(2)))
        assert graph.changes_since(start) == {EX.a, EX.b}
        mid = graph.generation
        graph.discard(Triple(EX.a, EX.p, Literal(1)))
        assert graph.changes_since(mid) == {EX.a}

    def test_duplicate_add_is_not_a_change(self):
        graph = Graph()
        graph.add(Triple(EX.a, EX.p, Literal(1)))
        generation = graph.generation
        graph.add(Triple(EX.a, EX.p, Literal(1)))
        assert graph.generation == generation
        assert graph.changes_since(generation) == frozenset()

    def test_clear_truncates_the_journal(self):
        graph = Graph()
        start = graph.generation
        graph.add(Triple(EX.a, EX.p, Literal(1)))
        graph.clear()
        assert graph.changes_since(start) is None

    def test_journal_overflow_answers_none(self):
        graph = Graph(journal_max_entries=2)
        start = graph.generation
        for index in range(8):
            graph.add(Triple(EX[f"s{index}"], EX.p, Literal(index)))
        assert graph.changes_since(start) is None
        assert graph.journal.stats()["overflows"] >= 1

    def test_batch_coalesces_journal_records(self):
        graph = Graph()
        start = graph.generation
        with graph.batch():
            for index in range(50):
                graph.add(Triple(EX.a, EX.p, Literal(index)))
                graph.add(Triple(EX.b, EX.p, Literal(index)))
        # the generation counts every effective mutation (so derived state
        # stays stale-detectable even mid-batch) …
        assert graph.generation == start + 100
        # … but the journal gets one record per touched subject, not 100
        assert graph.changes_since(start) == {EX.a, EX.b}
        assert graph.journal.stats()["records"] == 2

    @pytest.mark.parametrize("bound", [2, 100])
    def test_fill_leaves_what_a_batch_of_adds_leaves(self, bound):
        # runs of one subject, a subject coming back, duplicates, equal
        # literals that are different objects, and a journal overflow
        triples = [Triple(EX.a, EX.p, Literal("x")), Triple(EX.a, EX.p, Literal(1)),
                   Triple(EX.b, EX.p, Literal("x")), Triple(EX.a, EX.q, EX.b),
                   Triple(EX.a, EX.p, Literal("x", datatype=XSD.string)),
                   Triple(EX.c, EX.p, EX.a), Triple(EX.b, EX.p, Literal("x"))]
        triples += [Triple(EX.d, EX.p, Literal(index)) for index in range(12)]
        filled = Graph(journal_max_entries=bound).fill(iter(triples))
        added = Graph(journal_max_entries=bound)
        with added.batch():
            for triple in triples:
                added.add(triple)
        assert filled == added and len(filled) == 17
        assert filled.generation == added.generation == 17
        assert filled.journal.stats() == added.journal.stats()
        assert filled.changes_since(0) == added.changes_since(0)

    def test_fill_builds_only_a_new_graph(self):
        graph = Graph()
        graph.add(Triple(EX.a, EX.p, Literal(1)))
        graph.discard(Triple(EX.a, EX.p, Literal(1)))
        with pytest.raises(GraphError):
            graph.fill([Triple(EX.a, EX.p, Literal(2))])
        fresh = Graph()
        with fresh.batch(), pytest.raises(GraphError):
            fresh.fill([Triple(EX.a, EX.p, Literal(2))])

    def test_a_fill_cut_short_journals_what_it_added(self):
        def failing():
            yield Triple(EX.a, EX.p, Literal(1))
            yield Triple(EX.b, EX.p, Literal(1))
            raise ValueError("input ends")

        graph = Graph()
        with pytest.raises(ValueError):
            graph.fill(failing())
        assert len(graph) == graph.generation == 2
        assert graph.changes_since(0) == {EX.a, EX.b}

    def test_reads_inside_a_batch_see_current_triples(self):
        graph = Graph()
        graph.add(Triple(EX.a, EX.p, Literal(1)))
        assert len(graph.neighbourhood(EX.a)) == 1
        with graph.batch():
            graph.add(Triple(EX.a, EX.p, Literal(2)))
            assert len(graph.neighbourhood(EX.a)) == 2

    def test_noop_batch_leaves_the_generation_untouched(self):
        graph = Graph()
        graph.add(Triple(EX.a, EX.p, Literal(1)))
        generation = graph.generation
        with graph.batch():
            pass  # empty batch
        with graph.batch():
            graph.add(Triple(EX.a, EX.p, Literal(1)))  # idempotent replay
        graph.remove_all([Triple(EX.b, EX.p, Literal(9))])  # absent triple
        assert graph.generation == generation
        assert graph.changes_since(generation) == frozenset()

    def test_changes_since_inside_a_batch_raises(self):
        graph = Graph()
        with graph.batch():
            graph.add(Triple(EX.a, EX.p, Literal(1)))
            with pytest.raises(GraphError):
                graph.changes_since(0)

    def test_nested_batches_coalesce_into_the_outermost(self):
        graph = Graph()
        start = graph.generation
        with graph.batch():
            graph.add(Triple(EX.a, EX.p, Literal(1)))
            with graph.batch():
                graph.add(Triple(EX.b, EX.p, Literal(1)))
            # the inner end_batch journals nothing yet
            assert graph.journal.stats()["records"] == 0
        assert graph.changes_since(start) == {EX.a, EX.b}
        assert graph.journal.stats()["records"] == 2

    def test_end_batch_without_begin_raises(self):
        with pytest.raises(GraphError):
            Graph().end_batch()

    def test_add_all_and_remove_all(self):
        graph = Graph()
        triples = _triples((EX.a, EX.p, Literal(1)), (EX.b, EX.p, Literal(2)))
        start = graph.generation
        graph.add_all(triples)
        assert set(graph) == set(triples)
        assert graph.changes_since(start) == {EX.a, EX.b}
        assert graph.generation == start + 2
        mid = graph.generation
        graph.remove_all(triples + _triples((EX.c, EX.p, Literal(3))))  # absent ok
        assert len(graph) == 0
        assert graph.changes_since(mid) == {EX.a, EX.b}

    def test_constructor_load_is_one_batch(self):
        triples = [Triple(EX[f"s{i}"], EX.p, Literal(i)) for i in range(100)]
        graph = Graph(triples)
        assert graph.journal.stats()["records"] == 100  # one per subject

    def test_parsers_load_in_one_batch(self):
        turtle = ("@prefix : <http://example.org/> .\n"
                  ":a :p 1 .\n:a :q 2 .\n:b :p 2 .\n")
        graph = Graph.parse(turtle)
        assert graph.journal.stats()["records"] == 2  # :a and :b, not 3
        ntriples = ('<http://example.org/a> <http://example.org/p> '
                    '"1"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
                    '<http://example.org/a> <http://example.org/q> '
                    '"2"^^<http://www.w3.org/2001/XMLSchema#integer> .\n')
        graph = Graph.parse(ntriples, format="ntriples")
        assert graph.journal.stats()["records"] == 1

    def test_bulk_helpers_accept_live_generators_over_the_same_graph(self):
        graph = Graph()
        graph.add_all(Triple(EX.a, EX.p, Literal(i)) for i in range(5))
        graph.add(Triple(EX.b, EX.p, Literal(0)))
        # 'delete this subject' through a live query over the same graph
        graph.remove_all(graph.triples(subject=EX.a))
        assert len(graph) == 1
        # and re-adding from a live query over another pattern
        graph.add_all(graph.triples(predicate=EX.p))
        assert len(graph) == 1


# ------------------------------------------------------------ affected closure
class TestAffectedNodes:
    def test_reference_index_marks_reference_predicates(self):
        index = ReferenceIndex(person_schema())
        assert index.has_references
        assert index.demands(FOAF.knows)
        assert index.labels_for(FOAF.knows) == {ShapeLabel("Person")}
        assert not index.demands(FOAF.age)
        assert index.labels_for(FOAF.age) == frozenset()

    def test_dirty_only_without_references(self):
        schema = person_schema()
        graph = Graph(_triples((EX.a, FOAF.age, Literal(3))))
        assert affected_nodes(graph, schema, {EX.a}) == {EX.a}

    def test_closure_follows_reference_edges_backwards(self):
        schema = person_schema()
        graph = Graph()
        chain = [EX.p0, EX.p1, EX.p2, EX.p3]
        with graph.batch():
            for person in chain:
                graph.add(Triple(person, FOAF.age, Literal(30)))
                graph.add(Triple(person, FOAF.name, Literal("x")))
            for left, right in zip(chain, chain[1:]):
                graph.add(Triple(left, FOAF.knows, right))
        # dirtying the chain's tail affects every upstream referrer …
        assert affected_nodes(graph, schema, {EX.p3}) == set(chain)
        # … but dirtying the head affects only the head
        assert affected_nodes(graph, schema, {EX.p0}) == {EX.p0}

    def test_closure_stays_inside_the_community(self):
        workload = generate_community_workload(
            num_communities=4, people_per_community=6, seed=5)
        member = workload.valid_nodes[0]
        community = str(member.value).rsplit("_", 1)[0]
        closure = affected_nodes(workload.graph, workload.schema, {member})
        assert member in closure
        assert all(str(node.value).startswith(community) for node in closure)

    def test_closure_includes_referrers_of_statically_decidable_targets(self):
        schema = person_schema()
        graph = Graph()
        with graph.batch():
            # referrer -> target, where the target is statically rejectable
            # (missing required predicates entirely)
            graph.add(Triple(EX.referrer, FOAF.age, Literal(30)))
            graph.add(Triple(EX.referrer, FOAF.name, Literal("r")))
            graph.add(Triple(EX.referrer, FOAF.knows, EX.target))
            graph.add(Triple(EX.target, EX.unrelated, Literal(1)))
            # the target references a third node
            graph.add(Triple(EX.target, FOAF.knows, EX.third))
            graph.add(Triple(EX.third, FOAF.age, Literal(30)))
            graph.add(Triple(EX.third, FOAF.name, Literal("t")))
        # the walk never stops early: every referrer along the reference
        # edges is in the closure, decidable target or not
        assert affected_nodes(graph, schema, {EX.third}) \
            == {EX.third, EX.target, EX.referrer}
        # a dirty node always propagates to its referrers
        assert affected_nodes(graph, schema, {EX.target}) \
            == {EX.target, EX.referrer}

    #: reference arcs whose predicate set is not enumerable (``.`` and a
    #: stem), alone and beside an exact reference predicate.
    GENERAL_REFERENCES = {
        "any predicate": [PredicateSet(any_predicate=True)],
        "stem": [PredicateSet(stem="http://example.org/")],
        "stem and exact": [PredicateSet(stem="http://example.org/r"),
                           PredicateSet.single(FOAF.knows)],
    }

    @pytest.mark.parametrize("name", sorted(GENERAL_REFERENCES))
    def test_stem_and_wildcard_closures_equal_a_brute_force_scan(self, name):
        predicate_sets = self.GENERAL_REFERENCES[name]
        schema = Schema({"S": interleave_all(
            arc(FOAF.name, None),
            *(star(Arc(predicates, ShapeRef(ShapeLabel("S"))))
              for predicates in predicate_sets))})
        assert ReferenceIndex(schema)._general
        graph = Graph(_triples(
            (EX.a, EX.p, EX.b), (EX.b, EX.ref, EX.c), (EX.c, EX.q, EX.a),  # cycle
            (EX.d, FOAF.knows, EX.a), (EX.e, FOAF.name, Literal("e")),
            (EX.f, EX.ref, EX.e), (EX.f, EX.p, Literal(1)),  # literal object
            (EX.g, FOAF.knows, EX.f), (EX.g, EX.p, EX.g), (EX.h, EX.q, EX.d)))
        # the reference edges, by a full scan of the triples
        edges = [(s, o) for s, p, o in graph
                 if any(predicates.matches(p) for predicates in predicate_sets)]
        for dirty in [{node} for node in graph.nodes()] + [{EX.e, EX.c}]:
            expected = set(dirty)
            while True:
                referrers = {s for s, o in edges if o in expected} - expected
                if not referrers:
                    break
                expected |= referrers
            assert affected_nodes(graph, schema, dirty) == expected


# ------------------------------------------------------------------ retraction
class TestRetractNodes:
    def test_retracts_settled_verdicts_and_counts_them(self):
        workload = generate_person_workload(num_people=10, seed=2)
        validator = Validator(workload.graph, workload.schema)
        validator.validate_graph()
        context = validator._bulk_context()
        node = workload.valid_nodes[0]
        label = ShapeLabel("Person")
        assert context.is_confirmed(node, label)
        dropped = context.retract_nodes([node])
        assert dropped >= 1
        assert not context.is_confirmed(node, label)
        assert not context.is_failed(node, label)

    def test_retract_empty_set_is_a_noop(self):
        workload = generate_person_workload(num_people=5, seed=2)
        validator = Validator(workload.graph, workload.schema)
        validator.validate_graph()
        context = validator._bulk_context()
        before, counts = context.typing, context.settled_counts()
        assert context.retract_nodes([]) == 0
        assert context.typing == before
        assert context.settled_counts() == counts

    def test_retract_during_validation_raises(self):
        from repro.shex.schema import FixpointContext

        workload = generate_person_workload(num_people=5, seed=2)
        validator = Validator(workload.graph, workload.schema)
        context = validator._bulk_context()
        assert isinstance(context, FixpointContext)
        matcher, refused = context._matcher, []

        def retracting_matcher(expr, triples, ctx):
            # a matcher runs inside a solve: retraction must be refused
            with pytest.raises(SchemaError):
                ctx.retract_nodes([EX.someone])
            refused.append(expr)
            return matcher(expr, triples, ctx)

        context._matcher = retracting_matcher
        validator.validate_graph()
        assert refused


# ------------------------------------------------------------------ revalidate
class TestRevalidate:
    def _fresh_verdicts(self, graph, schema):
        return _verdicts(Validator(graph.copy(), schema).validate_graph())

    def test_first_call_is_a_full_rebuild(self):
        workload = generate_person_workload(num_people=8, seed=1)
        validator = Validator(workload.graph, workload.schema)
        result = validator.revalidate()
        assert result.full_rebuild
        assert _verdicts(validator.maintained_report()) == self._fresh_verdicts(
            workload.graph, workload.schema)

    def test_incremental_matches_fresh_run_after_edits(self):
        workload = generate_community_workload(
            num_communities=5, people_per_community=7, seed=9)
        graph, schema = workload.graph, workload.schema
        validator = Validator(graph, schema)
        validator.validate_graph()

        victim = workload.valid_nodes[0]
        graph.add(Triple(victim, FOAF.age, Literal(200)))  # duplicate age
        result = validator.revalidate()
        assert not result.full_rebuild
        assert victim in result.dirty
        entry = validator.maintained_report().entry_for(victim, "Person")
        assert entry is not None and not entry.conforms
        assert _verdicts(validator.maintained_report()) \
            == self._fresh_verdicts(graph, schema)
        assert validator.maintained_report().typing == Validator(
            graph.copy(), schema).validate_graph().typing

    def test_repairing_a_node_revalidates_its_referrers(self):
        schema = person_schema()
        graph = Graph()
        with graph.batch():
            graph.add(Triple(EX.a, FOAF.age, Literal(30)))
            graph.add(Triple(EX.a, FOAF.name, Literal("a")))
            graph.add(Triple(EX.a, FOAF.knows, EX.b))
            graph.add(Triple(EX.b, FOAF.age, Literal(31)))
            # b is broken: no name, so a fails too (its reference fails)
        validator = Validator(graph, schema)
        report = validator.validate_graph()
        assert not report.entry_for(EX.a, "Person").conforms
        graph.add(Triple(EX.b, FOAF.name, Literal("b")))  # repair b
        result = validator.revalidate()
        assert not result.full_rebuild
        assert EX.a in result.affected  # reverse reachability pulled a in
        assert validator.maintained_report().entry_for(EX.a, "Person").conforms
        assert validator.maintained_report().entry_for(EX.b, "Person").conforms
        assert _verdicts(validator.maintained_report()) \
            == self._fresh_verdicts(graph, schema)

    def test_subject_addition_and_removal(self):
        workload = generate_person_workload(num_people=6, seed=4)
        graph, schema = workload.graph, workload.schema
        validator = Validator(graph, schema)
        validator.validate_graph()
        # brand-new subject
        graph.add_all(_triples(
            (EX.newcomer, FOAF.age, Literal(20)),
            (EX.newcomer, FOAF.name, Literal("New")),
        ))
        result = validator.revalidate()
        assert not result.full_rebuild
        assert validator.maintained_report().entry_for(
            EX.newcomer, "Person").conforms
        assert _verdicts(validator.maintained_report()) \
            == self._fresh_verdicts(graph, schema)
        # remove it again: its entries must disappear from the report
        graph.remove_all(list(graph.triples(subject=EX.newcomer)))
        result = validator.revalidate()
        assert not result.full_rebuild
        assert validator.maintained_report().entry_for(
            EX.newcomer, "Person") is None
        assert _verdicts(validator.maintained_report()) \
            == self._fresh_verdicts(graph, schema)

    def test_noop_revalidate_recomputes_nothing(self):
        workload = generate_person_workload(num_people=6, seed=4)
        validator = Validator(workload.graph, workload.schema)
        baseline = validator.validate_graph()
        result = validator.revalidate()
        assert not result.full_rebuild
        assert len(result.delta) == 0
        assert result.retracted == 0
        assert _verdicts(validator.maintained_report()) == _verdicts(baseline)

    def test_delta_contains_exactly_the_affected_subject_pairs(self):
        workload = generate_community_workload(
            num_communities=4, people_per_community=6, seed=11)
        graph, schema = workload.graph, workload.schema
        validator = Validator(graph, schema)
        baseline = validator.validate_graph()
        victim = workload.valid_nodes[0]
        graph.add(Triple(victim, EX.nickname, Literal("Zed")))
        result = validator.revalidate()
        delta_nodes = {entry.node for entry in result.delta}
        subject_set = set(graph.nodes())
        assert delta_nodes == {node for node in result.affected
                               if node in subject_set}
        # unaffected entries are reused object-identically from the baseline
        untouched = next(node for node in workload.valid_nodes
                         if node not in result.affected)
        reused = validator.maintained_report().entry_for(untouched, "Person")
        assert any(reused is entry for entry in baseline)
        # the victim's entry is not
        recomputed = validator.maintained_report().entry_for(victim, "Person")
        assert all(recomputed is not entry for entry in baseline)

    def test_maintained_report_is_built_on_demand(self):
        workload = generate_person_workload(num_people=6, seed=4)
        validator = Validator(workload.graph, workload.schema)
        assert validator.maintained_report() is None
        baseline = validator.validate_graph()
        assert _verdicts(validator.maintained_report()) == _verdicts(baseline)

    def test_maintained_report_describes_the_baseline_until_revalidate(self):
        # mutations the validator has not consumed yet do not leak into the
        # report: a new subject is absent, a removed one still listed
        workload = generate_person_workload(num_people=6, seed=4)
        graph = workload.graph
        validator = Validator(graph, workload.schema)
        baseline = validator.validate_graph()
        removed = workload.valid_nodes[0]
        for triple in list(graph.triples(removed, None, None)):
            graph.remove(triple)
        graph.add(Triple(EX.newcomer, FOAF.age, Literal(1)))
        report = validator.maintained_report()
        assert list(report) == list(baseline)
        validator.revalidate()
        assert _verdicts(validator.maintained_report()) \
            == self._fresh_verdicts(graph, workload.schema)

    def test_one_triple_revalidate_never_lists_the_graph(self, monkeypatch):
        # the write path stays within the affected closure: a listing of
        # every subject would make each write grow with the whole graph
        workload = generate_community_workload(
            num_communities=4, people_per_community=6, seed=11)
        graph, schema = workload.graph, workload.schema
        validator = Validator(graph, schema)
        validator.validate_graph()

        def refuse(self):
            raise AssertionError("revalidate listed every subject")

        monkeypatch.setattr(Graph, "nodes", refuse)
        graph.add(Triple(workload.valid_nodes[0], EX.nickname, Literal("Zed")))
        result = validator.revalidate()
        monkeypatch.undo()
        assert not result.full_rebuild and len(result.delta) > 0
        assert _verdicts(validator.maintained_report()) \
            == self._fresh_verdicts(graph, schema)

    def test_journal_overflow_forces_full_rebuild(self):
        workload = generate_person_workload(num_people=6, seed=4)
        graph = Graph(list(workload.graph), journal_max_entries=2)
        validator = Validator(graph, workload.schema)
        validator.validate_graph()
        with graph.batch():
            for index in range(5):  # 5 distinct subjects > bound of 2
                graph.add(Triple(EX[f"extra{index}"], FOAF.age, Literal(1)))
        result = validator.revalidate()
        assert result.full_rebuild
        assert _verdicts(validator.maintained_report()) == self._fresh_verdicts(
            graph, workload.schema)

    def test_label_set_change_forces_full_rebuild(self):
        workload = generate_person_workload(num_people=5, seed=4)
        validator = Validator(workload.graph, workload.schema)
        validator.validate_graph(labels=["Person"])
        result = validator.revalidate()  # same labels, resolved by default
        assert not result.full_rebuild

    def test_reference_revalidate_degenerates_to_full(self):
        workload = generate_person_workload(num_people=5, seed=4)
        validator = Validator(workload.graph, workload.schema, reference=True)
        validator.validate_graph()
        result = validator.revalidate()
        assert result.full_rebuild

    def test_mutation_seen_by_validate_node_invalidates_the_baseline(self):
        workload = generate_person_workload(num_people=5, seed=4)
        graph, schema = workload.graph, workload.schema
        validator = Validator(graph, schema)
        validator.validate_graph()
        graph.add(Triple(EX.stranger, FOAF.age, Literal(3)))
        # a bulk-context consumer rebuilds the context at the new generation;
        # the baseline no longer pairs with it, so revalidate must not trust it
        validator.conforming_nodes("Person")
        result = validator.revalidate()
        assert result.full_rebuild
        assert _verdicts(validator.maintained_report()) \
            == self._fresh_verdicts(graph, schema)

    def test_revalidate_stats_counters(self):
        workload = generate_person_workload(num_people=6, seed=4)
        validator = Validator(workload.graph, workload.schema)
        validator.validate_graph()
        workload.graph.add(Triple(EX.person0, FOAF.age, Literal(999)))
        result = validator.revalidate()
        stats = result.stats()
        assert stats["dirty_subjects"] == 1
        assert stats["revalidated_pairs"] == len(result.delta)
        assert stats["reused_pairs"] == result.pairs - len(result.delta)
        assert result.pairs == len(validator.maintained_report())
        assert stats["full_rebuild"] == 0
