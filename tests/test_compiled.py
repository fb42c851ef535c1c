"""Tests for the compiled-schema precomputation layer (repro.shex.compiled)."""

from __future__ import annotations

import pickle

import pytest

from repro.rdf import EX, FOAF, XSD, Graph, Literal, Triple
from repro.shex import (
    CompiledSchema,
    CompiledShape,
    DerivativeCache,
    Schema,
    Validator,
    arc,
    shape_ref,
    star,
    value_set,
)
from repro.shex.analysis import cardinality_bounds, first_predicates
from repro.shex.expressions import EPSILON, alternative, interleave
from repro.shex.node_constraints import PredicateSet
from repro.workloads import (
    generate_community_workload,
    generate_person_workload,
    paper_example_graph,
    person_schema,
)


def compiled_person() -> CompiledShape:
    return CompiledSchema(person_schema()).shape("Person")


def buckets(*triples: Triple):
    """The ``predicate → objects`` buckets of ``EX.n`` over ``triples``."""
    return Graph(triples).predicate_objects(EX.n)


# ------------------------------------------------------------------ analysis layer
class TestSoundCardinalityBounds:
    def test_single_predicate_arc_is_exactly_one(self):
        bounds = cardinality_bounds(arc(EX.p, value_set(1)))
        assert bounds[EX.p].minimum == 1
        assert bounds[EX.p].maximum == 1

    def test_multi_predicate_arc_has_no_minimum(self):
        expr = arc(PredicateSet([EX.p, EX.q]), value_set(1))
        bounds = cardinality_bounds(expr)
        # the arc consumes one p-OR-q triple: neither predicate individually
        # is required, each can appear at most once
        assert bounds[EX.p].minimum == 0 and bounds[EX.p].maximum == 1
        assert bounds[EX.q].minimum == 0 and bounds[EX.q].maximum == 1

    def test_interleave_adds_and_star_unbounds(self):
        expr = interleave(arc(EX.p, value_set(1)), star(arc(EX.p, value_set(2))))
        bounds = cardinality_bounds(expr)
        assert bounds[EX.p].minimum == 1
        assert bounds[EX.p].maximum is None

    def test_alternative_takes_min_and_max_across_branches(self):
        expr = alternative(
            interleave(arc(EX.p, value_set(1)), arc(EX.p, value_set(2))),
            arc(EX.q, value_set(1)),
        )
        bounds = cardinality_bounds(expr)
        assert bounds[EX.p].minimum == 0 and bounds[EX.p].maximum == 2
        assert bounds[EX.q].minimum == 0 and bounds[EX.q].maximum == 1

    def test_wildcard_arc_voids_maxima(self):
        expr = interleave(arc(EX.p, value_set(1)),
                          arc(PredicateSet(any_predicate=True), None))
        bounds = cardinality_bounds(expr)
        # the wildcard could absorb a second p-triple, so no finite max
        assert bounds[EX.p].minimum == 1
        assert bounds[EX.p].maximum is None

    def test_stem_arc_voids_maxima_for_covered_predicates(self):
        expr = interleave(
            arc(EX.p, value_set(1)),
            arc(PredicateSet(stem="http://example.org/"), None),
        )
        bounds = cardinality_bounds(expr)
        assert bounds[EX.p].maximum is None


class TestFirstPredicates:
    def test_arc_and_star(self):
        exact, open_ = first_predicates(star(arc(EX.p, value_set(1))))
        assert exact == frozenset([EX.p]) and not open_

    def test_union_over_interleave_and_alternative(self):
        expr = interleave(arc(EX.p, value_set(1)),
                          alternative(arc(EX.q, value_set(1)), EPSILON))
        exact, open_ = first_predicates(expr)
        assert exact == frozenset([EX.p, EX.q]) and not open_

    def test_stem_arc_makes_the_set_open(self):
        _, open_ = first_predicates(arc(PredicateSet(stem="http://x/"), None))
        assert open_


# -------------------------------------------------------------- per-label compilation
class TestCompiledShape:
    def test_person_tables(self):
        shape = compiled_person()
        assert not shape.nullable
        assert shape.first_exact == frozenset([FOAF.age, FOAF.name, FOAF.knows])
        assert dict(shape.required) == {FOAF.age: 1, FOAF.name: 1}
        assert shape.max_counts == {FOAF.age: 1}
        assert shape.allowed_exact == frozenset([FOAF.age, FOAF.name, FOAF.knows])
        assert not shape.allows_any and shape.allowed_stems == ()
        assert shape.has_references
        assert len(shape.atoms) == 3

    def test_reference_arcs_are_never_screened(self):
        shape = compiled_person()
        # age and name have trivially decidable datatype constraints, knows
        # resolves through the typing context and must stay unscreened
        assert set(shape.screens) == {FOAF.age, FOAF.name}

    def test_recursive_label_compiles(self):
        schema = Schema.single("Loop", star(arc(EX.next, shape_ref("Loop"))))
        shape = CompiledSchema(schema).shape("Loop")
        assert shape.nullable and shape.has_references
        assert shape.first_exact == frozenset([EX.next])
        assert shape.required == ()

    def test_nullable_shape_accepts_empty_neighbourhood(self):
        schema = Schema.single("S", star(arc(EX.p, value_set(1))))
        decision = CompiledSchema(schema).prefilter("S", {})
        assert decision is not None and decision.matched

    def test_non_nullable_shape_rejects_empty_neighbourhood(self):
        decision = compiled_person().prefilter({})
        assert decision is not None and not decision.matched

    def test_wildcard_constraint_disables_the_screen(self):
        schema = Schema.single("S", arc(EX.p))  # object is the wildcard "."
        shape = CompiledSchema(schema).shape("S")
        assert shape.screens == {}


class TestPrefilterDecisions:
    def test_closed_world_reject(self):
        shape = compiled_person()
        decision = shape.prefilter(buckets(Triple(EX.n, EX.unrelated, Literal(1))))
        assert decision is not None and not decision.matched

    def test_cardinality_reject_on_duplicate_age(self):
        graph = paper_example_graph()
        decision = compiled_person().prefilter(graph.predicate_objects(EX.mary))
        assert decision is not None and not decision.matched
        assert "age" in decision.reason

    def test_required_reject_on_missing_name(self):
        decision = compiled_person().prefilter(
            buckets(Triple(EX.n, FOAF.age, Literal(30))))
        assert decision is not None and not decision.matched

    def test_value_screen_reject_on_string_age(self):
        decision = compiled_person().prefilter(buckets(
            Triple(EX.n, FOAF.age, Literal("thirty", datatype=XSD.string)),
            Triple(EX.n, FOAF.name, Literal("N")),
        ))
        assert decision is not None and not decision.matched

    def test_screen_reason_names_the_first_failing_bucket(self):
        schema = Schema.single("S", interleave(
            arc(EX.a, value_set(1)), arc(EX.b, value_set(1))))
        shape = CompiledSchema(schema).shape("S")
        for first, second in ((EX.a, EX.b), (EX.b, EX.a)):
            decision = shape.prefilter(buckets(
                Triple(EX.n, first, Literal(2)),
                Triple(EX.n, second, Literal(2))))
            assert decision is not None and not decision.matched
            assert decision.reason == (f"a {first.n3()} triple's object "
                                       "satisfies no constraint able to "
                                       "consume it")

    def test_plausible_neighbourhood_is_unknown(self):
        graph = paper_example_graph()
        assert compiled_person().prefilter(graph.predicate_objects(EX.john)) is None
        assert compiled_person().prefilter(graph.predicate_objects(EX.bob)) is None


# ----------------------------------------------------------------- schema-wide tables
class TestCompiledSchema:
    def test_atom_index_candidates(self):
        compiled = CompiledSchema(person_schema())
        candidates = compiled.candidate_atoms(FOAF.age)
        assert len(candidates) == 1
        ((predicate_set, _constraint),) = candidates
        assert predicate_set.matches(FOAF.age)
        assert compiled.candidate_atoms(EX.unrelated) == frozenset()

    def test_atom_tables_match_the_cache_walk_order(self):
        schema = person_schema()
        compiled = CompiledSchema(schema)
        cache = DerivativeCache()
        for label, expr in schema.items():
            assert compiled.shape(label).atoms == cache.atoms_for(expr)

    def test_pickle_roundtrip_preserves_decisions(self):
        compiled = CompiledSchema(person_schema())
        clone = pickle.loads(pickle.dumps(compiled))
        graph = paper_example_graph()
        for node in (EX.john, EX.bob, EX.mary):
            neighbourhood = graph.predicate_objects(node)
            original = compiled.prefilter("Person", neighbourhood)
            copied = clone.prefilter("Person", neighbourhood)
            if original is None:
                assert copied is None
            else:
                assert copied is not None and copied.matched == original.matched

    def test_stats_counters(self):
        stats = CompiledSchema(person_schema()).stats()
        assert stats["labels"] == 1
        assert stats["atoms"] == 3
        assert stats["screened_predicates"] == 2


# -------------------------------------------------------------------- validator wiring
class TestValidatorIntegration:
    def test_verdicts_agree_with_no_precompile(self):
        # the reference builds no compiled schema
        workload = generate_community_workload(num_communities=4, seed=9)
        fast = Validator(workload.graph, workload.schema).validate_graph()
        slow = Validator(workload.graph, workload.schema,
                         reference=True).validate_graph()
        assert ({(e.node, str(e.label)): e.conforms for e in fast}
                == {(e.node, str(e.label)): e.conforms for e in slow})

    def test_prefilter_counters_appear_in_the_report(self):
        workload = generate_person_workload(num_people=40, seed=1)
        report = Validator(workload.graph, workload.schema).validate_graph()
        totals = report.stats
        assert totals.prefilter_rejects > 0
        # every invalid node fails, prefilter or not
        for node in workload.invalid_nodes:
            entry = report.entry_for(node, "Person")
            assert entry is not None and not entry.conforms
            assert entry.reason

    def test_precompile_false_never_prefilters(self):
        # the reference is the one configuration without a compiled schema
        workload = generate_person_workload(num_people=20, seed=2)
        validator = Validator(workload.graph, workload.schema, reference=True)
        assert validator.compiled is None
        report = validator.validate_graph()
        totals = report.stats
        assert totals.prefilter_rejects == 0 and totals.prefilter_accepts == 0

    def test_compiled_is_built_once_per_validator(self):
        workload = generate_person_workload(num_people=5, seed=3)
        validator = Validator(workload.graph, workload.schema)
        first = validator.compiled
        assert first is not None and first.schema is workload.schema
        signatures = validator.signature_cache
        validator.validate_graph()
        workload.graph.add(Triple(EX.newcomer, FOAF.age, Literal(3)))
        validator.validate_graph()  # a graph mutation rebuilds only the context
        assert validator.compiled is first
        assert validator.signature_cache is signatures
        with pytest.raises(AttributeError):
            validator.schema = person_schema()

    def test_a_compiled_schema_of_another_schema_is_rejected(self):
        workload = generate_person_workload(num_people=3, seed=3)
        foreign = CompiledSchema(person_schema())
        with pytest.raises(ValueError, match="another schema"):
            Validator(workload.graph, workload.schema, compiled=foreign)
        adopted = CompiledSchema(workload.schema)
        assert Validator(workload.graph, workload.schema,
                         compiled=adopted).compiled is adopted

    def test_validate_node_uses_the_prefilter(self):
        graph = paper_example_graph()
        validator = Validator(graph, person_schema())
        # a one-pair run: the single-pair path validate_node takes
        report = validator.validate_map({EX.mary: "Person"})
        assert not report.entries[0].conforms
        assert report.stats.prefilter_rejects == 1
        assert report.stats.derivative_steps == 0
        assert not validator.validate_node(EX.mary, "Person").conforms

    def test_ready_made_compiled_schema_is_adopted(self):
        workload = generate_person_workload(num_people=10, seed=6)
        ready = CompiledSchema(workload.schema)
        validator = Validator(workload.graph, workload.schema, compiled=ready)
        assert validator.compiled is ready
        plain = Validator(workload.graph, workload.schema, reference=True)
        assert ({(e.node, e.conforms) for e in validator.validate_graph()}
                == {(e.node, e.conforms) for e in plain.validate_graph()})

    def test_infer_typing_matches_plain_path(self):
        workload = generate_person_workload(num_people=25, seed=4)
        fast = Validator(workload.graph, workload.schema).infer_typing()
        slow = Validator(workload.graph, workload.schema,
                         reference=True).infer_typing()
        assert fast.to_dict() == slow.to_dict()


class TestCliEscapeHatch:
    def test_no_precompile_flag_runs_and_agrees(self, tmp_path, capsys):
        # ``--reference`` is the flag that runs without the compiled schema
        from repro.cli import main
        from repro.workloads import PAPER_EXAMPLE_TURTLE, PERSON_SCHEMA_SHEXC

        data = tmp_path / "data.ttl"
        data.write_text(PAPER_EXAMPLE_TURTLE, encoding="utf-8")
        schema = tmp_path / "schema.shex"
        schema.write_text(PERSON_SCHEMA_SHEXC, encoding="utf-8")
        base = ["validate", "--data", str(data), "--schema", str(schema),
                "--all-nodes", "--format", "csv"]
        code_fast = main(base)
        fast_out = capsys.readouterr().out
        code_slow = main(base + ["--reference"])
        slow_out = capsys.readouterr().out
        assert code_fast == code_slow == 1  # mary does not conform
        # verdicts agree; failure *reasons* may legitimately differ (the
        # prefilter explains rejects statically, the engine dynamically)
        fast_verdicts = [line.split(",")[:3] for line in fast_out.splitlines()]
        slow_verdicts = [line.split(",")[:3] for line in slow_out.splitlines()]
        assert fast_verdicts == slow_verdicts

    def test_cache_stats_include_prefilter_counters(self, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads import PAPER_EXAMPLE_TURTLE, PERSON_SCHEMA_SHEXC

        data = tmp_path / "data.ttl"
        data.write_text(PAPER_EXAMPLE_TURTLE, encoding="utf-8")
        schema = tmp_path / "schema.shex"
        schema.write_text(PERSON_SCHEMA_SHEXC, encoding="utf-8")
        main(["validate", "--data", str(data), "--schema", str(schema),
              "--all-nodes", "--cache-stats"])
        captured = capsys.readouterr()
        assert "prefilter-stats:" in captured.err
        assert "rejects=" in captured.err
