"""Production and the ``reference`` oracle: the only two configurations.

Production validation is one fixed wiring — shared context, compiled
schema, signature cache and (for the derivatives engine) a global
derivative cache.  ``reference=True`` is the paper's semantics with none of
them: a fresh context per node.  These tests pin what the reference is, and
check that it agrees with production on every surface that offers it.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.service import DeltaRequest, ServiceError, ValidationSession
from repro.rdf import EX, FOAF, Graph, Literal, Triple
from repro.shex import (
    CompiledSchema,
    DerivativeCache,
    DerivativeEngine,
    ShapeLabel,
    Validator,
    parse_shexc,
)
from repro.shex.cache import SignatureCache
from repro.shex.reference import ReferenceContext
from repro.shex.schema import FixpointContext
from repro.workloads import (
    PERSON_SCHEMA_SHEXC,
    generate_community_workload,
    generate_kb_workload,
    generate_person_workload,
)


def verdicts(report):
    return {(entry.node, str(entry.label)): entry.conforms for entry in report}


@pytest.fixture
def constructions(monkeypatch):
    """Count the instances of every production-only cache built meanwhile."""
    built = {}
    for cls in (CompiledSchema, SignatureCache, DerivativeCache):
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__,
                     **kwargs):
            built[_name] = built.get(_name, 0) + 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


class TestWhatTheReferenceIs:
    def test_reference_builds_no_cache_and_reports_no_fast_path(
            self, constructions):
        workload = generate_community_workload(num_communities=3, seed=5)
        session = ValidationSession(workload.graph, workload.schema,
                                    reference=True)
        report = session.validate()
        assert constructions == {}
        validator = session.validator
        assert validator.compiled is None
        assert validator.signature_cache is None
        assert validator.engine.cache is None
        totals = report.stats
        assert totals.prefilter_accepts == totals.prefilter_rejects == 0
        assert totals.signature_hits == 0
        stats = session.stats()
        # no derivative cache means no cache counters, and no hits
        assert stats.prefilter == stats.signature == stats.cache == {}

    def test_production_builds_every_cache_and_uses_them(self, constructions):
        # kb entities are reference-free, so the signature cache serves them;
        # hubs reference entities, so the prefilter and engine run too
        workload = generate_kb_workload(num_entities=60, num_hubs=3, seed=5)
        validator = Validator(workload.graph, workload.schema)
        report = validator.validate_graph()
        assert constructions == {"CompiledSchema": 1, "SignatureCache": 1,
                                 "DerivativeCache": 1}
        totals = report.stats
        assert totals.prefilter_accepts + totals.prefilter_rejects > 0
        assert totals.signature_hits > 0
        assert validator.engine.cache.hits > 0

    def test_reference_rejects_production_only_arguments(self):
        workload = generate_person_workload(num_people=3, seed=1)
        with pytest.raises(ValueError, match="reference"):
            Validator(workload.graph, workload.schema, reference=True,
                      cache_max_entries=10)
        with pytest.raises(ValueError, match="reference"):
            Validator(workload.graph, workload.schema, reference=True,
                      compiled=CompiledSchema(workload.schema))

    def test_the_validator_owns_the_derivative_cache(self):
        workload = generate_person_workload(num_people=3, seed=1)
        with pytest.raises(TypeError, match="cache_max_entries"):
            Validator(workload.graph, workload.schema, cache=True)
        bounded = Validator(workload.graph, workload.schema,
                            cache_max_entries=7)
        assert bounded.engine.cache.max_entries == 7


class TestTheTwoContexts:
    """Production and the reference each carry only their own algorithm's state."""

    KNOWS_SHEX = ("PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
                  "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
                  "<Person> { foaf:age xsd:integer , foaf:knows @<Person> * }\n")

    def test_each_context_has_only_its_own_state(self):
        workload = generate_person_workload(num_people=6, seed=1)
        production = Validator(workload.graph, workload.schema)
        production.validate_graph()
        fixpoint = production._bulk_context()
        assert type(fixpoint) is FixpointContext
        for name in ("_hypotheses", "_frames", "_provisional",
                     "_provisional_by_depth", "_depth", "max_recursion_depth"):
            assert not hasattr(fixpoint, name), name
        reference = Validator(workload.graph, workload.schema,
                              reference=True)._new_context()
        assert type(reference) is ReferenceContext
        for name in ("_signatures", "_pending",
                     "signature_cache"):
            assert not hasattr(reference, name), name

    def test_provisional_reuse_matches_each_node_of_a_knows_clique_once(self):
        # every member of a complete 8-node knows graph rests on the
        # hypotheses of the frames above it; parked provisional verdicts let
        # the descent reuse them, so each node is matched exactly once
        # (without parking the same check makes 13,700 matcher calls)
        people = [EX[f"p{index}"] for index in range(8)]
        graph = Graph()
        for person in people:
            graph.add(Triple(person, FOAF.age, Literal(30)))
            for friend in people:
                if friend != person:
                    graph.add(Triple(person, FOAF.knows, friend))
        engine, calls = DerivativeEngine(), []

        def counting(expr, triples, context):
            calls.append(expr)
            return engine.match_neighbourhood(expr, triples, context)

        context = ReferenceContext(graph, parse_shexc(self.KNOWS_SHEX), counting)
        assert context.check_reference(people[0], "Person").matched
        assert len(calls) == 8
        label = ShapeLabel("Person")
        assert all(context.is_confirmed(person, label) for person in people)


class TestReferenceAgreesWithProduction:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recursive_rings(self, seed):
        workload = generate_community_workload(
            num_communities=3, people_per_community=5, invalid_fraction=0.3,
            seed=seed)
        production = Validator(workload.graph, workload.schema)
        reference = Validator(workload.graph, workload.schema, reference=True)
        assert verdicts(production.validate_graph()) \
            == verdicts(reference.validate_graph())

    @pytest.mark.parametrize("seed", [1, 2])
    def test_kb_hub_references(self, seed):
        # hubs reference many entities; entities are reference-free, so the
        # signature cache answers them while hubs go through check_reference
        workload = generate_kb_workload(num_entities=80, num_hubs=4, seed=seed)
        production = Validator(workload.graph, workload.schema)
        reference = Validator(workload.graph, workload.schema, reference=True)
        production_report = production.validate_graph()
        assert [(entry.node, entry.label, entry.conforms)
                for entry in production_report] \
            == [(entry.node, entry.label, entry.conforms)
                for entry in reference.validate_graph()]
        assert production_report.stats.signature_hits > 0

    def test_reference_session_serves_verdicts_and_rebuilds_on_delta(self):
        workload = generate_person_workload(num_people=12, seed=3)
        session = ValidationSession(workload.graph.copy(), workload.schema,
                                    reference=True)
        production = ValidationSession(workload.graph.copy(),
                                       workload.schema)
        assert verdicts(session.validate()) == verdicts(production.validate())
        node = workload.all_nodes[0]
        assert session.verdict(node).conforms \
            == production.verdict(node).conforms
        delta = DeltaRequest(add=f'{node.n3()} '
                                 '<http://xmlns.com/foaf/0.1/age> "7" .\n')
        with pytest.raises(ServiceError) as excinfo:
            session.apply_delta(delta)
        assert excinfo.value.code == "no-baseline"
        rebuilt = session.apply_delta(DeltaRequest(allow_full_rebuild=True))
        assert rebuilt.full_rebuild
        assert not production.apply_delta(delta).full_rebuild
        assert session.verdict(node).conforms \
            == production.verdict(node).conforms is False


class TestCliReference:
    @pytest.fixture
    def files(self, tmp_path):
        workload = generate_person_workload(num_people=25, seed=4)
        data = tmp_path / "people.ttl"
        data.write_text(workload.graph.serialize("turtle"), encoding="utf-8")
        schema = tmp_path / "person.shex"
        schema.write_text(PERSON_SCHEMA_SHEXC, encoding="utf-8")
        return ["validate", "--data", str(data), "--schema", str(schema),
                "--all-nodes", "--format", "csv"]

    def test_reference_verdict_columns_match_production(self, files, capsys):
        code = main(files)
        production = capsys.readouterr().out.splitlines()
        assert main(files + ["--reference"]) == code
        reference = capsys.readouterr().out.splitlines()
        assert [row.split(",")[:3] for row in production] \
            == [row.split(",")[:3] for row in reference]

    def test_reference_cache_stats_show_every_cache_off(self, files, capsys):
        main(files + ["--reference", "--cache-stats"])
        err = capsys.readouterr().err
        assert "prefilter-stats: disabled" in err
        assert "cache-stats: no derivative cache active" in err
        assert "signature-stats: no signature cache active" in err

    def test_reference_with_a_cache_bound_is_a_usage_error(self, files,
                                                           capsys):
        assert main(files + ["--reference",
                             "--cache-max-entries", "5"]) == 2
        assert "--reference" in capsys.readouterr().err
