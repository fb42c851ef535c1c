"""Tests for the :class:`ValidationSession` facade: lifecycle, typed errors,
warm verdict serving and delta serialization."""

from __future__ import annotations

import threading
import time

import pytest

from repro.rdf import EX, Graph
from repro.rdf.ntriples import iter_ntriples
from repro.rdf.terms import IRI, Literal, Triple
from repro.service import (
    DeltaRequest,
    ServiceError,
    ValidationRequest,
    ValidationSession,
)
from repro.shex import Validator
from repro.workloads import (
    PAPER_EXAMPLE_TURTLE,
    PERSON_SCHEMA_SHEXC,
    generate_community_workload,
    paper_example_graph,
    person_schema,
)

FOAF_AGE = IRI("http://xmlns.com/foaf/0.1/age")
FOAF_NAME = IRI("http://xmlns.com/foaf/0.1/name")
XSD_INT = IRI("http://www.w3.org/2001/XMLSchema#integer")

MARY_FIX_ADD = ('<http://example.org/mary> '
                '<http://xmlns.com/foaf/0.1/name> "Mary" .\n')
MARY_FIX_REMOVE = ('<http://example.org/mary> <http://xmlns.com/foaf/0.1/age> '
                   '"65"^^<http://www.w3.org/2001/XMLSchema#integer> .\n')


@pytest.fixture
def session() -> ValidationSession:
    return ValidationSession(paper_example_graph(), person_schema())


class TestLifecycle:
    def test_validate_then_verdict(self, session):
        report = session.validate()
        assert not report.conforms  # :mary has a duplicate age
        john = session.verdict("<http://example.org/john>")
        assert john.conforms and john.shape == "Person"
        assert john.generation == session.generation
        mary = session.verdict("<http://example.org/mary>", "Person")
        assert not mary.conforms

    def test_verdicts_come_from_the_baseline_not_a_fresh_run(self, session):
        session.validate()

        def boom(*args, **kwargs):  # pragma: no cover - must not be called
            raise AssertionError("verdict() triggered a validation run")

        session.validator.validate_node = boom
        session.validator.validate_graph = boom
        session.validator.engine.match_neighbourhood = boom
        verdict = session.verdict("<http://example.org/john>", "Person")
        assert verdict.conforms

    def test_delta_bumps_generation_and_flips_verdict(self, session):
        session.validate()
        before = session.generation
        response = session.apply_delta(DeltaRequest(
            add=MARY_FIX_ADD, remove=MARY_FIX_REMOVE))
        assert response.generation > before
        assert response.added == 1 and response.removed == 1
        assert not response.full_rebuild
        assert response.conforms
        mary = session.verdict("<http://example.org/mary>")
        assert mary.conforms and mary.generation == response.generation

    def test_delta_verdicts_match_a_fresh_direct_run(self, session):
        session.validate()
        session.apply_delta(DeltaRequest(add=MARY_FIX_ADD,
                                         remove=MARY_FIX_REMOVE))
        fresh_graph = paper_example_graph()
        fresh_graph.add_all(iter_ntriples(MARY_FIX_ADD))
        fresh_graph.remove_all(iter_ntriples(MARY_FIX_REMOVE))
        fresh = Validator(fresh_graph, person_schema()).validate_graph()
        for entry in fresh.entries:
            verdict = session.verdict(entry.node, entry.label)
            assert verdict.conforms == entry.conforms

    def test_reason_is_opt_in(self, session):
        session.validate()
        plain = session.verdict("<http://example.org/mary>")
        assert plain.reason is None
        explained = session.verdict("<http://example.org/mary>",
                                    include_reason=True)
        assert explained.reason

    def test_closed_session_refuses(self, session):
        session.validate()
        session.close()
        with pytest.raises(ServiceError) as exc:
            session.verdict("<http://example.org/john>")
        assert exc.value.code == "session-closed"


class TestTypedErrors:
    def test_verdict_before_validate_is_no_baseline(self, session):
        with pytest.raises(ServiceError) as exc:
            session.verdict("<http://example.org/john>")
        assert exc.value.code == "no-baseline"
        assert exc.value.http_status == 409

    def test_out_of_band_mutation_is_stale_baseline(self, session):
        session.validate()
        session.graph.add(Triple(EX.john, FOAF_NAME, Literal("J2")))
        with pytest.raises(ServiceError) as exc:
            session.verdict("<http://example.org/john>")
        assert exc.value.code == "stale-baseline"
        assert exc.value.http_status == 409

    def test_unknown_node_is_verdict_not_found(self, session):
        session.validate()
        with pytest.raises(ServiceError) as exc:
            session.verdict("<http://example.org/nobody>")
        assert exc.value.code == "verdict-not-found"
        assert exc.value.http_status == 404

    def test_bad_node_term_is_parse_error(self, session):
        session.validate()
        with pytest.raises(ServiceError) as exc:
            session.verdict("not a term")
        assert exc.value.code == "parse-error"
        assert exc.value.http_status == 400

    def test_bad_delta_ntriples_is_parse_error(self, session):
        session.validate()
        with pytest.raises(ServiceError) as exc:
            session.apply_delta(DeltaRequest(add="<broken"))
        assert exc.value.code == "parse-error"

    def test_delta_without_baseline_is_typed(self, session):
        with pytest.raises(ServiceError) as exc:
            session.apply_delta(DeltaRequest(add=MARY_FIX_ADD))
        assert exc.value.code == "no-baseline"
        assert exc.value.http_status == 409

    def test_journal_overflow_is_typed_and_recoverable(self):
        graph = Graph(journal_max_entries=1)
        graph.add_all(iter_ntriples(
            Graph.parse(PAPER_EXAMPLE_TURTLE).serialize("ntriples")))
        session = ValidationSession(graph, person_schema())
        session.validate()
        # touching two subjects with a 1-entry journal overflows it
        delta = DeltaRequest(
            add=('<http://example.org/john> '
                 '<http://xmlns.com/foaf/0.1/name> "J2" .\n'
                 '<http://example.org/bob> '
                 '<http://xmlns.com/foaf/0.1/name> "B2" .\n'))
        with pytest.raises(ServiceError) as exc:
            session.apply_delta(delta)
        assert exc.value.code == "journal-overflow"
        assert exc.value.http_status == 409
        # the error reports the generation the applied delta moved to
        assert exc.value.generation == session.generation
        # the delta WAS applied; recovery is an explicit rebuild opt-in
        response = session.apply_delta(
            DeltaRequest(allow_full_rebuild=True))
        assert response.full_rebuild
        assert session.verdict("<http://example.org/john>").conforms

    def test_from_request_schema_error(self):
        with pytest.raises(ServiceError) as exc:
            ValidationSession.from_request(
                ValidationRequest(data="", schema="<S> { broken"))
        assert exc.value.code == "schema-error"
        assert exc.value.http_status == 400

    def test_from_request_parse_error(self):
        with pytest.raises(ServiceError) as exc:
            ValidationSession.from_request(ValidationRequest(
                data="@prefix broken", schema=PERSON_SCHEMA_SHEXC))
        assert exc.value.code == "parse-error"

    def test_from_request_requires_a_schema(self):
        with pytest.raises(ServiceError) as exc:
            ValidationSession.from_request(ValidationRequest(data=""))
        assert exc.value.code == "schema-error"


class TestSerialization:
    def test_concurrent_deltas_never_interleave(self):
        """Two threads posting deltas must serialize through the session:
        ``revalidate`` (which retracts verdicts mid-flight) is never
        re-entered while a previous round is still running."""
        session = ValidationSession(paper_example_graph(), person_schema())
        session.validate()
        inner = session.validator.revalidate
        active = threading.Semaphore(1)
        overlaps = []

        def guarded(*args, **kwargs):
            if not active.acquire(blocking=False):
                overlaps.append(True)  # pragma: no cover - the failure path
            try:
                time.sleep(0.01)
                return inner(*args, **kwargs)
            finally:
                active.release()

        session.validator.revalidate = guarded
        adds = [
            ('<http://example.org/john> '
             f'<http://xmlns.com/foaf/0.1/name> "alias{i}" .\n')
            for i in range(6)
        ]
        errors = []

        def post(text):
            try:
                session.apply_delta(DeltaRequest(add=text))
            except ServiceError as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=post, args=(text,)) for text in adds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not overlaps
        assert not errors
        # the maintained baseline ends up identical to a fresh full run
        fresh_graph = paper_example_graph()
        for text in adds:
            fresh_graph.add_all(iter_ntriples(text))
        fresh = Validator(fresh_graph, person_schema()).validate_graph()
        for entry in fresh.entries:
            assert session.verdict(entry.node,
                                   entry.label).conforms == entry.conforms


class TestStats:
    def test_stats_counters_track_the_lifecycle(self, session):
        session.validate()
        session.apply_delta(DeltaRequest(add=MARY_FIX_ADD))
        session.verdict("<http://example.org/john>")
        stats = session.stats()
        assert stats.generation == session.generation
        assert stats.session["full_runs"] == 1
        assert stats.session["delta_rounds"] == 1
        assert stats.session["verdict_queries"] == 1
        assert stats.verdicts["maintained_pairs"] == 3
        assert stats.journal["tracked_subjects"] >= 1
        assert stats.store["triples"] == len(session.graph)

    def test_run_counters_never_decrease(self):
        # the session sums each run's stats: a second full run, a delta, a
        # journal-overflow rebuild (a new shared context) and another full
        # run each add exactly their own work to prefilter.* and profile.*
        workload = generate_community_workload(num_communities=3, seed=1)
        graph = Graph(journal_max_entries=2)
        with graph.batch():
            graph.add_all(workload.graph)
        session = ValidationSession(graph, workload.schema)
        # (block, key) of ServiceStats -> the MatchStats counter it sums
        counters = {("prefilter", "accepts"): "prefilter_accepts",
                    ("prefilter", "rejects"): "prefilter_rejects",
                    ("prefilter", "reference_checks"): "reference_checks",
                    ("profile", "signature_hits"): "signature_hits",
                    ("profile", "signature_misses"): "signature_misses",
                    ("profile", "signature_dedupes"): "signature_dedupes"}
        timers = ("signature_time", "prefilter_time", "dispatch_time",
                  "backtrack_time", "cache_time")
        people = sorted(graph.nodes(), key=lambda term: term.sort_key())

        def delta(subjects, full_rebuild):
            add = [Triple(node, FOAF_AGE, Literal("not a number"))
                   for node in subjects]
            _, result = session.apply_changes(add=add, allow_full_rebuild=True)
            assert result.full_rebuild is full_rebuild
            return result.delta.stats

        steps = [
            ("validate", lambda: session.validate().stats),
            ("validate again", lambda: session.validate().stats),
            ("delta", lambda: delta(people[:1], False)),
            ("overflow", lambda: delta(people[1:4], True)),
            ("validate after overflow", lambda: session.validate().stats),
        ]
        before = session.stats()
        for name, step in steps:
            run = step()
            after = session.stats()
            for (block, key), counter in counters.items():
                old = getattr(before, block).get(key, 0)
                new = getattr(after, block).get(key, 0)
                assert new >= old, (name, key)
                assert new - old == getattr(run, counter), (name, key)
            for key in timers:
                old = before.profile.get(key, 0.0)
                new = after.profile.get(key, 0.0)
                assert new >= old, (name, key)
                assert new - old == pytest.approx(getattr(run, key),
                                                  abs=2e-6), (name, key)
            before = after
        assert after.session["full_runs"] == 3
        assert after.session["delta_rounds"] == 2
        assert after.prefilter["rejects"] > 0

    def test_stats_round_trip_through_json(self, session):
        session.validate()
        stats = session.stats()
        from repro.service.api import ServiceStats

        assert ServiceStats.from_json(stats.to_json()) == stats
