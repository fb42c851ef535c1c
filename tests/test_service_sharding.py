"""Tests for the hash-sharded scheduler: deterministic partitioning, verdict
identity with the serial path, byte-identical wire responses across serial
and ``--shards`` server modes, and the settled-verdict merge protocol under
recursion (cycles, cross-shard rings, chains past the reference's budget)."""

from __future__ import annotations

import json

import pytest

from repro.rdf import EX, Graph
from repro.rdf.namespaces import FOAF
from repro.rdf.ntriples import iter_ntriples
from repro.rdf.terms import Literal, Triple
from repro.service import (
    DeltaRequest,
    ShardedValidator,
    ValidationSession,
    shard_of,
)
from repro.shex import BacktrackingEngine, Schema, Validator
from repro.shex.reference import MAX_RECURSION_DEPTH, ReferenceContext
from repro.shex.typing import ShapeLabel
from repro.workloads import (
    generate_community_workload,
    generate_person_workload,
    knows_cycle_graph,
    paper_example_graph,
    person_schema,
)


def community():
    return generate_community_workload(
        num_communities=4, people_per_community=6,
        invalid_fraction=0.25, seed=11)


def verdicts(report):
    return {(entry.node, str(entry.label)): entry.conforms for entry in report}


def sharded_report(graph, schema, **options):
    """One full ``ShardedValidator(shards=2)`` run; the fleet is closed after."""
    validator = ShardedValidator(graph, schema, shards=2, **options)
    try:
        return validator, validator.validate_graph()
    finally:
        validator.close_fleet()


def fix_delta(workload):
    """An N-Triples delta that repairs a couple of invalid people and breaks
    one valid one — exercises retraction in both directions."""
    broken = sorted(workload.invalid_nodes, key=lambda t: t.value)[:2]
    victim = sorted(workload.valid_nodes, key=lambda t: t.value)[0]
    add_lines = [f'{node.n3()} <http://xmlns.com/foaf/0.1/name> "Fixed" .'
                 for node in broken]
    add_lines.append(
        f'{victim.n3()} <http://xmlns.com/foaf/0.1/age> '
        '"second"^^<http://www.w3.org/2001/XMLSchema#integer> .')
    return "\n".join(add_lines) + "\n"


class TestShardOf:
    def test_deterministic_and_in_range(self):
        workload = community()
        nodes = workload.all_nodes
        for shards in (1, 2, 3, 8):
            buckets = [shard_of(node, shards) for node in nodes]
            assert all(0 <= b < shards for b in buckets)
            assert buckets == [shard_of(node, shards) for node in nodes]

    def test_spreads_nodes_across_shards(self):
        workload = community()
        buckets = {shard_of(node, 4) for node in workload.all_nodes}
        assert len(buckets) > 1  # 24 nodes cannot all hash to one shard


class TestShardedIdentity:
    def test_full_run_matches_serial(self):
        workload = community()
        serial = Validator(workload.graph, workload.schema).validate_graph()
        sharded = ShardedValidator(workload.graph, person_schema(),
                                   shards=2).validate_graph()
        assert len(serial) == len(sharded)
        serial_map = {(e.node, e.label): e.conforms for e in serial.entries}
        for entry in sharded.entries:
            assert serial_map[(entry.node, entry.label)] == entry.conforms

    def test_ground_truth_holds_under_sharding(self):
        workload = community()
        report = ShardedValidator(workload.graph, person_schema(),
                                  shards=3).validate_graph()
        verdicts = {entry.node: entry.conforms for entry in report.entries}
        for node in workload.valid_nodes:
            assert verdicts[node], f"{node} should conform"
        for node in workload.invalid_nodes:
            assert not verdicts[node], f"{node} should not conform"

    def test_shards_1_falls_back_to_serial(self):
        workload = community()
        validator = ShardedValidator(workload.graph, workload.schema, shards=1)
        report = validator.validate_graph()
        expected = Validator(community().graph,
                             person_schema()).validate_graph()
        assert {(e.node, e.label, e.conforms) for e in report.entries} == \
            {(e.node, e.label, e.conforms) for e in expected.entries}

    def test_delta_revalidation_matches_serial(self):
        serial_wl, sharded_wl = community(), community()
        delta = fix_delta(serial_wl)

        serial = ValidationSession(serial_wl.graph, serial_wl.schema)
        sharded = ValidationSession(sharded_wl.graph, sharded_wl.schema,
                                    shards=2)
        serial.validate()
        sharded.validate()
        serial_resp = serial.apply_delta(DeltaRequest(add=delta))
        sharded_resp = sharded.apply_delta(DeltaRequest(add=delta))
        assert not serial_resp.full_rebuild
        assert not sharded_resp.full_rebuild
        assert serial_resp.conforms == sharded_resp.conforms
        for node in serial_wl.all_nodes:
            lhs = serial.verdict(node)
            rhs = sharded.verdict(node)
            assert lhs.conforms == rhs.conforms, node


class TestByteIdentity:
    def test_default_verdict_json_identical_across_modes(self):
        """Serial and ``shards=2`` sessions must serialise every default
        (reason-less) verdict response byte-identically."""
        workloads = [community() for _ in range(2)]
        sessions = [
            ValidationSession(workloads[0].graph, workloads[0].schema),
            ValidationSession(workloads[1].graph, workloads[1].schema,
                              shards=2),
        ]
        delta = fix_delta(workloads[0])
        try:
            for session in sessions:
                session.validate()
                session.apply_delta(DeltaRequest(add=delta))
            for node in workloads[0].all_nodes:
                payloads = [
                    json.dumps(session.verdict(node).to_json(), sort_keys=True)
                    for session in sessions
                ]
                assert payloads[0] == payloads[1], node
        finally:
            for session in sessions:
                session.close()


class TestReplicaConfiguration:
    def test_replicas_run_the_production_caches(self):
        # replicas get no mode switches: they always run the production
        # configuration, so the repeated neighbourhood shapes of the person
        # workload hit the replicas' signature caches
        workload = generate_person_workload(num_people=30, seed=2)
        session = ValidationSession(workload.graph.copy(), workload.schema,
                                    shards=2)
        try:
            session.validate()
            workers = session.stats().fleet["workers"]
            assert len(workers) == 2
            assert sum(worker["signature_hits"] for worker in workers) > 0
            assert session.validator.signature_cache is not None
        finally:
            session.close()


class TestShardedDeltaMachinery:
    def test_delta_is_incremental_not_a_rebuild(self):
        workload = community()
        session = ValidationSession(workload.graph, workload.schema, shards=2)
        session.validate()
        response = session.apply_delta(DeltaRequest(add=fix_delta(workload)))
        assert not response.full_rebuild
        assert response.revalidated_pairs < len(workload.all_nodes)
        assert response.reused_pairs > 0

    def test_sharded_delta_matches_fresh_direct_run(self):
        workload = community()
        delta = fix_delta(workload)
        session = ValidationSession(workload.graph, workload.schema, shards=2)
        session.validate()
        session.apply_delta(DeltaRequest(add=delta))

        fresh = community()
        fresh.graph.add_all(iter_ntriples(delta))
        direct = Validator(fresh.graph, person_schema()).validate_graph()
        for entry in direct.entries:
            assert session.verdict(entry.node, entry.label).conforms == \
                entry.conforms, entry.node


class TestSettledVerdictProtocol:
    """The context-level merge contract the fleet rides on."""

    def test_seeded_verdicts_are_consulted(self):
        graph = paper_example_graph()
        schema = person_schema()
        validator = Validator(graph, schema)
        context = ReferenceContext(graph, schema,
                                   validator.engine.match_neighbourhood)
        label = ShapeLabel("Person")
        context.seed_settled(confirmed=[(EX.bob, label)])
        assert context.is_confirmed(EX.bob, label)
        context.seed_settled(failed=[(EX.mary, label)])
        assert context.is_failed(EX.mary, label)

    def test_settled_verdicts_round_trip(self):
        graph = paper_example_graph()
        schema = person_schema()
        validator = Validator(graph, schema)
        context = ReferenceContext(graph, schema,
                                   validator.engine.match_neighbourhood)
        for node in (EX.john, EX.bob, EX.mary):
            context.check_reference(node, "Person")
        confirmed, failed = context.settled_verdicts()
        other = ReferenceContext(graph, schema,
                                 validator.engine.match_neighbourhood)
        other.seed_settled(confirmed, failed)
        label = ShapeLabel("Person")
        assert other.is_confirmed(EX.john, label)
        assert other.is_confirmed(EX.bob, label)
        assert other.is_failed(EX.mary, label)

    def test_provisional_state_is_not_exported(self):
        # a context mid-validation would hold provisional entries; a settled
        # export straight after a clean run contains only definitive pairs
        graph, _ = knows_cycle_graph(4)
        schema = person_schema()
        validator = Validator(graph, schema)
        context = ReferenceContext(graph, schema,
                                   validator.engine.match_neighbourhood)
        assert context.check_reference(EX.cycle0, "Person").matched
        confirmed, failed = context.settled_verdicts()
        assert failed == ()
        # the whole cycle settled together once the outer frame resolved
        assert {node for node, _ in confirmed} == set(graph.nodes())


class TestShardedMerge:
    """Recursive cases of the merge: every shard derives cross-shard targets
    itself, and only settled verdicts may reach the coordinator."""

    def test_paper_example_matches_serial(self):
        graph = paper_example_graph()
        schema = person_schema()
        serial = Validator(graph, schema).validate_graph()
        _, sharded = sharded_report(graph, schema)
        assert verdicts(sharded) == verdicts(serial)
        # report ordering is canonical in both paths
        assert [(e.node, str(e.label)) for e in sharded.entries] == \
            [(e.node, str(e.label)) for e in serial.entries]
        assert sharded.typing == serial.typing

    def test_cycle_spanning_shards_conforms(self):
        # one reference cycle through every node: each shard's verdicts hang
        # on hypotheses about nodes the other shard owns
        graph, _ = knows_cycle_graph(8)
        assert len({shard_of(node, 2) for node in graph.nodes()}) == 2
        _, report = sharded_report(graph, person_schema())
        assert len(report) == 8
        assert report.conforms

    def test_recursive_rings_match_serial_and_ground_truth(self):
        workload = generate_community_workload(
            num_communities=3, people_per_community=6, seed=7)
        graph, schema = workload.graph, workload.schema
        serial = Validator(graph, schema).validate_graph()
        _, sharded = sharded_report(graph, schema)
        per_node = Validator(graph, schema, reference=True).validate_graph()
        assert verdicts(sharded) == verdicts(serial)
        # value semantics: equal typings with equal hashes
        assert serial.typing == sharded.typing == per_node.typing
        assert hash(serial.typing) == hash(sharded.typing) \
            == hash(per_node.typing)
        valid = set(workload.valid_nodes)
        for node in workload.all_nodes:
            assert sharded.typing.has(node, "Person") == (node in valid)

    def test_settled_verdicts_merge_into_coordinator_context(self):
        workload = generate_person_workload(num_people=10, seed=6)
        validator, _ = sharded_report(workload.graph, workload.schema)
        confirmed, failed = validator._bulk_context().settled_verdicts()
        label = ShapeLabel("Person")
        for node in workload.valid_nodes:
            assert (node, label) in confirmed
        for node in workload.invalid_nodes:
            assert (node, label) in failed

    def test_long_chains_merge_across_shards(self):
        # a knows chain longer than the reference's recursion budget:
        # production solves it without recursing, every verdict is final,
        # and the shards' settled tables merge into the serial verdicts
        length = MAX_RECURSION_DEPTH + 12
        graph = Graph()
        with graph.batch():
            for index in range(length):
                node = EX[f"chain{index:04d}"]
                graph.add(Triple(node, FOAF.age, Literal(20)))
                graph.add(Triple(node, FOAF.name, Literal(f"Chain {index}")))
                if index < length - 1:
                    graph.add(Triple(node, FOAF.knows,
                                     EX[f"chain{index + 1:04d}"]))
        schema = person_schema()
        serial = Validator(graph, schema).validate_graph()
        validator, sharded = sharded_report(graph, schema)
        assert verdicts(sharded) == verdicts(serial)
        assert sharded.conforms and len(sharded) == length
        assert not any(entry.limit_exceeded for entry in sharded)
        confirmed, failed = validator._bulk_context().settled_verdicts()
        assert {(entry.node, entry.label) for entry in sharded} <= set(confirmed)
        assert failed == ()

        # community rings, then one delta round that repairs two people
        # and breaks a third (and with it the ring members who know them)
        serial_wl, sharded_wl = community(), community()
        delta = fix_delta(serial_wl)
        serial_session = ValidationSession(serial_wl.graph, serial_wl.schema)
        sharded_session = ValidationSession(sharded_wl.graph,
                                            sharded_wl.schema, shards=2)
        try:
            assert verdicts(sharded_session.validate()) == \
                verdicts(serial_session.validate())
            serial_session.apply_delta(DeltaRequest(add=delta))
            sharded_session.apply_delta(DeltaRequest(add=delta))
            for node in serial_wl.all_nodes:
                lhs = serial_session.verdict(node)
                rhs = sharded_session.verdict(node)
                assert lhs.conforms == rhs.conforms, node
        finally:
            sharded_session.close()

    def test_backtracking_engine_agrees(self):
        workload = generate_community_workload(
            num_communities=3, people_per_community=4, seed=4)
        derivative = Validator(workload.graph, workload.schema)
        _, backtracking = sharded_report(workload.graph, workload.schema,
                                         engine="backtracking",
                                         budget=5_000_000)
        assert verdicts(backtracking) == \
            verdicts(derivative.validate_graph())

    def test_per_node_mode_is_rejected(self):
        validator = ShardedValidator(paper_example_graph(), person_schema(),
                                     shards=2, reference=True)
        with pytest.raises(ValueError, match="reference=True"):
            validator.validate_graph()

    def test_engine_objects_are_rejected(self):
        validator = ShardedValidator(paper_example_graph(), person_schema(),
                                     shards=2, engine=BacktrackingEngine())
        with pytest.raises(ValueError, match="name"):
            validator.validate_graph()

    def test_revalidate_derives_unsettled_demanded_chains(self):
        # a label-subset baseline can leave demanded reference chains
        # unsettled: A demands B of o only after the edit, and (o, B) in
        # turn recurses into t — the owning shard must derive the whole
        # unsettled chain from its replica
        schema = Schema.from_shexc("""
            PREFIX ex: <http://example.org/>
            PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
            <A> { ex:p @<B> * , ex:name xsd:string }
            <B> { ex:q @<C> * , ex:name xsd:string }
            <C> { ex:name xsd:string }
        """)
        graph = Graph()
        with graph.batch():
            graph.add(Triple(EX.s, EX.name, Literal("s")))
            graph.add(Triple(EX.o, EX.name, Literal("o")))
            graph.add(Triple(EX.o, EX.q, EX.t))
            graph.add(Triple(EX.t, EX.name, Literal("t")))
        validator = ShardedValidator(graph, schema, shards=2)
        try:
            validator.validate_graph(labels=["A"])
            graph.add(Triple(EX.s, EX.p, EX.o))
            validator.stage_fleet_delta([Triple(EX.s, EX.p, EX.o)], [])
            result = validator.revalidate(labels=["A"])
        finally:
            validator.close_fleet()
        assert not result.full_rebuild
        fresh = Validator(graph.copy(), schema).validate_graph(labels=["A"])
        assert verdicts(validator.maintained_report()) == verdicts(fresh)
        assert validator.maintained_report().entry_for(EX.s, "A").conforms
