"""Tests for the resident shard fleet: verdict identity with the serial
path, warm worker persistence, per-shard journal semantics (a single
shard's overflow must surface as a typed 409 *without* corrupting sibling
baselines), worker-death handling (typed 503 + heal-by-respawn), and the
client :class:`VerdictCache` under out-of-order generation observations."""

from __future__ import annotations

import json

import pytest

from repro.service import (
    DeltaRequest,
    ServiceError,
    ServiceStats,
    ShardedValidator,
    ValidationSession,
    VerdictCache,
    VerdictResponse,
)
from repro.shex import Validator
from repro.workloads import generate_community_workload, person_schema


def community():
    return generate_community_workload(
        num_communities=4, people_per_community=6,
        invalid_fraction=0.25, seed=11)


def build_session(shards=0):
    workload = community()
    session = ValidationSession(workload.graph, person_schema(), shards=shards)
    return workload, session


def round_delta(workload, round_index):
    """Alternate breaking and repairing a couple of people so every round
    dirties at least two subjects (on different shards with high odds)."""
    nodes = sorted(workload.all_nodes, key=lambda t: t.value)
    victim = nodes[round_index % len(nodes)]
    extra = nodes[(round_index + 7) % len(nodes)]
    bad_age = (f'{victim.n3()} <http://xmlns.com/foaf/0.1/age> '
               '"9999"^^<http://www.w3.org/2001/XMLSchema#integer> .\n')
    alias = (f'{extra.n3()} <http://xmlns.com/foaf/0.1/name> '
             f'"Alias {round_index}" .\n')
    if round_index % 2 == 0:
        return DeltaRequest(add=bad_age + alias)
    return DeltaRequest(remove=bad_age, add=alias)


def verdict_blob(session, workload):
    return tuple(
        json.dumps(session.verdict(node.n3()).to_json(), sort_keys=True)
        for node in sorted(workload.all_nodes, key=lambda t: t.value))


class TestResidentIdentity:
    def test_deltas_match_serial_with_warm_workers(self):
        """Several warm delta rounds: byte-identical responses and verdicts
        versus the serial session, with the same worker pids throughout."""
        w_serial, serial = build_session()
        w_fleet, fleet = build_session(shards=2)
        try:
            serial.validate()
            fleet.validate()
            stats = fleet.stats().to_json()["fleet"]
            assert stats["started"] and stats["workers_loaded"] == 2
            pids_before = stats["pids"]

            for round_index in range(4):
                delta = round_delta(w_serial, round_index)
                resp_serial = serial.apply_delta(delta)
                resp_fleet = fleet.apply_delta(delta)
                assert (json.dumps(resp_serial.to_json(), sort_keys=True)
                        == json.dumps(resp_fleet.to_json(), sort_keys=True))
                assert verdict_blob(serial, w_serial) \
                    == verdict_blob(fleet, w_fleet)

            stats = fleet.stats().to_json()["fleet"]
            assert stats["pids"] == pids_before  # resident, not re-forked
            assert stats["respawns"] == 0
            rounds = [worker["rounds"] for worker in stats["workers"]]
            assert all(r >= 4 for r in rounds)  # every shard ran every round
        finally:
            serial.close()
            fleet.close()

    def test_full_runs_match_serial_when_warm(self):
        workload = community()
        expected = Validator(workload.graph, workload.schema).validate_graph()
        expected_map = {(e.node, e.label): e.conforms
                        for e in expected.entries}
        sharded = ShardedValidator(community().graph, person_schema(),
                                   shards=3)
        try:
            first = sharded.validate_graph()
            second = sharded.validate_graph()  # warm: replicas re-run owned
            for report in (first, second):
                assert len(report) == len(expected)
                for entry in report.entries:
                    assert expected_map[(entry.node, entry.label)] \
                        == entry.conforms
        finally:
            sharded.close_fleet()

    def test_fleet_stats_line_in_format_text(self):
        _, fleet = build_session(shards=2)
        try:
            fleet.validate()
            rendered = fleet.stats().format_text()
            assert "fleet-stats: shards=2 workers_alive=2" in rendered
            assert "workers_alive=2" in rendered
        finally:
            fleet.close()
        plain = ServiceStats(fleet={"shards": 2}).format_text()
        assert "fleet-stats" not in plain  # only shown once workers started


class TestPerShardJournals:
    def test_single_shard_overflow_is_typed_409_and_siblings_survive(self):
        """A journal overflow on one shard surfaces as ``journal-overflow``
        (409) *before any* shard's baseline moves: the two-phase
        check-then-revalidate broadcast means sibling shards never run (their
        ``rounds`` counters stay put) and their journals never overflow."""
        workload, session = build_session(shards=2)
        try:
            # shard 0 gets a one-record journal; shard 1 keeps the default.
            session.validator._fleet_journal_limits = {0: 1}
            session.validate()
            before = {worker["shard"]: worker
                      for worker in session.stats().to_json()
                      ["fleet"]["workers"]}

            generation_before = session.generation
            with pytest.raises(ServiceError) as excinfo:
                session.apply_delta(round_delta(workload, 0))
            assert excinfo.value.code == "journal-overflow"
            assert excinfo.value.http_status == 409
            # the delta itself landed on the coordinator graph...
            assert session.generation > generation_before

            after = {worker["shard"]: worker
                     for worker in session.stats().to_json()
                     ["fleet"]["workers"]}
            # ...but no shard ran a revalidation round, and the sibling's
            # journal never overflowed: its baseline is intact.
            for shard in (0, 1):
                assert after[shard]["rounds"] == before[shard]["rounds"]
            assert after[0]["journal"]["overflows"] >= 1
            assert after[1]["journal"]["overflows"] == 0

            # recovery: opt into the full rebuild; the fleet reloads and the
            # verdicts match a fresh serial run over the mutated graph.
            session.validator._fleet_journal_limits = None
            response = session.apply_delta(
                DeltaRequest(allow_full_rebuild=True))
            assert response.full_rebuild
            expected = Validator(session.graph,
                                 person_schema()).validate_graph()
            for entry in expected.entries:
                verdict = session.verdict(entry.node.n3())
                assert verdict.conforms == entry.conforms
        finally:
            session.close()


class TestWorkerDeath:
    def test_dead_worker_mid_request_raises_typed_503(self):
        sharded = ShardedValidator(community().graph, person_schema(),
                                   shards=2)
        try:
            sharded.validate_graph()
            fleet = sharded._fleet
            worker = fleet.workers[0]
            worker.process.terminate()
            worker.process.join(timeout=10)
            with pytest.raises(ServiceError) as excinfo:
                fleet.request(worker, "stats", None)
            assert excinfo.value.code == "fleet-worker-died"
            assert excinfo.value.http_status == 503
            assert worker.failed
        finally:
            sharded.close_fleet()

    def test_next_delta_heals_dead_worker_by_respawn(self):
        """Killing a worker between rounds: the next delta respawns it,
        warm-loads the coordinator's current graph and still answers with
        verdicts identical to the serial session."""
        w_serial, serial = build_session()
        w_fleet, fleet = build_session(shards=2)
        try:
            serial.validate()
            fleet.validate()
            victim = fleet.validator._fleet.workers[0]
            victim.process.terminate()
            victim.process.join(timeout=10)

            delta = round_delta(w_serial, 0)
            resp_serial = serial.apply_delta(delta)
            resp_fleet = fleet.apply_delta(delta)
            assert (json.dumps(resp_serial.to_json(), sort_keys=True)
                    == json.dumps(resp_fleet.to_json(), sort_keys=True))
            assert verdict_blob(serial, w_serial) \
                == verdict_blob(fleet, w_fleet)

            stats = fleet.stats().to_json()["fleet"]
            assert stats["respawns"] >= 1
            assert stats["workers_alive"] == 2
        finally:
            serial.close()
            fleet.close()


class TestVerdictCacheOutOfOrderGenerations:
    """Interleaved deltas can complete out of order: a client may observe
    generation 12 from one response and only then see a late generation-10
    response.  The cache must never regress its high-water mark, never store
    a stale verdict, and never serve one."""

    def test_late_older_observation_does_not_regress_or_invalidate(self):
        cache = VerdictCache()
        cache.observe("g1", 10)
        fresh = VerdictResponse(node="<n>", shape="S", conforms=True,
                                generation=10)
        cache.put("g1", fresh)
        cache.observe("g1", 8)  # late ack of an older delta
        assert cache.latest_generation("g1") == 10
        assert cache.get("g1", "<n>", "S") is fresh
        assert cache.invalidations == 0

    def test_put_of_stale_verdict_is_dropped(self):
        cache = VerdictCache()
        cache.observe("g1", 10)
        cache.put("g1", VerdictResponse(node="<n>", shape="S", conforms=True,
                                        generation=8))
        assert len(cache) == 0
        assert cache.get("g1", "<n>", "S") is None  # miss, not a stale hit

    def test_newer_observation_invalidates_and_pinned_get_misses(self):
        cache = VerdictCache()
        cache.put("g1", VerdictResponse(node="<n>", shape="S", conforms=True,
                                        generation=10))
        cache.observe("g1", 12)
        assert cache.invalidations == 1
        # even a get pinned to the old generation cannot resurrect it
        assert cache.get("g1", "<n>", "S", generation=10) is None
        assert cache.get("g1", "<n>", "S") is None

    def test_generations_are_tracked_per_graph(self):
        cache = VerdictCache()
        cache.put("g1", VerdictResponse(node="<n>", shape="S", conforms=True,
                                        generation=5))
        cache.observe("g2", 99)  # another graph racing ahead
        assert cache.latest_generation("g1") == 5
        assert cache.get("g1", "<n>", "S") is not None
