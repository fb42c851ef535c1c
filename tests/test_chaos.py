"""Chaos suite: randomized seeded fault schedules against the resident
fleet service, asserting the surviving service **converges** — after
bounded idempotent retries the verdicts are byte-identical to a fault-free
run, no delta is ever double-applied, and degraded reads answer inside
every outage window.

Fault schedules are sampled from the *transient* region of the hit space.
Occurrence counters restart when a worker respawns, and a healed worker
deterministically replays the same short command prefix (``load``,
``check``, ``revalidate``, ``verdicts`` → response occurrences 0–3, first
``revalidate`` at occurrence 0), so a spec whose hit lands inside that
replay window re-fires on every fresh process: that models a deterministic
poison-pill bug, not a transient fault, and no amount of retrying can
converge it.  Hits outside the window fire once and heal.

The window only holds while one shard fails rounds.  A failed round is
retried on *every* shard, so a shard that answered it replays ``check`` and
``revalidate`` once more.  With round-failing faults on both shards, each
shard's failure pushes the other, freshly respawned, shard to its own
fault occurrence: shard 0 drops its response at hit 4 because shard 1
crashed the round, shard 1 crashes again because shard 0 dropped, forever
(seeds 910 and 1698 drew such plans).  That pair is a poison pill too, so
the plans put every round-failing fault on one shard."""

from __future__ import annotations

import functools
import json
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import (
    DeltaRequest,
    FaultPlan,
    FaultSpec,
    ServiceError,
    ValidationSession,
)
from repro.workloads import generate_community_workload, person_schema

ROUNDS = 3
MAX_ATTEMPTS = 6

# (point, convergent hit choices): see the module docstring for why the
# revalidate crashes exclude hit 0 and the drop excludes hits 0-3.
TRANSIENT_FAULTS = (
    ("fleet.crash-before-apply", (0, 1, 2)),
    ("fleet.crash-after-apply", (0, 1, 2)),
    ("fleet.crash-before-revalidate", (1, 2, 3)),
    ("fleet.crash-after-revalidate", (1, 2, 3)),
    ("fleet.drop-response", (4, 5, 6)),
    ("fleet.stall", (0, 1, 2, 3)),
)

#: faults that fail a whole delta round (and so force every shard to retry
#: it); apply crashes are tolerated at staging and stalls only slow a round.
ROUND_FAILING = frozenset({
    "fleet.crash-before-revalidate",
    "fleet.crash-after-revalidate",
    "fleet.drop-response",
})


def community():
    return generate_community_workload(
        num_communities=2, people_per_community=4,
        invalid_fraction=0.25, seed=11)


def round_delta(workload, round_index):
    nodes = sorted(workload.all_nodes, key=lambda t: t.value)
    victim = nodes[round_index % len(nodes)]
    extra = nodes[(round_index + 3) % len(nodes)]
    bad_age = (f'{victim.n3()} <http://xmlns.com/foaf/0.1/age> '
               '"9999"^^<http://www.w3.org/2001/XMLSchema#integer> .\n')
    alias = (f'{extra.n3()} <http://xmlns.com/foaf/0.1/name> '
             f'"Alias {round_index}" .\n')
    if round_index % 2 == 0:
        return DeltaRequest(add=bad_age + alias, delta_id=f"round-{round_index}")
    return DeltaRequest(remove=bad_age, add=alias,
                        delta_id=f"round-{round_index}")


def verdict_blob(session, workload):
    return tuple(
        json.dumps(session.verdict(node.n3()).to_json(), sort_keys=True)
        for node in sorted(workload.all_nodes, key=lambda t: t.value))


def response_key(response):
    """The convergence-relevant part of a DeltaResponse.

    A retried round may re-derive different revalidation *work* stats
    (a healed shard reports an empty delta and serves its pairs from the
    fresh baseline), but what the delta did to the graph and what the
    verdicts became must be identical."""
    return (response.generation, response.added, response.removed,
            response.conforms)


def transient_plan(seed: int) -> FaultPlan:
    """A random schedule drawn entirely from the transient hit region.

    Round-failing faults all land on the shard the first of them drew (see
    the module docstring for the cross-shard livelock this rules out).
    """
    rng = random.Random(seed)
    specs = []
    failing_shard = None
    for point, hit_choices in TRANSIENT_FAULTS:
        if rng.random() < 0.5:
            continue
        shard = rng.randrange(2)
        if point in ROUND_FAILING:
            if failing_shard is None:
                failing_shard = shard
            shard = failing_shard
        specs.append(FaultSpec(
            point=point,
            shard=shard,
            hits=(rng.choice(hit_choices),),
            delay=0.3 if point == "fleet.stall" else 0.0,
        ))
    return FaultPlan(specs=tuple(specs), seed=seed)


@functools.lru_cache(maxsize=1)
def fault_free_run():
    """The reference run every faulty schedule must converge to."""
    workload = community()
    session = ValidationSession(workload.graph, person_schema())
    try:
        session.validate()
        keys = tuple(response_key(session.apply_delta(
            round_delta(workload, i))) for i in range(ROUNDS))
        return (keys, verdict_blob(session, workload), len(session.graph),
                session.generation)
    finally:
        session.close()


def check_degraded_window(session, workload):
    """Inside an outage window a degraded read must answer (or be a typed
    verdict-unavailable), never a stale-baseline refusal or a crash."""
    node = sorted(workload.all_nodes, key=lambda t: t.value)[0]
    try:
        verdict = session.verdict(node.n3(), allow_degraded=True)
    except ServiceError as error:
        assert error.code == "verdict-unavailable"
        return
    if verdict.degraded:
        assert isinstance(verdict.missing_shards, tuple)


class TestSeededFaultSchedulesConverge:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @example(seed=910)
    @example(seed=1698)
    def test_faulty_run_converges_to_fault_free_verdicts(self, seed):
        expected_keys, expected_blob, expected_len, expected_generation = \
            fault_free_run()
        plan = transient_plan(seed)
        workload = community()
        session = ValidationSession(workload.graph, person_schema(),
                                    shards=2, fault_plan=plan,
                                    fleet_response_timeout=2.0)
        try:
            session.validate()
            keys = []
            for index in range(ROUNDS):
                request = round_delta(workload, index)
                last_error = None
                for _attempt in range(MAX_ATTEMPTS):
                    try:
                        keys.append(response_key(
                            session.apply_delta(request)))
                        break
                    except ServiceError as error:
                        # only the injected outage modes may surface, and
                        # degraded reads must answer inside the window.
                        assert error.http_status == 503, error
                        assert error.code == "fleet-worker-died", error
                        last_error = error
                        check_degraded_window(session, workload)
                else:
                    raise AssertionError(
                        f"delta {index} never converged under plan "
                        f"{plan.to_json()}: {last_error}")

            # convergence: byte-identical verdicts, identical graph state,
            # every delta applied exactly once.
            assert tuple(keys) == expected_keys
            assert verdict_blob(session, workload) == expected_blob
            assert len(session.graph) == expected_len
            assert session.generation == expected_generation
            stats = session.stats().to_json()["session"]
            assert stats["delta_rounds"] == ROUNDS
        finally:
            session.close()


class TestReplayStormsNeverDoubleApply:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_duplicate_sends_are_replayed_not_reapplied(self, seed):
        """A client retrying over-eagerly (duplicates of every delta, in
        bursts) must observe the exact original responses; the graph and
        generation advance as if each delta was sent once."""
        expected_keys, expected_blob, expected_len, expected_generation = \
            fault_free_run()
        rng = random.Random(seed)
        workload = community()
        session = ValidationSession(workload.graph, person_schema())
        try:
            session.validate()
            replays = 0
            for index in range(ROUNDS):
                request = round_delta(workload, index)
                first = session.apply_delta(request)
                for _dup in range(rng.randrange(1, 4)):
                    replays += 1
                    assert session.apply_delta(request) == first
                if rng.random() < 0.5:  # a stale duplicate of an OLD delta
                    old = round_delta(workload, rng.randrange(index + 1))
                    replays += 1
                    session.apply_delta(old)
                assert response_key(first) == expected_keys[index]
            assert verdict_blob(session, workload) == expected_blob
            assert len(session.graph) == expected_len
            assert session.generation == expected_generation
            stats = session.stats().to_json()["session"]
            assert stats["delta_rounds"] == ROUNDS
            assert stats["replayed_deltas"] == replays
        finally:
            session.close()


class TestFaultPlansAreReproducible:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_schedule_round_trips_and_replays_deterministically(self, seed):
        """The schedule a chaos run prints as its failure artifact must
        rebuild the exact same plan — the whole point of seeded faults."""
        plan = transient_plan(seed)
        assert transient_plan(seed) == plan
        assert len({spec.shard for spec in plan.specs
                    if spec.point in ROUND_FAILING}) <= 1
        assert FaultPlan.from_json(
            json.loads(json.dumps(plan.to_json()))) == plan
