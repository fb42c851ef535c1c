"""Every production bulk call solves its pairs in one worklist.

``validate_graph``, ``revalidate`` (with affected subjects),
``validate_map``, ``infer_typing`` and ``conforming_nodes`` demand all of
their unsettled pairs into one :class:`~repro.shex.schema.FixpointContext`
worklist and call ``_solve`` exactly once; a call whose pairs are all
settled already does not solve at all.  The graph is three independent
``foaf:knows`` rings, one of them broken, so a solve per pair (or per
reference component) would show up as several calls.
"""

from __future__ import annotations

import pytest

from repro.rdf import EX, FOAF, Graph, Literal, Triple
from repro.shex import Validator
from repro.shex.schema import FixpointContext
from repro.workloads import person_schema

PERSON = "Person"


def _rings() -> Graph:
    """Rings of 3, 4 and 5 people; the 4-ring's first member has no name."""
    graph = Graph()
    with graph.batch():
        for ring, size in enumerate((3, 4, 5)):
            people = [EX[f"r{ring}p{index}"] for index in range(size)]
            for index, person in enumerate(people):
                graph.add(Triple(person, FOAF.age, Literal(20 + index)))
                if (ring, index) != (1, 0):
                    graph.add(Triple(person, FOAF.name, Literal(f"p{index}")))
                graph.add(Triple(person, FOAF.knows,
                                 people[(index + 1) % size]))
    return graph


@pytest.fixture
def spy(monkeypatch):
    """Count ``_solve`` calls and record every pair ``_decide`` matches."""
    calls = {"solve": 0, "decide": []}
    solve, decide = FixpointContext._solve, FixpointContext._decide

    def counting_solve(self, *args):
        calls["solve"] += 1
        return solve(self, *args)

    def recording_decide(self, pair):
        calls["decide"].append(pair)
        return decide(self, pair)

    monkeypatch.setattr(FixpointContext, "_solve", counting_solve)
    monkeypatch.setattr(FixpointContext, "_decide", recording_decide)
    return calls


def _reset(calls) -> None:
    calls["solve"] = 0
    calls["decide"].clear()


def test_validate_graph_solves_once_and_bounds_the_lane_passes(spy):
    graph = _rings()
    report = Validator(graph, person_schema()).validate_graph()
    assert spy["solve"] == 1
    failed = [entry for entry in report if not entry.conforms]
    assert {entry.node for entry in failed} == {
        EX[f"r1p{index}"] for index in range(4)}
    # every pair is matched once, each fallen pair's reader once more (each
    # ring member is read by one other), and each failure with a reference
    # bit is explained once under the final typing
    open_failures = sum(1 for entry in failed if graph.degree(entry.node))
    assert len(spy["decide"]) <= len(report) + len(failed) + open_failures


def test_every_bulk_call_solves_once_and_settled_pairs_never(spy):
    graph = _rings()
    subjects = sorted(graph.nodes(), key=lambda term: term.sort_key())
    shape_map = {node: PERSON for node in subjects}

    calls = [
        ("validate_map", lambda v: v.validate_map(shape_map)),
        ("infer_typing", lambda v: v.infer_typing()),
        ("conforming_nodes", lambda v: v.conforming_nodes(PERSON)),
        ("validate_graph", lambda v: v.validate_graph()),
    ]
    for name, call in calls:
        validator = Validator(_rings(), person_schema())
        _reset(spy)
        call(validator)
        assert spy["solve"] == 1, name
        # the same pairs again: all settled, so no solve and no lane pass
        # except the failure explanations
        for again_name, again in calls:
            _reset(spy)
            again(validator)
            assert spy["solve"] == 0, (name, again_name)


def test_revalidate_solves_the_affected_subjects_once(spy):
    graph = _rings()
    validator = Validator(graph, person_schema())
    validator.validate_graph()
    # mend the broken ring and break the 5-ring: two affected components
    graph.add(Triple(EX.r1p0, FOAF.name, Literal("mended")))
    graph.discard(Triple(EX.r2p0, FOAF.age, Literal(20)))
    _reset(spy)
    result = validator.revalidate()
    assert not result.full_rebuild
    assert len(result.delta) == 9
    assert spy["solve"] == 1
    assert {entry.node for entry in result.delta if not entry.conforms} == {
        EX[f"r2p{index}"] for index in range(5)}
    _reset(spy)
    assert len(validator.revalidate().delta) == 0
    assert spy["solve"] == 0
