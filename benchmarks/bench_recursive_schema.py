"""B5 — recursive schemas: validating chains, cycles and trees of references.

Section 8 extends the derivative algorithm with the typing context ``Γ``;
this benchmark measures whole-graph validation with the Person schema of
Example 14 over growing ``foaf:knows`` topologies, for both engines, plus
type inference over a mixed person workload.

Regenerate with::

    pytest benchmarks/bench_recursive_schema.py --benchmark-only
"""

import pytest

from repro.shex import Validator
from repro.workloads import (
    generate_person_workload,
    knows_chain_graph,
    knows_cycle_graph,
    knows_tree_graph,
    person_schema,
)

CHAIN_DEPTHS = [8, 32, 128]
CYCLE_LENGTHS = [8, 32, 128]
TREE_DEPTHS = [2, 4, 6]


def validate_head(graph, node, engine):
    validator = Validator(graph, person_schema(), engine=engine)
    report = validator.validate_map({node: "Person"})
    assert report.conforms
    return report


@pytest.mark.parametrize("depth", CHAIN_DEPTHS)
@pytest.mark.parametrize("engine", ["derivatives", "backtracking"])
def test_knows_chain(benchmark, engine, depth):
    graph, head = knows_chain_graph(depth)
    report = benchmark(validate_head, graph, head, engine)
    benchmark.extra_info["depth"] = depth
    benchmark.extra_info["reference_checks"] = report.stats.reference_checks


@pytest.mark.parametrize("length", CYCLE_LENGTHS)
def test_knows_cycle(benchmark, length):
    graph, start = knows_cycle_graph(length)
    benchmark(validate_head, graph, start, "derivatives")
    benchmark.extra_info["length"] = length


@pytest.mark.parametrize("depth", TREE_DEPTHS)
def test_knows_tree(benchmark, depth):
    graph, root = knows_tree_graph(depth, fanout=2)
    benchmark(validate_head, graph, root, "derivatives")
    benchmark.extra_info["nodes"] = 2 ** (depth + 1) - 1


@pytest.mark.parametrize("people", [20, 80])
def test_infer_typing_person_workload(benchmark, people):
    workload = generate_person_workload(num_people=people, invalid_fraction=0.25, seed=1)

    def infer():
        validator = Validator(workload.graph, workload.schema)
        typing = validator.infer_typing()
        assert set(typing.nodes()) >= set(workload.valid_nodes)
        return typing

    typing = benchmark(infer)
    benchmark.extra_info["people"] = people
    benchmark.extra_info["typed_nodes"] = len(typing)
