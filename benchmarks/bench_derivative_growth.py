"""B2 — derivative growth (Example 10) and the cost of representing derivatives.

Section 7 notes that "the main complexity of the algorithm comes from the
process of calculating and representing derivatives of shape expressions" and
Example 10 shows an expression whose derivative grows.  This benchmark
measures the derivative engine on the balanced-alternation workload
``(a→V | b→V)*`` and on the owing-interleave workload ``(a→V ‖ b→V)*`` and
records the peak expression size alongside the running time.

Regenerate with::

    pytest benchmarks/bench_derivative_growth.py --benchmark-only
"""

import pytest

from conftest import run_case
from repro.rdf import EX, Literal, Triple
from repro.shex import arc, interleave, star, value_set
from repro.workloads import NeighbourhoodCase, balanced_alternation_case

BALANCED_PAIRS = [2, 4, 8, 16]
#: the owing-interleave derivative grows (Example 10), but with canonical
#: ``‖`` and ``|`` only quadratically: one match takes 297 derivative steps
#: at 8 pairs and 1,045 at 16 (peak sizes 117 and 357).
OWING_PAIRS = [2, 4, 8, 16]


def owing_interleave_case(pairs: int) -> NeighbourhoodCase:
    """``(a→V ‖ b→V)*`` with ``pairs`` a/b pairs — the derivative grows here."""
    values = value_set(*range(1, max(2, pairs) + 1))
    expression = star(interleave(arc(EX.a, values), arc(EX.b, values)))
    node = EX.subject
    triples = set()
    for index in range(pairs):
        triples.add(Triple(node, EX.a, Literal(index + 1)))
        triples.add(Triple(node, EX.b, Literal(index + 1)))
    return NeighbourhoodCase(
        name=f"owing-{pairs}", expression=expression, node=node,
        triples=frozenset(triples), expected=True,
        parameters={"pairs": pairs},
    )


@pytest.mark.parametrize("pairs", BALANCED_PAIRS)
def test_balanced_alternation(benchmark, derivative_engine, pairs):
    case = balanced_alternation_case(pairs)
    result = benchmark(run_case, derivative_engine, case)
    benchmark.extra_info["triples"] = case.size
    benchmark.extra_info["max_expression_size"] = result.stats.max_expression_size


@pytest.mark.parametrize("pairs", OWING_PAIRS)
def test_owing_interleave(benchmark, derivative_engine, pairs):
    case = owing_interleave_case(pairs)
    result = benchmark(run_case, derivative_engine, case)
    benchmark.extra_info["triples"] = case.size
    benchmark.extra_info["max_expression_size"] = result.stats.max_expression_size


@pytest.mark.parametrize("pairs", [2, 4])
def test_owing_interleave_backtracking(benchmark, backtracking_engine, pairs):
    """The same growing workload on the baseline, for the B2 comparison row."""
    case = owing_interleave_case(pairs)
    result = benchmark(run_case, backtracking_engine, case)
    benchmark.extra_info["triples"] = case.size
    benchmark.extra_info["decompositions"] = result.stats.decompositions
