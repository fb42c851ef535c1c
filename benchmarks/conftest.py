"""Shared helpers for the benchmark suite.

Every benchmark asserts the expected verdict before timing anything, so a
regression in correctness cannot hide behind a performance number.  The
``--benchmark-only`` flag of the pytest-benchmark plugin (each benchmark's
module docstring gives its command) skips the assertion-only runs pytest
would otherwise perform.
"""

from __future__ import annotations

import pytest

from repro.shex import BacktrackingEngine, DerivativeEngine


def run_case(engine, case):
    """Run one workload case on one engine and check the verdict."""
    result = engine.match_neighbourhood(case.expression, case.triples)
    assert result.matched == case.expected, (
        f"{getattr(engine, 'name', engine)} disagreed with the ground truth on {case.name}"
    )
    return result


@pytest.fixture
def derivative_engine() -> DerivativeEngine:
    return DerivativeEngine()


@pytest.fixture
def backtracking_engine() -> BacktrackingEngine:
    # generous budget: big enough for every configured case, small enough to
    # stop a runaway case from freezing the whole suite.
    return BacktrackingEngine(budget=5_000_000)
