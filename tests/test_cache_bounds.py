"""Tests for the LRU-bounded derivative and signature caches and the weak
expression interning table."""

from __future__ import annotations

import gc

import pytest

from repro.rdf import EX, XSD, Graph, Literal, Triple
from repro.shex import Schema, Validator, arc, datatype, star
from repro.shex.cache import DerivativeCache
from repro.workloads import generate_person_workload


def verdicts(report):
    return {(entry.node, str(entry.label)): entry.conforms for entry in report}


class TestBoundedCache:
    def test_unbounded_by_default(self):
        cache = DerivativeCache()
        assert cache.max_entries is None
        assert cache.stats()["max_entries"] == 0
        assert cache.stats()["evictions"] == 0

    def test_rejects_nonpositive_bounds(self):
        with pytest.raises(ValueError):
            DerivativeCache(max_entries=0)
        with pytest.raises(ValueError):
            DerivativeCache(max_entries=-3)

    def test_derivative_table_stays_within_the_bound(self):
        workload = generate_person_workload(num_people=30, seed=1)
        validator = Validator(workload.graph, workload.schema,
                              cache_max_entries=4)
        validator.validate_graph()
        stats = validator.engine.cache.stats()
        assert stats["derivatives"] <= 4
        assert stats["expressions"] <= 4  # the atom table honours the bound too
        assert stats["evictions"] > 0

    def test_eviction_never_changes_verdicts(self):
        workload = generate_person_workload(num_people=25, seed=2)
        unbounded = Validator(workload.graph, workload.schema)
        tiny = Validator(workload.graph, workload.schema, cache_max_entries=2)
        assert verdicts(tiny.validate_graph()) == verdicts(unbounded.validate_graph())

    def test_lru_recency_protects_hot_entries(self):
        cache = DerivativeCache(max_entries=2)
        from repro.rdf.namespaces import EX
        from repro.shex.expressions import arc, star

        hot = star(arc(EX.a, 1))
        cold = star(arc(EX.b, 1))
        third = star(arc(EX.c, 1))
        cache.store(hot, (True,), hot)
        cache.store(cold, (True,), cold)
        assert cache.lookup(hot, (True,)) is hot   # refresh hot's recency
        cache.store(third, (True,), third)         # evicts cold, not hot
        assert cache.lookup(hot, (True,)) is hot
        assert cache.lookup(cold, (True,)) is None
        assert cache.evictions == 1

    def test_clear_resets_eviction_counter(self):
        cache = DerivativeCache(max_entries=1)
        from repro.rdf.namespaces import EX
        from repro.shex.expressions import arc

        cache.store(arc(EX.a, 1), (True,), arc(EX.a, 1))
        cache.store(arc(EX.b, 1), (True,), arc(EX.b, 1))
        assert cache.evictions == 1
        cache.clear()
        assert cache.evictions == 0
        assert len(cache) == 0

    def test_bounded_cache_travels_to_shard_workers(self):
        # each worker rebuilds its validator with the coordinator's bound
        from repro.service import ShardedValidator

        workload = generate_person_workload(num_people=12, seed=3)
        serial = Validator(workload.graph, workload.schema)
        sharded = ShardedValidator(workload.graph, workload.schema, shards=2,
                                   cache_max_entries=64)
        assert sharded._load_payload(("Person",), [], 0)[-1] == 64
        try:
            assert verdicts(sharded.validate_graph()) == \
                verdicts(serial.validate_graph())
        finally:
            sharded.close_fleet()


class TestSignatureCacheEdges:
    """``cache_max_entries`` bounds the signature table too, exact at N."""

    BOUND = 4

    @staticmethod
    def graph_with_signatures(count):
        # subject i has i + 1 integer arcs: ``count`` distinct signatures
        graph = Graph()
        with graph.batch():
            for index in range(count):
                for value in range(index + 1):
                    graph.add(Triple(EX[f"s{index}"], EX.p, Literal(value)))
        return graph

    @pytest.mark.parametrize("count", [BOUND - 1, BOUND, BOUND + 1])
    def test_size_and_evictions_at_the_bound(self, count):
        schema = Schema({"S": star(arc(EX.p, datatype(XSD.integer)))})
        graph = self.graph_with_signatures(count)
        bounded = Validator(graph, schema, cache_max_entries=self.BOUND)
        report = bounded.validate_graph()
        stats = bounded.signature_cache.stats()
        assert stats["max_entries"] == self.BOUND
        assert stats["dedupes"] == count
        assert stats["signatures"] == min(count, self.BOUND)
        assert stats["evictions"] == max(0, count - self.BOUND)
        unbounded = Validator(graph, schema).validate_graph()
        assert verdicts(report) == verdicts(unbounded)
        assert report.conforms


class TestWeakInternTable:
    """The expression interning table holds its nodes weakly: an expression
    nothing references drops out by itself, and a live one is reused."""

    def test_unreferenced_expressions_drop_out(self):
        from repro.shex.expressions import expression_cache_stats

        gc.collect()
        before = expression_cache_stats()["interned"]
        for index in range(1_000):
            arc(EX[f"weak{index}"], index)
        gc.collect()
        assert abs(expression_cache_stats()["interned"] - before) <= 4

    def test_live_expressions_stay_identical(self):
        first = star(arc(EX.a, 1))
        for index in range(50):
            arc(EX[f"other{index}"], index)
        gc.collect()
        assert star(arc(EX.a, 1)) is first

    def test_verdicts_survive_rebuilt_expressions(self):
        baseline = generate_person_workload(num_people=15, seed=5)
        plain = verdicts(Validator(baseline.graph, baseline.schema).validate_graph())
        del baseline
        gc.collect()
        workload = generate_person_workload(num_people=15, seed=5)
        rebuilt = verdicts(Validator(workload.graph, workload.schema).validate_graph())
        assert rebuilt == plain
