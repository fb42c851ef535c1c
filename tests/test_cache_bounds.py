"""Tests for the LRU-bounded derivative and signature caches."""

from __future__ import annotations

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


class TestBoundedInternTables:
    """The expression interning tables honour an explicit bound (ROADMAP)."""

    def setup_method(self):
        from repro.shex.expressions import clear_intern_tables, set_intern_limit

        set_intern_limit(None)
        clear_intern_tables()

    teardown_method = setup_method

    def test_unbounded_by_default(self):
        from repro.shex.expressions import expression_cache_stats

        stats = expression_cache_stats()
        assert stats["limit"] == 0
        assert stats["evictions"] == 0

    def test_rejects_nonpositive_limits(self):
        from repro.shex.expressions import set_intern_limit

        with pytest.raises(ValueError):
            set_intern_limit(0)

    def test_interning_honours_the_limit(self):
        from repro.rdf.namespaces import EX
        from repro.shex.expressions import (
            arc,
            expression_cache_stats,
            set_intern_limit,
        )

        set_intern_limit(8)
        for index in range(50):
            arc(EX[f"p{index}"], index)
        stats = expression_cache_stats()
        assert stats["interned"] <= 8
        assert stats["evictions"] > 0

    def test_setting_a_smaller_limit_trims_existing_tables(self):
        from repro.rdf.namespaces import EX
        from repro.shex.expressions import (
            arc,
            expression_cache_stats,
            set_intern_limit,
        )

        for index in range(20):
            arc(EX[f"q{index}"], index)
        set_intern_limit(4)
        assert expression_cache_stats()["interned"] <= 4

    def test_evicted_expressions_keep_structural_equality(self):
        from repro.rdf.namespaces import EX
        from repro.shex.expressions import arc, set_intern_limit

        set_intern_limit(1)
        first = arc(EX.a, 1)
        arc(EX.b, 2)  # evicts the first entry
        again = arc(EX.a, 1)
        assert first == again  # equal, even if no longer pointer-equal

    def test_size_cache_honours_the_limit(self):
        from repro.rdf.namespaces import EX
        from repro.shex.expressions import (
            arc,
            expression_cache_stats,
            expression_size,
            interleave_all,
            set_intern_limit,
        )

        set_intern_limit(4)
        expr = interleave_all(*[arc(EX[f"r{i}"], i) for i in range(10)])
        assert expression_size(expr) == 19  # 10 arcs + 9 interleave nodes
        assert expression_cache_stats()["sizes"] <= 4

    def test_verdicts_survive_a_tiny_intern_limit(self):
        from repro.shex.expressions import set_intern_limit

        baseline = generate_person_workload(num_people=15, seed=5)
        plain = verdicts(Validator(baseline.graph, baseline.schema).validate_graph())
        set_intern_limit(2)
        workload = generate_person_workload(num_people=15, seed=5)
        bounded = verdicts(Validator(workload.graph, workload.schema).validate_graph())
        assert bounded == plain
