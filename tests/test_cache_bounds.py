"""Tests for the memo tables bounded by construction and the weak expression
interning table.

Every production memo table holds at most a module constant's worth of
entries, and a store into a full table clears it first
(:func:`repro.shex.cache.bounded_store`).  The tests monkeypatch the
constants to small values and check the edges with counters, never a clock.
"""

from __future__ import annotations

import gc

import pytest

import repro.shex.cache as cache_module
import repro.shex.compiled as compiled_module
from repro.rdf import EX, FOAF, XSD, Graph, Literal, Triple
from repro.service import ValidationSession
from repro.shex import Schema, Validator, arc, datatype, star
from repro.shex.cache import (
    MAX_DERIVATIVE_CACHE_ENTRIES,
    MAX_SIGNATURE_CACHE_ENTRIES,
    DerivativeCache,
    SignatureCache,
)
from repro.workloads import generate_person_workload


def verdicts(report):
    return {(entry.node, str(entry.label)): entry.conforms for entry in report}


def entries(report):
    return [(entry.node, entry.label, entry.conforms, entry.reason)
            for entry in report]


def set_bounds(patch, signatures=None, derivatives=None, signature_atoms=None):
    """Monkeypatch the bound constants that are given."""
    for module, name, value in (
            (cache_module, "MAX_SIGNATURE_CACHE_ENTRIES", signatures),
            (cache_module, "MAX_DERIVATIVE_CACHE_ENTRIES", derivatives),
            (compiled_module, "MAX_SIGNATURE_ATOM_ENTRIES", signature_atoms)):
        if value is not None:
            patch.setattr(module, name, value)


def table_sizes(validator):
    """``{table: (entries, bound)}`` for every production memo table."""
    derivative = validator.engine.cache
    return {
        "signatures": (len(validator.signature_cache),
                       cache_module.MAX_SIGNATURE_CACHE_ENTRIES),
        "derivatives": (len(derivative._derivatives),
                        cache_module.MAX_DERIVATIVE_CACHE_ENTRIES),
        "atoms": (len(derivative._atoms),
                  cache_module.MAX_DERIVATIVE_CACHE_ENTRIES),
        "signature_atoms": (len(validator.compiled._signature_atoms),
                            compiled_module.MAX_SIGNATURE_ATOM_ENTRIES),
    }


def evictions(validator):
    return (validator.signature_cache.evictions, validator.engine.cache.evictions,
            validator.compiled.signature_atom_evictions)


class TestBoundedCache:
    def test_bounded_by_default(self):
        derivative, signature = DerivativeCache(), SignatureCache()
        assert derivative.stats()["max_entries"] == MAX_DERIVATIVE_CACHE_ENTRIES
        assert signature.stats()["max_entries"] == MAX_SIGNATURE_CACHE_ENTRIES
        assert derivative.stats()["evictions"] == 0
        assert signature.stats()["evictions"] == 0

    def test_rejects_nonpositive_bounds(self):
        # every bound is a positive module constant; no caller can pass one
        for bound in (MAX_DERIVATIVE_CACHE_ENTRIES, MAX_SIGNATURE_CACHE_ENTRIES,
                      compiled_module.MAX_SIGNATURE_ATOM_ENTRIES):
            assert isinstance(bound, int) and bound > 0
        for value in (0, -3, 4):
            with pytest.raises(TypeError):
                DerivativeCache(max_entries=value)
            with pytest.raises(TypeError):
                SignatureCache(max_entries=value)

    def test_derivative_table_stays_within_the_bound(self, monkeypatch):
        set_bounds(monkeypatch, derivatives=4)
        workload = generate_person_workload(num_people=30, seed=1)
        validator = Validator(workload.graph, workload.schema)
        validator.validate_graph()
        stats = validator.engine.cache.stats()
        assert stats["max_entries"] == 4
        assert stats["derivatives"] <= 4
        assert stats["expressions"] <= 4  # the atom table honours the bound too
        assert stats["evictions"] > 0

    def test_eviction_never_changes_verdicts(self, monkeypatch):
        workload = generate_person_workload(num_people=25, seed=2)
        unbounded = Validator(workload.graph, workload.schema).validate_graph()
        set_bounds(monkeypatch, signatures=2, derivatives=2, signature_atoms=2)
        tiny = Validator(workload.graph, workload.schema)
        assert entries(tiny.validate_graph()) == entries(unbounded)
        assert all(evictions(tiny)), evictions(tiny)

    def test_a_store_into_a_full_table_clears_it(self, monkeypatch):
        set_bounds(monkeypatch, derivatives=2)
        cache = DerivativeCache()
        first, second, third = (star(arc(EX[name], 1)) for name in "abc")
        cache.store(first, (True,), first)
        cache.store(second, (True,), second)
        assert cache.lookup(first, (True,)) is first  # a hit refreshes nothing
        cache.store(third, (True,), third)
        assert len(cache) == 1 and cache.evictions == 2
        assert cache.lookup(first, (True,)) is None
        assert cache.lookup(third, (True,)) is third

    def test_clear_resets_eviction_counter(self, monkeypatch):
        set_bounds(monkeypatch, derivatives=1)
        cache = DerivativeCache()
        cache.store(arc(EX.a, 1), (True,), arc(EX.a, 1))
        cache.store(arc(EX.b, 1), (True,), arc(EX.b, 1))
        assert cache.evictions == 1
        cache.clear()
        assert cache.evictions == 0
        assert len(cache) == 0

    def test_bounded_cache_travels_to_shard_workers(self):
        # a shard replica builds its validator from the load payload alone:
        # the payload carries no cache bound, the replica's caches are
        # bounded by the same constants (built in process: no worker starts)
        from repro.service import ShardedValidator
        from repro.service.fleet import _ShardReplica

        workload = generate_person_workload(num_people=12, seed=3)
        sharded = ShardedValidator(workload.graph, workload.schema, shards=2)
        payload = sharded._load_payload(("Person",), list(workload.graph), 0)
        schema, engine_spec, compiled, triples, labels, journal_bound = payload
        replica = _ShardReplica(0, 2, schema, engine_spec, compiled, triples,
                                journal_bound)
        replica.run(labels)
        assert replica.validator.signature_cache.stats()["max_entries"] \
            == MAX_SIGNATURE_CACHE_ENTRIES
        assert replica.validator.engine.cache.stats()["max_entries"] \
            == MAX_DERIVATIVE_CACHE_ENTRIES


class TestSignatureCacheEdges:
    """The signature table at its bound: N entries stay, entry N + 1 clears."""

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
    def test_size_and_evictions_at_the_bound(self, count, monkeypatch):
        schema = Schema({"S": star(arc(EX.p, datatype(XSD.integer)))})
        graph = self.graph_with_signatures(count)
        unbounded = Validator(graph, schema).validate_graph()
        set_bounds(monkeypatch, signatures=self.BOUND)
        bounded = Validator(graph, schema)
        report = bounded.validate_graph()
        stats = bounded.signature_cache.stats()
        assert stats["max_entries"] == self.BOUND
        assert stats["dedupes"] == count
        assert stats["signatures"] == (count if count <= self.BOUND else 1)
        assert stats["evictions"] == (0 if count <= self.BOUND else self.BOUND)
        assert entries(report) == entries(unbounded)
        assert report.conforms


class TestLongLivedSession:
    """50 writes, each making new typed signatures, against small bounds."""

    WRITES = 50

    def test_tables_stay_bounded_and_reports_stay_exact(self, monkeypatch):
        workload = generate_person_workload(num_people=10, seed=1)
        graph, schema = workload.graph, workload.schema
        with monkeypatch.context() as patch:
            set_bounds(patch, signatures=4, derivatives=3, signature_atoms=2)
            session = ValidationSession(graph, schema)
            session.validate()
        for write in range(self.WRITES):
            # subject w<i> carries i + 1 names: a typed signature no earlier
            # subject had; even writes also break the age of a base person
            subject = EX[f"w{write}"]
            add = [Triple(subject, FOAF.age, Literal(20 + write)),
                   Triple(subject, FOAF.knows, EX[f"person{write % 10}"])]
            add += [Triple(subject, FOAF.name, Literal(f"name {index}"))
                    for index in range(write + 1)]
            if write % 2 == 0:
                add.append(Triple(EX[f"person{write % 10}"], FOAF.age,
                                  Literal(f"not a number {write}")))
            with monkeypatch.context() as patch:
                set_bounds(patch, signatures=4, derivatives=3, signature_atoms=2)
                session.apply_changes(add=add)
                sizes = table_sizes(session.validator)
            for table, (size, bound) in sizes.items():
                assert size <= bound, (write, table, size, bound)
            fresh = Validator(graph, schema).validate_graph()
            assert entries(session.validator.maintained_report()) \
                == entries(fresh), write
        assert all(evictions(session.validator)), evictions(session.validator)


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
