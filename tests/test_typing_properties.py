"""Property-based tests for the typing algebra of Section 8.

Randomised sequences of ``add``/``combine``/``from_pairs`` are interpreted
twice: once over :class:`ShapeTyping` and once over a plain
dict-of-sets reference model, then compared.  On top of the model agreement,
the paper's algebra laws are asserted directly — ``⊎`` is associative,
commutative and idempotent, ``empty`` is its identity, ``add`` is
order-independent — and
``hash``/``eq`` must be consistent with the reference's value equality
regardless of how a typing was constructed (these are the merge-operator
laws the soundness of bulk confirmation rests on).  The validation context's
own mutable verdict store is driven through random confirm / fail / retract /
seed sequences against the same kind of model.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import EX, Graph
from repro.rdf.terms import IRI
from repro.shex import CompiledSchema, DerivativeEngine, ShapeLabel, ShapeTyping
from repro.shex.schema import FixpointContext
from repro.workloads import person_schema

#: small pools force overlap and per-node label unions
_NODES = [EX[f"node{i}"] for i in range(8)]
_LABELS = [ShapeLabel(name) for name in ("S0", "S1", "S2", "S3", "S4")]

#: one (node, label) association
pairs = st.tuples(st.sampled_from(_NODES), st.sampled_from(_LABELS))
#: a construction recipe: the sequence of associations added, in order
traces = st.lists(pairs, max_size=40)


def build(trace: List[Tuple[IRI, ShapeLabel]]) -> ShapeTyping:
    typing = ShapeTyping.empty()
    for node, label in trace:
        typing = typing.add(node, label)
    return typing


def model_of(trace: List[Tuple[IRI, ShapeLabel]]) -> Dict[IRI, Set[ShapeLabel]]:
    model: Dict[IRI, Set[ShapeLabel]] = {}
    for node, label in trace:
        model.setdefault(node, set()).add(label)
    return model


def contents(typing: ShapeTyping) -> Dict[IRI, FrozenSet[ShapeLabel]]:
    return dict(typing.items())


def frozen(model: Dict[IRI, Set[ShapeLabel]]) -> Dict[IRI, FrozenSet[ShapeLabel]]:
    return {node: frozenset(labels) for node, labels in model.items() if labels}


class TestAddAgainstTheReferenceModel:
    @given(trace=traces)
    def test_add_matches_the_dict_model(self, trace):
        typing = build(trace)
        model = model_of(trace)
        assert contents(typing) == {node: frozenset(labels)
                                    for node, labels in model.items()}
        assert len(typing) == len(model)
        for node, labels in model.items():
            assert typing.labels_for(node) == frozenset(labels)
            for label in labels:
                assert typing.has(node, label)

    @given(trace=traces, data=st.data())
    def test_add_is_order_independent(self, trace, data):
        shuffled = data.draw(st.permutations(trace))
        left, right = build(trace), build(shuffled)
        assert left == right
        assert hash(left) == hash(right)
        assert left.to_dict() == right.to_dict()
        assert repr(left) == repr(right)

    @given(trace=traces)
    def test_constructor_and_adds_agree(self, trace):
        # building through the public Mapping constructor must meet the
        # same value as accreting one association at a time
        model = model_of(trace)
        assert ShapeTyping(model) == build(trace)

    @given(trace=traces, extra=pairs)
    def test_adding_a_present_association_is_a_no_op(self, trace, extra):
        typing = build(trace).add(*extra)
        again = typing.add(*extra)
        assert again is typing

    @given(trace=traces)
    def test_from_pairs_matches_the_dict_model(self, trace):
        typing = ShapeTyping.from_pairs(trace)
        assert contents(typing) == frozen(model_of(trace))
        assert typing == build(trace)
        assert hash(typing) == hash(build(trace))


class TestCombineLaws:
    @given(a=traces, b=traces)
    def test_combine_matches_the_model_union(self, a, b):
        combined = build(a).combine(build(b))
        model = model_of(a + b)
        assert contents(combined) == {node: frozenset(labels)
                                      for node, labels in model.items()}

    @given(a=traces, b=traces)
    def test_combine_is_commutative(self, a, b):
        ta, tb = build(a), build(b)
        assert ta | tb == tb | ta

    @given(a=traces, b=traces, c=traces)
    @settings(max_examples=50)
    def test_combine_is_associative(self, a, b, c):
        ta, tb, tc = build(a), build(b), build(c)
        assert (ta | tb) | tc == ta | (tb | tc)

    @given(a=traces)
    def test_combine_is_idempotent(self, a):
        typing = build(a)
        assert typing | typing == typing

    @given(a=traces)
    def test_empty_is_the_identity(self, a):
        typing = build(a)
        assert typing | ShapeTyping.empty() == typing
        assert ShapeTyping.empty() | typing == typing
        # … returning the very same object, not just an equal one
        assert (typing | ShapeTyping.empty()) is typing

    @given(a=traces, extra=pairs)
    def test_add_is_combining_a_singleton(self, a, extra):
        typing = build(a)
        node, label = extra
        assert typing.add(node, label) == \
            typing.combine(ShapeTyping.single(node, label))

    @given(a=traces, b=traces)
    def test_combine_absorbs_subsumed_typings(self, a, b):
        # τ1 ⊎ (τ1 ⊎ τ2) == τ1 ⊎ τ2: combine with something already covered
        # by the left side changes nothing
        ta, tb = build(a), build(b)
        combined = ta | tb
        assert ta | combined == combined
        assert combined | ta == combined


class TestHashEqConsistency:
    @given(a=traces, b=traces)
    def test_eq_and_hash_follow_the_reference_model(self, a, b):
        ta, tb = build(a), build(b)
        model_equal = model_of(a) == model_of(b)
        assert (ta == tb) == model_equal
        if model_equal:
            assert hash(ta) == hash(tb)

    @given(a=traces, b=traces)
    def test_combined_typings_hash_consistently(self, a, b):
        # the same value reached through different operation trees
        # (combine vs sequential adds) must hash identically
        combined = build(a) | build(b)
        accreted = build(a + b)
        assert combined == accreted
        assert hash(combined) == hash(accreted)

    @given(a=traces)
    def test_hash_is_cached_after_first_use(self, a):
        typing = build(a)
        first = hash(typing)
        assert typing._hash is not None
        assert hash(typing) == first


# ------------------------------------------------- the context's verdict store
#: one mutation of a validation context's settled verdicts
context_ops = st.one_of(
    st.tuples(st.just("confirm"), pairs),
    st.tuples(st.just("fail"), pairs),
    st.tuples(st.just("retract"), st.lists(st.sampled_from(_NODES), max_size=4)),
    st.tuples(st.just("seed"), st.tuples(st.lists(pairs, max_size=4),
                                         st.lists(pairs, max_size=4))),
)


def _sorted_pairs(model: Dict[IRI, Set[ShapeLabel]]) -> tuple:
    return tuple((node, label)
                 for node in sorted(model, key=lambda term: term.sort_key())
                 for label in sorted(model[node]))


class TestContextVerdictStore:
    @given(ops=st.lists(context_ops, max_size=30))
    def test_context_matches_the_dict_model(self, ops):
        # retraction is production's: the store under test is a fixpoint
        # context's
        context = FixpointContext(Graph(), CompiledSchema(person_schema()),
                                  DerivativeEngine().match_neighbourhood)
        confirmed: Dict[IRI, Set[ShapeLabel]] = {}
        failed: Dict[IRI, Set[ShapeLabel]] = {}
        for op, arg in ops:
            if op == "confirm":
                context.confirm(*arg)
                confirmed.setdefault(arg[0], set()).add(arg[1])
            elif op == "fail":
                context.record_failure(*arg)
                failed.setdefault(arg[0], set()).add(arg[1])
            elif op == "retract":
                expected = sum(len(confirmed.pop(node, ())) + len(failed.pop(node, ()))
                               for node in set(arg))
                assert context.retract_nodes(arg) == expected
            else:
                seeded_confirmed, seeded_failed = arg
                context.seed_settled(seeded_confirmed, seeded_failed)
                for node, label in seeded_confirmed:
                    confirmed.setdefault(node, set()).add(label)
                for node, label in seeded_failed:
                    failed.setdefault(node, set()).add(label)
            for node in _NODES:
                for label in _LABELS:
                    assert context.is_confirmed(node, label) == \
                        (label in confirmed.get(node, ()))
                    assert context.is_failed(node, label) == \
                        (label in failed.get(node, ()))
            assert context.typing == ShapeTyping(confirmed)
            assert contents(context.typing) == frozen(confirmed)
            assert context.settled_counts() == {
                "confirmed": sum(map(len, confirmed.values())),
                "failed": sum(map(len, failed.values())),
            }
            assert context.settled_verdicts() == (_sorted_pairs(confirmed),
                                                  _sorted_pairs(failed))
