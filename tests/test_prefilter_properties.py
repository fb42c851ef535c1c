"""Property-based tests: the compiled-schema prefilter agrees with the engine.

The prefilter may answer ``accept``, ``reject`` or ``unknown`` for any
``(expression, neighbourhood)`` pair.  Its soundness contract is one-sided
agreement with the derivative engine of Section 7:

* a prefilter **accept** implies the engine accepts,
* a prefilter **reject** implies the engine rejects,
* ``unknown`` implies nothing.

The expressions drawn here mix value sets, datatype constraints and
multi-predicate sets; the neighbourhood universe deliberately contains a
predicate no expression mentions (exercising the closed-world rule),
duplicate predicates (cardinality bounds) and objects of the wrong type
(value screens).  The prefilter reads a node's ``predicate → objects``
buckets, so each drawn neighbourhood is fed to it as
``Graph(triples).predicate_objects(NODE)``.

A reject's reason must not depend on hashing either: the last test
validates one subject in two interpreters with different hash seeds.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

import repro
from repro.rdf import EX, XSD, Graph, Literal, Triple
from repro.shex import arc, datatype, matches, value_set
from repro.shex.compiled import CompiledShape
from repro.shex.expressions import EMPTY, EPSILON, And, Or, ShapeExpr, Star
from repro.shex.node_constraints import PredicateSet
from repro.shex.typing import ShapeLabel

NODE = EX.n
PREDICATES = [EX.a, EX.b]
#: EX.c never occurs in any exact predicate set: triples carrying it are
#: only acceptable to wildcard- or stem-predicate arcs.
EXTRA_PREDICATE = EX.c
OBJECTS = [Literal(1), Literal(2), Literal("x")]
UNIVERSE = [Triple(NODE, predicate, obj)
            for predicate in PREDICATES + [EXTRA_PREDICATE]
            for obj in OBJECTS]

LABEL = ShapeLabel("S")


def constraints() -> st.SearchStrategy:
    return st.one_of(
        st.builds(lambda values: value_set(*values),
                  st.lists(st.sampled_from([1, 2, "x"]), min_size=1,
                           max_size=2, unique=True)),
        st.just(datatype(XSD.integer)),
        st.just(datatype(XSD.string)),
    )


def predicate_sets() -> st.SearchStrategy[PredicateSet]:
    return st.one_of(
        st.sampled_from([PredicateSet.single(p) for p in PREDICATES]),
        st.just(PredicateSet(PREDICATES)),          # multi-predicate arc
        st.just(PredicateSet(any_predicate=True)),  # wildcard arc
        # stems: one covering the whole universe (including EXTRA_PREDICATE),
        # one covering only EX.a — exercises _sound_bounds stem coverage,
        # allowed_stems and the screen stem-exclusion
        st.just(PredicateSet(stem="http://example.org/")),
        st.just(PredicateSet(stem=EX.a.value)),
    )


def arcs() -> st.SearchStrategy[ShapeExpr]:
    return st.builds(lambda ps, c: arc(ps, c), predicate_sets(), constraints())


def expressions() -> st.SearchStrategy[ShapeExpr]:
    return st.recursive(
        # raw ∅ / ε leaves exercise the statically-empty pruning of the
        # first-predicate sets (the smart constructors would fold them away)
        st.one_of(arcs(), st.just(EMPTY), st.just(EPSILON)),
        lambda children: st.one_of(
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Star, children),
        ),
        max_leaves=6,
    )


def neighbourhoods() -> st.SearchStrategy[frozenset]:
    return st.frozensets(st.sampled_from(UNIVERSE), max_size=5)


class TestPrefilterAgreement:
    @settings(max_examples=300, deadline=None)
    @given(expression=expressions(), triples=neighbourhoods())
    def test_decisions_agree_with_the_derivative_engine(self, expression, triples):
        shape = CompiledShape(LABEL, expression)
        decision = shape.prefilter(Graph(triples).predicate_objects(NODE))
        if decision is None:
            return  # unknown: the engine decides, nothing to check
        assert decision.matched == matches(expression, triples), (
            f"prefilter said {decision.matched} ({decision.reason!r}) but the "
            f"engine disagrees on {expression.to_str()}"
        )

    @settings(max_examples=150, deadline=None)
    @given(expression=expressions())
    def test_empty_neighbourhood_is_always_decided(self, expression):
        shape = CompiledShape(LABEL, expression)
        decision = shape.prefilter(Graph().predicate_objects(NODE))
        assert decision is not None
        assert decision.matched == matches(expression, frozenset())


#: four screened predicates, and one subject all four of whose objects miss:
#: every screen fails, so the reason names whichever bucket is walked first.
FOUR_SCREENS_SHEX = """PREFIX ex: <http://example.org/>
<S> { ex:a [ex:x] ; ex:b [ex:y] ; ex:c [ex:z] ; ex:d [ex:w] }
"""
FOUR_SCREENS_TTL = """@prefix ex: <http://example.org/> .
ex:n ex:a ex:p ; ex:b ex:q ; ex:c ex:r ; ex:d ex:s .
"""


class TestReasonsDoNotDependOnHashing:
    def test_screen_reason_is_the_same_under_two_hash_seeds(self, tmp_path):
        (tmp_path / "s.shex").write_text(FOUR_SCREENS_SHEX)
        (tmp_path / "d.ttl").write_text(FOUR_SCREENS_TTL)
        src = str(Path(repro.__file__).resolve().parent.parent)
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "validate", "--data", "d.ttl",
                 "--schema", "s.shex", "--all-nodes", "--format", "csv"],
                cwd=tmp_path, env=env, capture_output=True, text=True,
                timeout=120)
            assert completed.returncode == 1, completed.stderr
            outputs.append(completed.stdout)
        assert outputs[0] == outputs[1]
        assert ("<http://example.org/n>,S,false,a <http://example.org/a> "
                "triple's object") in outputs[0]
