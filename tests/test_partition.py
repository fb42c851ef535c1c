"""Tests for the schema-level reference index (repro.shex.partition)."""

from __future__ import annotations

from repro.rdf import EX
from repro.rdf.namespaces import FOAF
from repro.shex import Schema
from repro.shex.expressions import arc, star
from repro.shex.partition import ReferenceIndex
from repro.shex.typing import ShapeLabel
from repro.workloads import person_schema


class TestReferenceIndex:
    def test_person_schema_maps_knows_to_person(self):
        index = ReferenceIndex(person_schema())
        assert index.has_references
        assert index.labels_for(FOAF.knows) == {ShapeLabel("Person")}
        assert index.labels_for(FOAF.age) == frozenset()

    def test_schema_without_references(self):
        schema = Schema.single("Flat", star(arc(EX.p, 1)))
        index = ReferenceIndex(schema)
        assert not index.has_references
        assert index.labels_for(EX.p) == frozenset()

    def test_multiple_labels_per_predicate(self):
        # ex:ref can demand both A and B of its target
        from repro.shex.node_constraints import shape_ref

        schema = Schema({
            "A": star(arc(EX.ref, shape_ref("B"))),
            "B": star(arc(EX.ref, shape_ref("A"))),
        })
        index = ReferenceIndex(schema)
        assert index.labels_for(EX.ref) == {ShapeLabel("A"), ShapeLabel("B")}
