"""Tests for the dictionary-encoded columnar term store.

Covers the :class:`TermDictionary` id algebra, the ``ColumnarGraph`` store
contract (it must be observationally identical to the dict-backed
:class:`Graph`), segment/tombstone mechanics, streaming N-Triples ingest and the ``--store``
CLI flag.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.rdf import (
    EX,
    FOAF,
    XSD,
    BNode,
    ColumnarGraph,
    Graph,
    GraphError,
    IRI,
    Literal,
    TermDictionary,
    Triple,
    serialize_ntriples,
)
from repro.rdf.dictionary import BNODE_BASE, LITERAL_BASE
from repro.shex import Validator
from repro.workloads import (
    PAPER_EXAMPLE_TURTLE,
    PERSON_SCHEMA_SHEXC,
    generate_person_workload,
    paper_example_graph,
    person_schema,
)


def _verdicts(report):
    return {(entry.node, str(entry.label)): entry.conforms for entry in report}


class TestTermDictionary:
    def test_roundtrip_all_kinds(self):
        d = TermDictionary()
        terms = [
            IRI("http://example.org/a"),
            BNode("b0"),
            Literal("x"),
            Literal("7", datatype=XSD.integer),
            Literal("hola", lang="es"),
        ]
        ids = [d.encode(term) for term in terms]
        assert [d.decode(tid) for tid in ids] == terms
        assert len(d) == len(terms)

    def test_encoding_is_idempotent(self):
        d = TermDictionary()
        assert d.encode_iri("http://e/x") == d.encode_iri("http://e/x")
        assert d.encode(Literal(1)) == d.encode(Literal(1))
        assert len(d) == 2

    def test_per_kind_id_ranges(self):
        d = TermDictionary()
        iri = d.encode(IRI("http://e/i"))
        bnode = d.encode(BNode("b"))
        literal = d.encode(Literal("l"))
        assert 0 <= iri < BNODE_BASE
        assert BNODE_BASE <= bnode < LITERAL_BASE
        assert literal >= LITERAL_BASE
        assert d.is_iri_id(iri) and not d.is_iri_id(bnode)
        assert d.is_bnode_id(bnode) and not d.is_bnode_id(literal)
        assert d.is_literal_id(literal) and not d.is_literal_id(iri)
        assert d.is_subject_id(iri) and d.is_subject_id(bnode)
        assert not d.is_subject_id(literal)

    def test_lookup_never_interns(self):
        d = TermDictionary()
        assert d.lookup(IRI("http://e/unknown")) is None
        assert len(d) == 0
        tid = d.encode(IRI("http://e/known"))
        assert d.lookup(IRI("http://e/known")) == tid

    def test_decode_is_memoised_and_counted(self):
        d = TermDictionary()
        tid = d.encode_iri("http://e/x")
        assert d.decoded_terms == 0
        first = d.decode(tid)
        assert d.decoded_terms == 1
        assert d.decode(tid) is first
        assert d.decoded_terms == 1

    def test_sort_keys_match_term_sort_keys(self):
        d = TermDictionary()
        terms = [IRI("http://e/a"), BNode("b"), Literal("x"),
                 Literal("5", datatype=XSD.integer), Literal("hi", lang="en")]
        for term in terms:
            assert d.sort_key(d.encode(term)) == term.sort_key()

    def test_encode_rejects_non_terms(self):
        with pytest.raises(GraphError):
            TermDictionary().encode("not a term")  # type: ignore[arg-type]


class TestStoreContract:
    """ColumnarGraph answers every query exactly like the dict store."""

    @pytest.fixture
    def pair(self):
        dict_graph = paper_example_graph()
        columnar = ColumnarGraph(dict_graph, segment_size=4)
        return dict_graph, columnar

    def test_equality_across_stores(self, pair):
        dict_graph, columnar = pair
        assert len(dict_graph) == len(columnar)
        assert dict_graph == columnar
        assert columnar == dict_graph
        assert columnar.to_set() == dict_graph.to_set()

    def test_membership_and_patterns(self, pair):
        dict_graph, columnar = pair
        for triple in dict_graph:
            assert triple in columnar
        john = EX.john
        assert set(columnar.triples(subject=john)) \
            == set(dict_graph.triples(subject=john))
        assert set(columnar.triples(predicate=FOAF.age)) \
            == set(dict_graph.triples(predicate=FOAF.age))
        assert set(columnar.triples(obj=EX.bob)) \
            == set(dict_graph.triples(obj=EX.bob))
        assert set(columnar.triples(subject=john, predicate=FOAF.name)) \
            == set(dict_graph.triples(subject=john, predicate=FOAF.name))

    def test_neighbourhoods_and_degrees(self, pair):
        dict_graph, columnar = pair
        for node in dict_graph.nodes():
            assert columnar.neighbourhood(node) == dict_graph.neighbourhood(node)
            assert list(columnar.neighbourhood_ordered(node)) \
                == list(dict_graph.neighbourhood_ordered(node))
            assert set(columnar.neighbourhood_any(node)) \
                == set(dict_graph.neighbourhood_any(node))
            assert columnar.degree(node) == dict_graph.degree(node)
            assert columnar.predicate_counts(node) \
                == dict_graph.predicate_counts(node)
        assert set(columnar.nodes()) == set(dict_graph.nodes())

    def test_unknown_node_queries(self, pair):
        _, columnar = pair
        ghost = EX.nobody
        assert columnar.neighbourhood(ghost) == frozenset()
        assert list(columnar.neighbourhood_ordered(ghost)) == []
        assert list(columnar.neighbourhood_any(ghost)) == []
        assert columnar.degree(ghost) == 0
        assert columnar.predicate_counts(ghost) == {}
        assert list(columnar.triples(subject=ghost)) == []

    def test_in_edges_fast_path(self, pair):
        dict_graph, columnar = pair
        for node in dict_graph.all_nodes():
            expected = {(t.predicate, t.subject)
                        for t in dict_graph.triples(obj=node)}
            assert set(columnar.in_edges(node)) == expected

    def test_copy_and_union(self, pair):
        _, columnar = pair
        clone = columnar.copy()
        assert clone == columnar and clone is not columnar
        assert isinstance(clone, ColumnarGraph)
        clone.add(Triple(EX.new, FOAF.name, Literal("New")))
        assert len(clone) == len(columnar) + 1


class TestSegmentsAndTombstones:
    def test_tail_flushes_into_segments(self):
        graph = ColumnarGraph(segment_size=4)
        triples = [Triple(EX[f"s{i}"], FOAF.age, Literal(i)) for i in range(10)]
        graph.add_all(triples)
        stats = graph.store_stats()
        assert stats["segments"] == 2
        assert stats["segment_rows"] == 8
        assert stats["tail_rows"] == 2
        assert stats["peak_tail_rows"] <= 4
        assert len(graph) == 10
        assert set(graph) == set(triples)

    def test_duplicate_add_is_a_noop(self):
        graph = ColumnarGraph(segment_size=2)
        triple = Triple(EX.s, FOAF.age, Literal(1))
        generation = graph.add(triple).generation
        graph.add(triple)
        assert len(graph) == 1
        assert graph.generation == generation

    def test_discard_from_tail_and_segment(self):
        graph = ColumnarGraph(segment_size=2)
        seg_triple = Triple(EX.a, FOAF.age, Literal(1))
        graph.add(seg_triple)
        graph.add(Triple(EX.a, FOAF.name, Literal("A")))  # flushes a segment
        tail_triple = Triple(EX.b, FOAF.age, Literal(2))
        graph.add(tail_triple)
        assert graph.store_stats()["segments"] == 1

        graph.discard(tail_triple)  # tail removal: dropped directly
        assert tail_triple not in graph
        assert graph.store_stats()["tombstones"] == 0

        graph.discard(seg_triple)  # segment removal: tombstoned
        assert seg_triple not in graph
        assert graph.store_stats()["tombstones"] == 1
        assert len(graph) == 1
        assert set(graph.triples(subject=EX.a)) \
            == {Triple(EX.a, FOAF.name, Literal("A"))}

    def test_tombstoned_row_can_be_revived(self):
        graph = ColumnarGraph(segment_size=1)
        triple = Triple(EX.a, FOAF.age, Literal(1))
        graph.add(triple)
        graph.discard(triple)
        assert triple not in graph and len(graph) == 0
        graph.add(triple)
        assert triple in graph and len(graph) == 1
        assert graph.store_stats()["tombstones"] == 0

    def test_clear_keeps_dictionary_but_drops_triples(self):
        graph = ColumnarGraph(segment_size=2)
        graph.add(Triple(EX.a, FOAF.age, Literal(1)))
        generation = graph.generation
        dictionary_size = graph.store_stats()["dictionary"]["terms"]
        graph.clear()
        assert len(graph) == 0
        assert graph.generation > generation
        assert graph.changes_since(generation) is None  # journal truncated
        assert graph.store_stats()["dictionary"]["terms"] == dictionary_size

    def test_segment_size_must_be_positive(self):
        with pytest.raises(GraphError):
            ColumnarGraph(segment_size=0)


class TestJournalParity:
    def test_generation_and_changes_since_match_dict_store(self):
        ops = [
            ("add", Triple(EX.a, FOAF.age, Literal(1))),
            ("add", Triple(EX.b, FOAF.age, Literal(2))),
            ("remove", Triple(EX.a, FOAF.age, Literal(1))),
            ("add", Triple(EX.a, FOAF.name, Literal("A"))),
        ]
        dict_graph, columnar = Graph(), ColumnarGraph(segment_size=2)
        start_dict, start_col = dict_graph.generation, columnar.generation
        for kind, triple in ops:
            for graph in (dict_graph, columnar):
                graph.add(triple) if kind == "add" else graph.discard(triple)
        assert dict_graph.generation - start_dict \
            == columnar.generation - start_col
        assert columnar.changes_since(start_col) \
            == dict_graph.changes_since(start_dict)

    def test_batch_coalesces_and_blocks_changes_since(self):
        graph = ColumnarGraph(segment_size=2)
        before = graph.generation
        with graph.batch():
            graph.add(Triple(EX.a, FOAF.age, Literal(1)))
            graph.add(Triple(EX.a, FOAF.name, Literal("A")))
            with pytest.raises(GraphError):
                graph.changes_since(before)
        assert graph.changes_since(before) == frozenset({EX.a})

    def test_journal_overflow_answers_none(self):
        graph = ColumnarGraph(segment_size=2, journal_max_entries=2)
        before = graph.generation
        for i in range(8):
            graph.add(Triple(EX[f"s{i}"], FOAF.age, Literal(i)))
        assert graph.changes_since(before) is None


class TestStreamingIngest:
    def test_generator_ingest_stays_segment_bounded(self):
        segment_size = 16
        total = 100

        def lines():
            for i in range(total):
                yield (f"<http://example.org/s{i}> "
                       f"<http://xmlns.com/foaf/0.1/age> "
                       f'"{i}"^^<http://www.w3.org/2001/XMLSchema#integer> .')

        graph = ColumnarGraph(segment_size=segment_size)
        assert graph.ingest_ntriples(lines()) == total
        stats = graph.store_stats()
        assert stats["peak_tail_rows"] <= segment_size
        assert stats["segments"] == total // segment_size
        assert len(graph) == total

    def test_ingested_graph_validates_like_the_dict_store(self):
        workload = generate_person_workload(num_people=12, seed=3)
        data = serialize_ntriples(workload.graph)
        columnar = ColumnarGraph(segment_size=8)
        columnar.ingest_ntriples(data.splitlines())
        assert columnar == workload.graph
        dict_report = Validator(workload.graph, workload.schema).validate_graph()
        col_report = Validator(columnar, workload.schema).validate_graph()
        assert _verdicts(col_report) == _verdicts(dict_report)
        assert col_report.typing == dict_report.typing

    def test_parse_both_formats(self):
        nt = ('<http://example.org/a> <http://xmlns.com/foaf/0.1/name> '
              '"Ann" .')
        from_nt = ColumnarGraph.parse(nt, format="ntriples")
        assert len(from_nt) == 1
        from_ttl = ColumnarGraph.parse(PAPER_EXAMPLE_TURTLE, format="turtle")
        assert from_ttl == paper_example_graph()


class TestValidationParity:
    def test_verdicts_match_on_person_workload(self):
        workload = generate_person_workload(num_people=10, seed=5)
        columnar = ColumnarGraph(workload.graph, segment_size=16)
        dict_report = Validator(workload.graph, workload.schema).validate_graph()
        col_report = Validator(columnar, workload.schema).validate_graph()
        assert _verdicts(col_report) == _verdicts(dict_report)
        assert col_report.typing == dict_report.typing

    def test_revalidate_parity(self):
        workload = generate_person_workload(num_people=8, seed=7)
        columnar = ColumnarGraph(workload.graph, segment_size=16)
        validators = [Validator(workload.graph, workload.schema),
                      Validator(columnar, workload.schema)]
        for validator in validators:
            validator.validate_graph()
        victim = workload.valid_nodes[0]
        mutation = Triple(victim, FOAF.age, Literal(999))
        reports = []
        for graph, validator in ((workload.graph, validators[0]),
                                 (columnar, validators[1])):
            graph.add(mutation)
            reports.append(validator.revalidate().report)
        assert _verdicts(reports[0]) == _verdicts(reports[1])
        assert not _verdicts(reports[0])[(victim, "Person")]

    def test_validator_store_stats_passthrough(self):
        graph = ColumnarGraph(paper_example_graph())
        validator = Validator(graph, person_schema())
        assert validator.store_stats() == graph.store_stats()
        assert validator.store_stats()["store"] == "columnar"


class TestCliStoreFlag:
    @pytest.fixture
    def data_file(self, tmp_path):
        path = tmp_path / "people.ttl"
        path.write_text(PAPER_EXAMPLE_TURTLE, encoding="utf-8")
        return str(path)

    @pytest.fixture
    def nt_file(self, tmp_path):
        path = tmp_path / "people.nt"
        path.write_text(serialize_ntriples(paper_example_graph()),
                        encoding="utf-8")
        return str(path)

    @pytest.fixture
    def schema_file(self, tmp_path):
        path = tmp_path / "person.shex"
        path.write_text(PERSON_SCHEMA_SHEXC, encoding="utf-8")
        return str(path)

    def test_store_flags_agree(self, data_file, schema_file, capsys):
        outputs = {}
        for store in ("dict", "columnar"):
            code = main(["validate", "--data", data_file,
                         "--schema", schema_file, "--all-nodes",
                         "--store", store])
            outputs[store] = (code, capsys.readouterr().out)
        assert outputs["dict"] == outputs["columnar"]
        assert outputs["dict"][0] == 1  # :mary fails either way

    def test_columnar_ntriples_streams(self, nt_file, schema_file, capsys):
        code = main(["validate", "--data", nt_file, "--data-format", "ntriples",
                     "--schema", schema_file, "--all-nodes",
                     "--store", "columnar"])
        assert code == 1
        assert "2/3 conform" in capsys.readouterr().out

    def test_cache_stats_reports_store_counters(self, data_file, schema_file,
                                                capsys):
        main(["validate", "--data", data_file, "--schema", schema_file,
              "--all-nodes", "--store", "columnar", "--cache-stats"])
        err = capsys.readouterr().err
        assert "store-stats:" in err
        assert "store=columnar" in err
        assert "segments=" in err
        assert "index_bytes=" in err
        assert "dictionary-stats:" in err
        assert "decoded_terms=" in err

    def test_revalidate_with_columnar_store(self, data_file, schema_file,
                                            tmp_path, capsys):
        add = tmp_path / "add.ttl"
        add.write_text(
            "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n"
            "@prefix : <http://example.org/> .\n"
            ":mary foaf:name \"Mary\" .\n", encoding="utf-8")
        code = main(["revalidate", "--data", data_file,
                     "--schema", schema_file, "--add", str(add),
                     "--store", "columnar"])
        captured = capsys.readouterr()
        assert code == 1  # mary still has two ages
        assert "revalidate:" in captured.err
