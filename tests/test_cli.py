"""Tests for the command line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.rdf import EX, FOAF, Literal, Triple
from repro.service import ValidationSession
from repro.shex import Validator
from repro.workloads import (
    PAPER_EXAMPLE_TURTLE,
    PERSON_SCHEMA_SHEXC,
    paper_example_graph,
    person_schema,
)


def _library_run(reference: bool):
    """The paper example's ``validate_graph`` report, built in process."""
    return Validator(paper_example_graph(), person_schema(),
                     reference=reference).validate_graph()


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "people.ttl"
    path.write_text(PAPER_EXAMPLE_TURTLE, encoding="utf-8")
    return str(path)


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "person.shex"
    path.write_text(PERSON_SCHEMA_SHEXC, encoding="utf-8")
    return str(path)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_validate_arguments(self):
        args = build_parser().parse_args([
            "validate", "--data", "d.ttl", "--schema", "s.shex", "--all-nodes",
        ])
        assert args.command == "validate"
        assert args.engine == "derivatives"


class TestValidateCommand:
    @pytest.mark.parametrize("eol", ["\r\n", "\r"], ids=repr)
    def test_ntriples_line_ends_do_not_change_the_output(
            self, tmp_path, schema_file, capsys, eol):
        # the file reaches the N-Triples parser untranslated: \r and \r\n
        # end its lines, a raw U+2028 in a literal does not
        text = paper_example_graph().serialize("ntriples").replace(
            '"Robert"', '"Rob\u2028ert"')
        assert "\u2028" in text
        outputs = []
        for name, end in (("lf", "\n"), ("other", eol)):
            path = tmp_path / f"people.{name}.nt"
            path.write_bytes(text.replace("\n", end).encode("utf-8"))
            assert main(["validate", "--data", str(path), "--data-format",
                         "ntriples", "--schema", schema_file, "--all-nodes",
                         "--format", "csv"]) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") == 4  # a header and three nodes

    def test_all_nodes_text_output(self, data_file, schema_file, capsys):
        exit_code = main(["validate", "--data", data_file, "--schema", schema_file,
                          "--all-nodes"])
        output = capsys.readouterr().out
        assert exit_code == 1  # :mary fails
        assert "FAILS" in output
        assert "2/3 conform" in output

    def test_shape_map_conforming_only(self, data_file, schema_file, capsys):
        exit_code = main([
            "validate", "--data", data_file, "--schema", schema_file,
            "--shape-map", "<http://example.org/john>@<Person>",
        ])
        assert exit_code == 0
        assert "conforms" in capsys.readouterr().out

    def test_query_shape_map_from_file(self, data_file, schema_file, tmp_path, capsys):
        map_file = tmp_path / "map.smap"
        map_file.write_text("{FOCUS foaf:age _}@<Person>", encoding="utf-8")
        exit_code = main([
            "validate", "--data", data_file, "--schema", schema_file,
            "--shape-map-file", str(map_file), "--format", "summary",
        ])
        assert exit_code == 1
        assert "2/3 conform" in capsys.readouterr().out

    def test_json_output(self, data_file, schema_file, capsys):
        exit_code = main([
            "validate", "--data", data_file, "--schema", schema_file,
            "--all-nodes", "--format", "json", "--include-stats",
        ])
        data = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert data["conforms"] is False
        assert len(data["entries"]) == 3

    @pytest.mark.parametrize("reference", [False, True])
    def test_include_stats_is_one_top_level_record(self, data_file,
                                                   schema_file, reference,
                                                   capsys):
        flags = ["--reference"] if reference else []
        main(["validate", "--data", data_file, "--schema", schema_file,
              "--all-nodes", "--format", "json", "--include-stats"] + flags)
        data = json.loads(capsys.readouterr().out)
        assert all("stats" not in entry for entry in data["entries"])
        expected = _library_run(reference).stats.as_dict()
        assert set(data["stats"]) == set(expected)
        for key, value in expected.items():
            if not key.endswith("_time"):
                assert data["stats"][key] == value, key
        if reference:
            assert data["stats"]["signature_hits"] == 0
            assert data["stats"]["prefilter_rejects"] == 0
        else:
            assert data["stats"]["prefilter_rejects"] > 0
        main(["validate", "--data", data_file, "--schema", schema_file,
              "--all-nodes", "--format", "json"] + flags)
        assert "stats" not in json.loads(capsys.readouterr().out)

    def test_csv_output(self, data_file, schema_file, capsys):
        main(["validate", "--data", data_file, "--schema", schema_file,
              "--all-nodes", "--format", "csv"])
        output = capsys.readouterr().out
        assert output.startswith("node,shape,conforms")

    def test_backtracking_engine_option(self, data_file, schema_file, capsys):
        exit_code = main([
            "validate", "--data", data_file, "--schema", schema_file,
            "--shape", "Person", "--engine", "backtracking", "--format", "summary",
        ])
        assert exit_code == 1
        assert "2/3 conform" in capsys.readouterr().out

    def test_missing_selection_is_a_usage_error(self, data_file, schema_file, capsys):
        exit_code = main(["validate", "--data", data_file, "--schema", schema_file])
        assert exit_code == 2
        assert "choose" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "revalidate", "serve"])
    def test_removed_jobs_option_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", "d.ttl", "--schema", "s.shex",
                  "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_cache_stats_are_printed_to_stderr(self, data_file, schema_file, capsys):
        exit_code = main(["validate", "--data", data_file, "--schema", schema_file,
                          "--all-nodes", "--cache-stats", "--format", "summary"])
        err = capsys.readouterr().err
        assert exit_code == 1
        assert "cache-stats:" in err
        assert "hits=" in err and "evictions=" in err

    def test_cache_max_entries_bounds_the_cache(self, data_file, schema_file, capsys):
        exit_code = main(["validate", "--data", data_file, "--schema", schema_file,
                          "--all-nodes", "--cache-stats", "--cache-max-entries", "2",
                          "--format", "summary"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "max_entries=2" in captured.err
        assert "2/3 conform" in captured.out  # verdicts unchanged under eviction

    def test_store_stats_are_printed_with_cache_stats(self, data_file,
                                                      schema_file, capsys):
        main(["validate", "--data", data_file, "--schema", schema_file,
              "--all-nodes", "--cache-stats", "--format", "summary"])
        err = capsys.readouterr().err
        assert "store-stats: triples=8 cached_neighbourhoods=" in err
        assert " reverse_predicates=0\n" in err  # validate builds no bucket
        assert "dictionary-stats:" not in err

    def test_journal_stats_are_printed_with_cache_stats(self, data_file,
                                                        schema_file, capsys):
        exit_code = main(["validate", "--data", data_file, "--schema", schema_file,
                          "--all-nodes", "--cache-stats", "--format", "summary"])
        err = capsys.readouterr().err
        assert exit_code == 1
        assert "journal-stats:" in err
        assert "tracked_subjects=" in err

    def test_broken_schema_reports_parse_error(self, data_file, tmp_path, capsys):
        broken = tmp_path / "broken.shex"
        broken.write_text("<S> { not valid", encoding="utf-8")
        exit_code = main(["validate", "--data", data_file, "--schema", str(broken),
                          "--all-nodes"])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_oversized_schema_expansion_is_a_parse_error(self, data_file, tmp_path,
                                                         capsys):
        # ~10^8 expression nodes if the nested ( … )+ groups were expanded
        deep = tmp_path / "deep.shex"
        deep.write_text("<S> { " + "( " * 24 + "<http://example.org/p> ."
                        + " )+" * 24 + " }", encoding="utf-8")
        exit_code = main(["validate", "--data", data_file, "--schema", str(deep),
                          "--all-nodes"])
        assert exit_code == 2
        assert "expression nodes" in capsys.readouterr().err


class TestOtherCommands:
    def test_revalidate_applies_a_change_set_incrementally(
            self, data_file, schema_file, tmp_path, capsys):
        # :mary fails in the base data (duplicate age); the change set
        # repairs her, so the incremental pass must flip her to conforming
        fix = tmp_path / "fix.ttl"
        fix.write_text(
            "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n"
            "@prefix : <http://example.org/> .\n"
            ":mary foaf:age 65 .\n", encoding="utf-8")
        name = tmp_path / "name.ttl"
        name.write_text(
            "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n"
            "@prefix : <http://example.org/> .\n"
            ':mary foaf:name "Mary" .\n', encoding="utf-8")
        exit_code = main(["revalidate", "--data", data_file,
                          "--schema", schema_file,
                          "--add", str(name), "--remove", str(fix),
                          "--format", "summary", "--cache-stats"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "3/3 conform" in captured.out
        assert "revalidate: +1/-1 triples" in captured.err
        assert "dirty subject(s)" in captured.err
        assert "journal-stats:" in captured.err

    def test_revalidate_delta_only_output(self, data_file, schema_file,
                                          tmp_path, capsys):
        extra = tmp_path / "extra.ttl"
        extra.write_text(
            "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n"
            "@prefix : <http://example.org/> .\n"
            ":mary foaf:age 99 .\n", encoding="utf-8")
        exit_code = main(["revalidate", "--data", data_file,
                          "--schema", schema_file, "--add", str(extra),
                          "--delta-only", "--format", "summary"])
        captured = capsys.readouterr()
        assert exit_code == 1
        # only mary's pair was recomputed: the delta holds a single entry
        assert "0/1 conform" in captured.out

    @pytest.mark.parametrize("delta_only", [False, True])
    def test_revalidate_include_stats_is_one_top_level_record(
            self, data_file, schema_file, tmp_path, delta_only, capsys):
        extra = tmp_path / "extra.ttl"
        extra.write_text(
            "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n"
            "@prefix : <http://example.org/> .\n"
            ":mary foaf:age 99 .\n", encoding="utf-8")
        flags = ["--delta-only"] if delta_only else []
        main(["revalidate", "--data", data_file, "--schema", schema_file,
              "--add", str(extra), "--format", "json",
              "--include-stats"] + flags)
        data = json.loads(capsys.readouterr().out)
        assert all("stats" not in entry for entry in data["entries"])
        # the delta round's stats, or the full run's and the delta's summed
        session = ValidationSession(paper_example_graph(), person_schema())
        baseline = session.validate()
        _, result = session.apply_changes(
            add=[Triple(EX.mary, FOAF.age, Literal(99))])
        expected = result.delta.stats if delta_only \
            else baseline.stats.combined(result.delta.stats)
        assert set(data["stats"]) == set(expected.as_dict())
        for key, value in expected.as_dict().items():
            if not key.endswith("_time"):
                assert data["stats"][key] == value, key
        assert data["stats"]["reference_checks"] >= len(data["entries"])

    def test_revalidate_requires_a_change_set(self, data_file, schema_file,
                                              capsys):
        exit_code = main(["revalidate", "--data", data_file,
                          "--schema", schema_file])
        assert exit_code == 2
        assert "change set" in capsys.readouterr().err

    def test_check_schema(self, schema_file, capsys):
        assert main(["check-schema", schema_file]) == 0
        output = capsys.readouterr().out
        assert "1 shape(s)" in output and "recursive" in output

    def test_check_data(self, data_file, capsys):
        assert main(["check-data", data_file]) == 0
        assert "8 triples" in capsys.readouterr().out

    def test_check_data_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ttl"
        bad.write_text(":no :prefix :bound .", encoding="utf-8")
        assert main(["check-data", str(bad)]) == 2

    def test_sparql_select(self, data_file, tmp_path, capsys):
        query = tmp_path / "query.rq"
        query.write_text("""
            PREFIX foaf: <http://xmlns.com/foaf/0.1/>
            SELECT ?s { ?s foaf:knows ?o }
        """, encoding="utf-8")
        assert main(["sparql", "--data", data_file, "--query", str(query)]) == 0
        output = capsys.readouterr().out
        assert "john" in output and "1 solution(s)" in output

    def test_sparql_ask_false_sets_exit_code(self, data_file, tmp_path, capsys):
        query = tmp_path / "ask.rq"
        query.write_text("ASK { ?s <http://example.org/nothing> ?o }", encoding="utf-8")
        assert main(["sparql", "--data", data_file, "--query", str(query)]) == 1
        assert "false" in capsys.readouterr().out

    def test_generate_person_workload(self, tmp_path, capsys):
        output_file = tmp_path / "generated.ttl"
        exit_code = main(["generate-workload", "--kind", "person", "--size", "10",
                          "--seed", "3", "--output", str(output_file)])
        assert exit_code == 0
        content = output_file.read_text(encoding="utf-8")
        assert "person workload" in content
        assert "foaf:age" in content

    def test_generate_portal_workload_to_stdout(self, capsys):
        exit_code = main(["generate-workload", "--kind", "portal", "--size", "5"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "portal workload" in output
        assert "dcat:" in output
