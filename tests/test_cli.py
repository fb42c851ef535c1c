"""Tests for the command line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.workloads import PAPER_EXAMPLE_TURTLE, PERSON_SCHEMA_SHEXC


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
