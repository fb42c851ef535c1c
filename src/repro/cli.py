"""Command line interface: validate RDF data against ShEx schemas.

The CLI makes the library usable without writing Python::

    python -m repro validate --data people.ttl --schema person.shex \
        --shape-map '<http://example.org/john>@<Person>' --format text

    python -m repro validate --data people.ttl --schema person.shex --all-nodes

    # the paper's reference semantics: fresh context per node, no caches
    python -m repro validate --data people.ttl --schema person.shex \
        --all-nodes --reference

    python -m repro check-schema person.shex
    python -m repro check-data people.ttl
    python -m repro sparql --data people.ttl --query query.rq
    python -m repro generate-workload --kind person --size 50 --output people.ttl

    # validation as a service: warm schema + maintained verdicts over HTTP
    python -m repro serve --schema person.shex --port 8080 --data people.ttl

Exit status: 0 when everything conforms (or the syntax check passes),
1 when at least one node fails validation, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .rdf import Graph, ParseError
from .service.api import ServiceError
from .shex import Schema, SchemaError
from .shex.derivatives import DerivativeBudgetExceeded
from .shex.reporting import format_csv, format_text, report_to_json, summarize
from .shex.validator import ValidationReport

__all__ = ["main", "build_parser"]


def _at_least(minimum: int, kind=int):
    """An argparse ``type`` that parses ``kind`` and rejects values below
    ``minimum`` — a limit is checked once, at parsing, with exit status 2."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {text}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RDF validation with Shape Expressions and regular expression derivatives",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    validate = subparsers.add_parser(
        "validate", help="validate RDF data against a ShEx schema")
    validate.add_argument("--data", required=True, help="path to a Turtle or N-Triples file")
    validate.add_argument("--data-format", choices=["turtle", "ntriples"], default="turtle")
    validate.add_argument("--schema", required=True, help="path to a ShExC schema file")
    validate.add_argument("--shape-map", help="shape map text (e.g. '<node>@<Shape>')")
    validate.add_argument("--shape-map-file", help="path to a shape map file")
    validate.add_argument("--all-nodes", action="store_true",
                          help="validate every subject node against every shape")
    validate.add_argument("--shape", help="validate all nodes against this single shape label")
    validate.add_argument("--engine", choices=["derivatives", "backtracking", "sparql"],
                          default="derivatives",
                          help="matching engine: 'derivatives' (the paper's linear "
                               "algorithm, default), 'backtracking' (the exponential "
                               "inference-rule baseline) or 'sparql' (approximate)")
    validate.add_argument("--reference", action="store_true",
                          help="the paper's reference semantics: a fresh "
                               "context per node and no compiled-schema, "
                               "signature or derivative caches.  Verdicts "
                               "equal the default production run (only "
                               "failure reasons may be worded differently); "
                               "it is the oracle the fast paths are checked "
                               "against, and much slower")
    validate.add_argument("--cache-stats", nargs="?", const="text",
                          choices=["text", "json"], default=None,
                          help="print the unified ServiceStats counters "
                               "(store/journal/prefilter/cache) to stderr after "
                               "validation; '=json' emits the same structure "
                               "GET /stats serves")
    validate.add_argument("--format", choices=["text", "json", "csv", "summary"],
                          default="text", dest="output_format")
    validate.add_argument("--include-stats", action="store_true",
                          help="include the run's work counters in JSON output")

    revalidate = subparsers.add_parser(
        "revalidate",
        help="validate, apply a change set, then revalidate incrementally")
    revalidate.add_argument("--data", required=True,
                            help="path to the base Turtle or N-Triples file")
    revalidate.add_argument("--data-format", choices=["turtle", "ntriples"],
                            default="turtle")
    revalidate.add_argument("--schema", required=True,
                            help="path to a ShExC schema file")
    revalidate.add_argument("--add", metavar="FILE",
                            help="RDF file whose triples are added to the graph")
    revalidate.add_argument("--remove", metavar="FILE",
                            help="RDF file whose triples are removed from the graph")
    revalidate.add_argument("--shape",
                            help="revalidate against this single shape label "
                                 "(default: every shape)")
    revalidate.add_argument("--delta-only", action="store_true",
                            help="print only the recomputed (delta) entries "
                                 "instead of the full updated report")
    revalidate.add_argument("--cache-stats", nargs="?", const="text",
                            choices=["text", "json"], default=None,
                            help="print the unified ServiceStats counters and "
                                 "revalidation stats to stderr ('=json' for "
                                 "the machine-readable structure)")
    revalidate.add_argument("--format", choices=["text", "json", "csv", "summary"],
                            default="text", dest="output_format")
    revalidate.add_argument("--include-stats", action="store_true",
                            help="include the runs' work counters in JSON output")

    serve = subparsers.add_parser(
        "serve",
        help="long-lived validation service: warm schema, maintained "
             "verdicts, JSON over HTTP",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="endpoints:\n"
               "  POST   /graphs                full validation, returns the graph id\n"
               "  POST   /graphs/{id}/delta     incremental delta round (idempotent\n"
               "                                via the request's delta_id)\n"
               "  GET    /graphs/{id}/verdicts  ?node=&shape=&reason=1&allow_degraded=1\n"
               "  GET    /graphs/{id}/stats     per-graph ServiceStats\n"
               "  GET    /stats                 every graph's ServiceStats\n"
               "  GET    /healthz               lock-free liveness + fleet health\n"
               "                                (status: ok | degraded)\n"
               "  DELETE /graphs/{id}           drop the graph and close its session")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 picks an ephemeral port and prints it)")
    serve.add_argument("--schema", required=True,
                       help="ShExC schema loaded once and kept warm")
    serve.add_argument("--data", help="optionally preload this RDF file as "
                                      "the first graph (validated at startup)")
    serve.add_argument("--data-format", choices=["turtle", "ntriples"],
                       default="turtle")
    serve.add_argument("--shards", type=_at_least(0), default=0, metavar="N",
                       help="hash-partition subjects across N resident "
                            "worker processes, kept warm for the graph's "
                            "lifetime (0/1: serial)")
    serve.add_argument("--fleet-response-timeout", type=_at_least(0, float),
                       default=120.0,
                       metavar="SECONDS",
                       help="how long the coordinator waits on a resident "
                            "shard worker before declaring it dead "
                            "(fleet-worker-died 503; the next write "
                            "respawns it)")
    serve.add_argument("--connection-timeout", type=_at_least(0, float),
                       default=30.0, metavar="SECONDS",
                       help="per-connection socket timeout; stalled clients "
                            "are dropped (0: no timeout)")
    serve.add_argument("--max-connections", type=_at_least(0), default=64,
                       metavar="N",
                       help="bound on concurrent connections; past it the "
                            "accept loop queues (0: unbounded)")
    serve.add_argument("--max-body-bytes", type=_at_least(0),
                       default=64 * 1024 * 1024, metavar="N",
                       help="largest accepted request body; bigger "
                            "declarations get a typed 413 (0: unbounded)")

    check_schema = subparsers.add_parser("check-schema", help="parse a ShExC schema and report errors")
    check_schema.add_argument("schema", help="path to a ShExC schema file")

    check_data = subparsers.add_parser("check-data", help="parse an RDF file and report errors")
    check_data.add_argument("data", help="path to a Turtle or N-Triples file")
    check_data.add_argument("--data-format", choices=["turtle", "ntriples"], default="turtle")

    sparql = subparsers.add_parser("sparql", help="run a SPARQL query over an RDF file")
    sparql.add_argument("--data", required=True)
    sparql.add_argument("--data-format", choices=["turtle", "ntriples"], default="turtle")
    sparql.add_argument("--query", required=True, help="path to a .rq file or an inline query")

    generate = subparsers.add_parser("generate-workload",
                                     help="generate a synthetic workload graph")
    generate.add_argument("--kind", choices=["person", "portal"], default="person")
    generate.add_argument("--size", type=int, default=50)
    generate.add_argument("--invalid-fraction", type=float, default=0.2)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", help="write Turtle here (default: stdout)")
    return parser


def _read_file(path: str, newline: Optional[str] = None) -> str:
    try:
        with open(path, encoding="utf-8", newline=newline) as handle:
            return handle.read()
    except OSError as error:
        raise SystemExit(f"error: cannot read {path}: {error}")


def _load_graph(path: str, data_format: str) -> Graph:
    # untranslated for N-Triples, whose parser ends lines at \r itself
    newline = "" if data_format == "ntriples" else None
    return Graph.parse(_read_file(path, newline), format=data_format)


def _load_schema(path: str) -> Schema:
    return Schema.from_shexc(_read_file(path))


def _build_engine(name: str):
    if name == "sparql":
        from .shex.sparql_gen import SparqlEngine

        return SparqlEngine()
    return name


def _print_service_stats(stats, mode: str) -> None:
    """Emit the unified ServiceStats block to stderr (text or JSON).

    The same object ``GET /stats`` serves: ``--cache-stats`` prints the
    classic prefixed ``key=value`` lines, ``--cache-stats=json`` the
    versioned JSON payload.
    """
    if mode == "json":
        import json as _json

        print(_json.dumps(stats.to_json()), file=sys.stderr)
    else:
        print(stats.format_text(), file=sys.stderr)


def _render_report(report: ValidationReport, output_format: str,
                   include_stats: bool) -> str:
    if output_format == "json":
        return report_to_json(report, include_stats=include_stats)
    if output_format == "csv":
        return format_csv(report)
    if output_format == "summary":
        return summarize(report) + "\n"
    return format_text(report)


def _command_validate(args: argparse.Namespace) -> int:
    from .service.session import ValidationSession, collect_stats

    graph = _load_graph(args.data, args.data_format)
    schema = _load_schema(args.schema)
    session = ValidationSession(
        graph, schema, engine=_build_engine(args.engine),
        reference=args.reference)

    shape_map = args.shape_map or args.shape_map_file
    if shape_map:
        from .shex.shape_map import parse_shape_map

        text = args.shape_map or _read_file(args.shape_map_file)
        report = session.validator.validate_map(
            parse_shape_map(text, graph.namespaces).resolve(graph))
    elif args.shape:
        report = session.validate(labels=[args.shape])
    elif args.all_nodes:
        report = session.validate()
    else:
        raise SystemExit(
            "error: choose --shape-map/--shape-map-file, --shape or --all-nodes")

    sys.stdout.write(_render_report(report, args.output_format, args.include_stats))
    if args.cache_stats:
        if shape_map:
            stats = collect_stats(session.validator, report.stats)
        else:
            stats = session.stats()
        _print_service_stats(stats, args.cache_stats)
    return 0 if report.conforms else 1


def _command_revalidate(args: argparse.Namespace) -> int:
    """Full pass, apply a change set, incremental pass: the watch-style demo.

    The change set is applied through the bulk mutation helpers
    (``add_all`` / ``remove_all``), so the whole edit lands as one batch in
    the graph's change journal; ``Validator.revalidate`` then consumes the
    journal and re-runs only the affected reference-graph region.
    """
    if not args.add and not args.remove:
        raise SystemExit("error: revalidate needs a change set "
                         "(--add and/or --remove)")
    from .service.session import ValidationSession

    graph = _load_graph(args.data, args.data_format)
    schema = _load_schema(args.schema)
    labels = [args.shape] if args.shape else None
    session = ValidationSession(graph, schema)
    baseline = session.validate(labels=labels)

    additions = _load_graph(args.add, args.data_format) if args.add else ()
    removals = _load_graph(args.remove, args.data_format) if args.remove else ()
    # the CLI opts into the silent full-rebuild fallback a long-lived
    # service would refuse (there, the typed journal-overflow error)
    response, result = session.apply_changes(
        add=additions, remove=removals, labels=labels,
        allow_full_rebuild=True)
    # the stats of the shown report: the delta round's, or both runs'
    shown = result.delta if args.delta_only else ValidationReport(
        session.validator.maintained_report().entries,
        baseline.stats.combined(result.delta.stats))
    sys.stdout.write(_render_report(shown, args.output_format, args.include_stats))
    print(f"revalidate: +{response.added}/-{response.removed} triples, "
          f"{response.dirty_subjects} dirty subject(s), "
          f"{response.affected_nodes} affected node(s), "
          f"{response.revalidated_pairs} pair(s) revalidated, "
          f"{response.reused_pairs} reused"
          + (" (full rebuild)" if response.full_rebuild else ""),
          file=sys.stderr)
    if args.cache_stats:
        _print_service_stats(session.stats(), args.cache_stats)
        print("revalidate-stats: "
              f"retracted_verdicts={response.retracted_verdicts} "
              f"full_rebuild={response.full_rebuild}", file=sys.stderr)
    return 0 if result.conforms else 1


def _command_serve(args: argparse.Namespace) -> int:
    """Run the validation service until interrupted.

    The schema is loaded (and compiled) once; every graph gets a warm
    :class:`~repro.service.session.ValidationSession` whose maintained
    baseline answers verdict queries without fresh runs.  With ``--data``
    the file is preloaded and validated before the socket starts accepting.
    """
    from .service.server import serve
    from .service.session import ValidationSession

    schema = _load_schema(args.schema)
    server = serve(schema, host=args.host, port=args.port,
                   shards=args.shards,
                   connection_timeout=args.connection_timeout or None,
                   max_connections=args.max_connections or None,
                   max_body_bytes=args.max_body_bytes or None,
                   fleet_response_timeout=args.fleet_response_timeout)
    if args.data:
        graph = _load_graph(args.data, args.data_format)
        session = ValidationSession(
            graph, schema, shards=args.shards,
            fleet_response_timeout=args.fleet_response_timeout)
        report = session.validate()
        graph_id = server.service.register(session)
        print(f"serve: preloaded {args.data} as {graph_id} "
              f"({len(graph)} triples, {len(report)} pairs, "
              f"conforms={report.conforms})", file=sys.stderr)
    print(f"serve: listening on http://{server.host}:{server.port} "
          f"(shards={args.shards})", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _command_check_schema(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    labels = ", ".join(str(label) for label in schema.labels())
    recursive = "recursive" if schema.is_recursive() else "non-recursive"
    print(f"OK: {len(schema)} shape(s) [{labels}] ({recursive})")
    return 0


def _command_check_data(args: argparse.Namespace) -> int:
    graph = _load_graph(args.data, args.data_format)
    print(f"OK: {len(graph)} triples, {len(list(graph.nodes()))} subject nodes")
    return 0


def _command_sparql(args: argparse.Namespace) -> int:
    from .sparql import evaluate_query

    graph = _load_graph(args.data, args.data_format)
    query_text = _read_file(args.query) if Path(args.query).exists() else args.query
    result = evaluate_query(graph, query_text)
    if result.kind == "ask":
        print("true" if result.boolean else "false")
        return 0 if result.boolean else 1
    for solution in result.solutions:
        rendered = ", ".join(
            f"?{name}={term.n3()}" for name, term in sorted(solution.items())
        )
        print(rendered if rendered else "(empty row)")
    print(f"{len(result.solutions)} solution(s)")
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    from .workloads import generate_person_workload, generate_portal_workload

    if args.kind == "person":
        workload = generate_person_workload(
            num_people=args.size, invalid_fraction=args.invalid_fraction, seed=args.seed)
        graph = workload.graph
        summary = (f"# person workload: {len(workload.valid_nodes)} valid, "
                   f"{len(workload.invalid_nodes)} invalid nodes\n")
    else:
        workload = generate_portal_workload(
            num_datasets=args.size, invalid_fraction=args.invalid_fraction, seed=args.seed)
        graph = workload.graph
        summary = (f"# portal workload: {len(workload.valid_datasets)} valid, "
                   f"{len(workload.invalid_datasets)} invalid datasets\n")
    text = summary + graph.serialize("turtle")
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {len(graph)} triples to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "validate": _command_validate,
    "revalidate": _command_revalidate,
    "serve": _command_serve,
    "check-schema": _command_check_schema,
    "check-data": _command_check_data,
    "sparql": _command_sparql,
    "generate-workload": _command_generate,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except ServiceError as error:
        print(f"error [{error.code}]: {error}", file=sys.stderr)
        return 2
    except (ParseError, SchemaError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except DerivativeBudgetExceeded as error:
        print(f"error [limit-exceeded]: {error}", file=sys.stderr)
        return 2
    except SystemExit as error:
        if isinstance(error.code, str):
            print(error.code, file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
