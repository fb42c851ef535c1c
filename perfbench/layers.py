"""The traced run: per-layer metrics from spans and the program's stats.

Spans sit in the benchmark, around in-process calls into each layer's
public functions; counts come from the program's public stats objects.
The phases mirror the untraced run on the same inputs:

1. pipeline — ``Graph.parse`` → ``Schema.from_shexc`` + compile →
   ``ValidationSession.validate`` → ``format_csv`` (the batch pass);
2. session — ``ValidationSession.verdict`` and ``apply_delta`` in process
   (the read and write paths without HTTP);
3. fleet — the same writes on ``ValidationSession(shards=2)``;
4. http — ``repro serve`` with a short closed loop, whose medians minus
   the serial in-session medians are the HTTP layer's share.

At the end, with everything else released, the pipeline runs twice with
spans disabled and twice with them on; the difference of the mean wall
times is the tracing overhead.
"""

from __future__ import annotations

import gc
import random
import time
import tracemalloc
from statistics import median
from typing import Dict, List, Tuple

from repro.rdf import Graph
from repro.service import DeltaRequest, ServiceClient, ValidationSession
from repro.service.api import ServiceError
from repro.shex import Schema
from repro.shex.reporting import format_csv

from endtoend import READS_PER_WRITE, graph_shares, load_graph, run_traffic
from inputs import Inputs
from programs import Program, ServeProcess
from sampling import Tally
from spans import SpanRecorder

__all__ = ["LAYER_MAP", "run_traced"]

#: layer metric → (end-to-end metric it should move, workloads it targets).
LAYER_MAP: Dict[str, Tuple[str, str]] = {
    "rdf.ingest_s": ("batch_s, setup_s", "kb"),
    "rdf.triples": ("batch_s", "all"),
    "rdf.bytes_per_triple": ("batch_rss_mb, serve_rss_mb", "kb"),
    "shex.compile_ms": ("setup_s", "all"),
    "shex.validate_s": ("batch_s", "social"),
    "shex.pairs": ("batch_s", "all"),
    "shex.signature_hit_rate": ("batch_s", "kb"),
    "shex.signature_open_frac": ("batch_s", "kb, social"),
    "shex.prefilter_decided_frac": ("batch_s", "kb, social"),
    "shex.engine_pairs": ("batch_s", "kb, social"),
    "shex.derivative_cache_hit_rate": ("batch_s", "social"),
    "shex.report_ms": ("batch_s", "kb"),
    "service.session_verdict_us": ("read_p50_ms", "social"),
    "service.session_delta_ms": ("write_p50_ms", "social"),
    "shex.affected_per_write": ("write_p50_ms, write_p80_ms", "social"),
    "shex.reuse_frac": ("write_p50_ms, write_p80_ms", "social"),
    "service.http_read_overhead_ms": ("read_p50_ms, ops_per_s", "social"),
    "service.http_write_overhead_ms": ("write_p50_ms, ops_per_s", "social"),
    "service.load_s": ("setup_s", "all"),
    "service.client_cache_hit_rate": ("read_p50_ms", "all"),
    # no workload serves with --shards (see README): the fleet is measured
    # in process only, as the serial-vs-fleet reference for the write path
    "service.fleet_delta_ms": ("write_p50_ms under serve --shards 2", "none"),
    "service.fleet_respawns": ("write_p80_ms under serve --shards 2", "none"),
    "trace.overhead_ms": ("(none: tracing cost)", "all"),
}

#: in-process samples per phase
VERDICT_LOOKUPS = 2000
SESSION_WRITES = 12
HTTP_READS = 60
HTTP_WRITES = 20


def _pipeline(inputs: Inputs, recorder: SpanRecorder):
    """Ingest → compile → validate → report, each call in its own span."""
    with recorder.span("pipeline"):
        with recorder.span("rdf.ingest"):
            graph = Graph.parse(inputs.data_text, format="ntriples")
        with recorder.span("shex.compile"):
            schema = Schema.from_shexc(inputs.schema_text)
            session = ValidationSession(graph, schema)
            session.validator.compiled  # compiles on first access
        with recorder.span("shex.validate"):
            report = session.validate()
        with recorder.span("shex.report"):
            csv_text = format_csv(report)
    return graph, session, report, csv_text


def _pipeline_wall(inputs: Inputs, recorder: SpanRecorder) -> float:
    """Wall time of one pipeline pass from a collected heap, result dropped."""
    gc.collect()
    began = time.perf_counter()
    _pipeline(inputs, recorder)
    return time.perf_counter() - began


def _bytes_per_triple(inputs: Inputs) -> float:
    tracemalloc.start()
    try:
        graph = Graph.parse(inputs.data_text, format="ntriples")
        size, _ = tracemalloc.get_traced_memory()
        return size / len(graph)
    finally:
        tracemalloc.stop()


def _session_writes(session: ValidationSession, inputs: Inputs,
                    tally: Tally, writes: int) -> Tuple[List[float], List]:
    """Apply the reversible write cycle in process; time each delta."""
    latencies, responses = [], []
    for index in range(writes):
        delta = inputs.deltas[(index // 2) % len(inputs.deltas)]
        request = DeltaRequest(add=delta) if index % 2 == 0 \
            else DeltaRequest(remove=delta)
        tally.attempt()
        began = time.perf_counter()
        try:
            response = session.apply_delta(request)
        except ServiceError as error:
            tally.fail("session-write", str(error))
            continue
        latencies.append(time.perf_counter() - began)
        responses.append(response)
    tally.attempt()
    if len(session.graph) != inputs.triples:
        tally.fail("drift", "in-process write cycle changed the triple count")
    return latencies, responses


def _session_reads(session: ValidationSession, inputs: Inputs,
                   tally: Tally, rng: random.Random) -> List[float]:
    latencies = []
    for node, shape in rng.choices(inputs.targets, k=VERDICT_LOOKUPS):
        tally.attempt()
        began = time.perf_counter()
        verdict = session.verdict(node, shape)
        latencies.append(time.perf_counter() - began)
        if verdict.conforms != inputs.tables[0][(node, shape)]:
            tally.fail("session-read", f"{node}@{shape}")
    return latencies


def run_traced(program: Program, inputs: Inputs,
               tally: Tally) -> Tuple[Dict[str, float], Dict]:
    """Measure every per-layer metric; return ``(metrics, metadata)``."""
    rng = random.Random(inputs.seed)
    recorder = SpanRecorder()
    graph, session, report, csv_text = _pipeline(inputs, recorder)
    triples, pairs = len(graph), len(report)
    tally.attempt()
    if pairs != inputs.pairs or triples != inputs.triples \
            or not csv_text.startswith("node,shape,conforms"):
        tally.fail("pipeline", f"{triples} triples, {pairs} pairs")
    del graph, report, csv_text
    stats = session.stats()
    shares = graph_shares(stats, pairs)
    decided = stats.prefilter.get("accepts", 0) \
        + stats.prefilter.get("rejects", 0)

    with recorder.span("service.session_verdict"):
        verdicts = _session_reads(session, inputs, tally, rng)
    with recorder.span("service.session_delta"):
        deltas, responses = _session_writes(session, inputs, tally,
                                            SESSION_WRITES)
    session.close()
    del session

    with recorder.span("service.fleet"):
        fleet_session = ValidationSession(
            Graph.parse(inputs.data_text, format="ntriples"),
            Schema.from_shexc(inputs.schema_text), shards=2)
        try:
            fleet_session.validate()
            fleet_deltas, _ = _session_writes(fleet_session, inputs, tally,
                                              SESSION_WRITES)
            fleet = fleet_session.stats().fleet
        finally:
            fleet_session.close()

    schema_path = program.work / "schema.shex"
    schema_path.write_text(inputs.schema_text)
    server = ServeProcess(program, schema_path)
    try:
        with recorder.span("service.http"):
            client = ServiceClient("127.0.0.1", server.wait_ready())
            with recorder.span("service.load"):
                tally.attempt()
                graph_id = load_graph(client, inputs)["graph_id"]
            traffic = run_traffic(client, graph_id, inputs, tally, rng,
                                  seconds=0.0, min_reads=HTTP_READS,
                                  min_writes=HTTP_WRITES)
            client_cache = client.cache.stats()
            client.close()
    finally:
        server.stop()

    bytes_per_triple = _bytes_per_triple(inputs)
    # ABBA order cancels a linear drift between the passes
    untraced_wall = traced_wall = 0.0
    for traced in (False, True, True, False):
        wall = _pipeline_wall(inputs, SpanRecorder(enabled=traced)) / 2
        if traced:
            traced_wall += wall
        else:
            untraced_wall += wall

    lookups = client_cache["hits"] + client_cache["misses"]
    revalidated = sum(r.revalidated_pairs for r in responses)
    reused = sum(r.reused_pairs for r in responses)
    ns = 1e-9
    metrics = {
        "rdf.ingest_s": recorder.total_ns("rdf.ingest") * ns,
        "rdf.triples": float(triples),
        "rdf.bytes_per_triple": bytes_per_triple,
        "shex.compile_ms": recorder.total_ns("shex.compile") * ns * 1e3,
        "shex.validate_s": recorder.total_ns("shex.validate") * ns,
        "shex.pairs": float(pairs),
        "shex.signature_hit_rate": shares["signature_hit_share"],
        "shex.signature_open_frac": 1.0 - shares["signature_closed_share"],
        "shex.prefilter_decided_frac": shares["prefilter_decided_share"],
        "shex.engine_pairs": float(max(0, pairs - stats.signature.get("hits", 0)
                                       - decided)),
        "shex.derivative_cache_hit_rate": shares["derivative_cache_hit_rate"],
        "shex.report_ms": recorder.total_ns("shex.report") * ns * 1e3,
        "service.session_verdict_us": median(verdicts) * 1e6,
        "service.session_delta_ms": median(deltas) * 1e3,
        "shex.affected_per_write": (sum(r.affected_nodes for r in responses)
                                    / max(1, len(responses))),
        "shex.reuse_frac": reused / max(1, reused + revalidated),
        "service.http_read_overhead_ms":
            (median(traffic.reads) - median(verdicts)) * 1e3,
        "service.http_write_overhead_ms":
            (median(traffic.writes) - median(deltas)) * 1e3,
        "service.load_s": recorder.total_ns("service.load") * ns,
        "service.client_cache_hit_rate": (client_cache["hits"] / lookups
                                          if lookups else 0.0),
        "service.fleet_delta_ms": median(fleet_deltas) * 1e3,
        "service.fleet_respawns": float(fleet.get("respawns", 0)),
        "trace.overhead_ms": (traced_wall - untraced_wall) * 1e3,
    }
    metadata = {
        "spans": len(recorder.spans),
        "self_ms": {name: round(own * ns * 1e3, 3) for name, own
                    in recorder.self_by_name().items()},
        "traced_pipeline_s": traced_wall,
        "untraced_pipeline_s": untraced_wall,
        "http_reads": len(traffic.reads),
        "http_writes": len(traffic.writes),
        "reads_per_write": READS_PER_WRITE,
        "fleet": {key: fleet.get(key) for key in ("shards", "workers_alive",
                                                  "respawns", "started")},
        "layer_map": {name: {"moves": moves, "workloads": workloads}
                      for name, (moves, workloads) in LAYER_MAP.items()},
    }
    return metrics, metadata
