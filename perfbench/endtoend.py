"""The untraced run: batch passes, server set-ups and closed-loop traffic.

Every end-to-end metric comes from here, measured with no spans at all:

* ``batch_s`` / ``batch_rss_mb``: fresh ``repro validate`` passes,
  N-Triples file → CSV report, median over :data:`BATCH_PASSES`;
* ``setup_s``: ``repro serve`` start → listening → ``POST /graphs``
  (ingest + initial full validation) returns, median over :data:`SETUPS`;
  the last server set up carries the traffic;
* ``read_*`` / ``write_*`` / ``ops_per_s``: one client, one connection,
  a closed loop of :data:`READS_PER_WRITE` verdict reads per delta write;
* ``serve_rss_mb``: the serving process tree's peak RSS after the traffic.
"""

from __future__ import annotations

import random
import time
from statistics import median
from typing import Dict, List, Tuple

from repro.service import DeltaRequest, ServiceClient, ValidationRequest
from repro.service.api import ServiceError

from inputs import Inputs
from programs import BatchPass, Program, ServeProcess, parse_csv
from sampling import Tally, check_samples, min_samples_for, percentile

__all__ = ["BATCH_PASSES", "SETUPS", "READS_PER_WRITE", "READ_Q", "WRITE_Q",
           "Traffic", "run_traffic", "run_untraced", "load_graph",
           "graph_shares"]

#: batch passes and server set-ups per run; a round runs one of each
#: until the set-ups are done (the last server set up carries the traffic)
BATCH_PASSES = 7
SETUPS = 3
READS_PER_WRITE = 3
#: the upper percentile reported for reads and for writes; the loop runs
#: until each leaves at least ten samples beyond it.
READ_Q = 0.90
WRITE_Q = 0.80
MIN_READS = min_samples_for(READ_Q) + 20
MIN_WRITES = min_samples_for(WRITE_Q) + 10
#: the loop stops past this many seconds over ``--seconds`` even if short
#: of samples (the percentile check then fails the run).
OVERRUN_S = 60.0


class Traffic:
    """Latencies (seconds) and counters of one closed-loop traffic phase."""

    def __init__(self) -> None:
        self.reads: List[float] = []
        self.writes: List[float] = []
        self.affected: List[int] = []
        self.wall = 0.0

    @property
    def ops(self) -> int:
        return len(self.reads) + len(self.writes)


def run_traffic(client: ServiceClient, graph_id: str, inputs: Inputs,
                tally: Tally, rng: random.Random, *, seconds: float,
                min_reads: int, min_writes: int) -> Traffic:
    """Closed loop: per write, ``READS_PER_WRITE`` reads, then the write.

    Writes walk the reversible cycle (``+delta``, ``-delta``, next delta),
    so the loop always stops in the start state.  The reads between two
    writes query distinct pairs, so each is a client cache miss and a real
    HTTP round trip.  Every answer is checked against the expected table
    of the state the graph is in.
    """
    traffic = Traffic()
    k = inputs.spec.delta_subjects
    state = 0
    generation = client.cache.latest_generation(graph_id)
    start = time.perf_counter()
    cycle = 0
    while True:
        index = cycle % len(inputs.deltas)
        for adding in (True, False):
            for node, shape in rng.sample(inputs.targets, READS_PER_WRITE):
                tally.attempt()
                began = time.perf_counter()
                try:
                    verdict = client.verdict(graph_id, node, shape)
                except (ServiceError, OSError) as error:
                    tally.fail("read-error", str(error))
                    continue
                traffic.reads.append(time.perf_counter() - began)
                expected = inputs.tables[state][(node, shape)]
                if verdict.conforms != expected \
                        or verdict.generation != generation:
                    tally.fail("read-wrong",
                               f"{node}@{shape}: conforms={verdict.conforms} "
                               f"gen={verdict.generation}, expected "
                               f"{expected} at gen {generation}")
            delta = inputs.deltas[index]
            request = DeltaRequest(add=delta) if adding \
                else DeltaRequest(remove=delta)
            tally.attempt()
            began = time.perf_counter()
            try:
                response = client.apply_delta(graph_id, request)
            except (ServiceError, OSError) as error:
                tally.fail("write-error", str(error))
                # the graph's state is unknown now; stop, the run is failed
                traffic.wall = time.perf_counter() - start
                return traffic
            traffic.writes.append(time.perf_counter() - began)
            state = index + 1 if adding else 0
            moved = (response.added, response.removed)
            if moved != ((k, 0) if adding else (0, k)) \
                    or generation is not None \
                    and response.generation <= generation:
                tally.fail("write-wrong",
                           f"+{response.added}/-{response.removed} at gen "
                           f"{response.generation} after gen {generation}")
            generation = response.generation
            traffic.affected.append(response.affected_nodes)
        cycle += 1
        elapsed = time.perf_counter() - start
        enough = (len(traffic.reads) >= min_reads
                  and len(traffic.writes) >= min_writes)
        if (elapsed >= seconds and enough) or elapsed > seconds + OVERRUN_S:
            traffic.wall = elapsed
            return traffic


def load_graph(client: ServiceClient, inputs: Inputs) -> Dict:
    return client.load_graph(ValidationRequest(data=inputs.data_text,
                                               data_format="ntriples"))


def graph_shares(stats, pairs: int) -> Dict[str, float]:
    """Property shares of a full run, from the program's public stats."""
    signature = stats.signature
    prefilter = stats.prefilter
    probed = signature.get("hits", 0) + signature.get("misses", 0)
    decided = prefilter.get("accepts", 0) + prefilter.get("rejects", 0)
    return {
        "signature_closed_share": probed / pairs,
        "signature_hit_share": signature.get("hits", 0) / pairs,
        "prefilter_decided_share": decided / pairs,
        "derivative_cache_hit_rate": stats.cache.get("hit_rate", 0.0),
    }


def _check_batch(result: BatchPass, inputs: Inputs, tally: Tally) -> None:
    tally.attempt()
    if result.exit_code not in (0, 1):
        tally.fail("batch-exit", f"exit {result.exit_code}: "
                                 f"{result.stderr[-300:]}")
        return
    try:
        table = parse_csv(result.csv_text)
    except (ValueError, IndexError) as error:
        tally.fail("batch-csv", str(error))
        return
    if table != inputs.tables[0]:
        tally.fail("batch-wrong", f"{len(table)} CSV rows differ from the "
                                  f"{inputs.pairs}-pair reference run")
    elif any(table.get(pair) != conforms
             for pair, conforms in inputs.ground_truth.items()):
        tally.fail("batch-wrong", "CSV disagrees with the ground truth")
    if result.exit_code != (0 if all(table.values()) else 1):
        tally.fail("batch-exit", f"exit {result.exit_code} does not match "
                                 "the report")


def _setup(program: Program, inputs: Inputs, schema_path,
           tally: Tally) -> Tuple[ServeProcess, ServiceClient, str, float]:
    """Start a server, load the graph; return it with the set-up time."""
    began = time.perf_counter()
    server = ServeProcess(program, schema_path)
    try:
        port = server.wait_ready()
        client = ServiceClient("127.0.0.1", port)
        tally.attempt()
        created = load_graph(client, inputs)
        seconds = time.perf_counter() - began
        if created.get("triples") != inputs.triples \
                or created.get("pairs") != inputs.pairs:
            tally.fail("load-wrong", f"server loaded {created.get('triples')} "
                                     f"triples / {created.get('pairs')} pairs")
    except BaseException:
        server.stop()
        raise
    return server, client, created["graph_id"], seconds


def run_untraced(program: Program, inputs: Inputs, seconds: float,
                 tally: Tally) -> Tuple[Dict[str, float], Dict]:
    """Measure every end-to-end metric; return ``(metrics, metadata)``."""
    data_path = program.work / "data.nt"
    schema_path = program.work / "schema.shex"
    data_path.write_text(inputs.data_text)
    schema_path.write_text(inputs.schema_text)

    # batch passes and server set-ups alternate, so a slow spell of the
    # machine lands on samples of both instead of on one metric
    passes: List[BatchPass] = []
    setups: List[float] = []
    server = client = None
    try:
        for round_index in range(BATCH_PASSES):
            result = BatchPass.run(program, data_path, schema_path)
            _check_batch(result, inputs, tally)
            passes.append(result)
            if round_index >= SETUPS:
                continue
            if server is not None:
                client.close()
                server.stop()
            server, client, graph_id, took = _setup(program, inputs,
                                                    schema_path, tally)
            setups.append(took)
        shares = graph_shares(client.graph_stats(graph_id), inputs.pairs)
        traffic = run_traffic(client, graph_id, inputs, tally,
                              random.Random(inputs.seed),
                              seconds=seconds, min_reads=MIN_READS,
                              min_writes=MIN_WRITES)
        tally.attempt()
        after = client.graph_stats(graph_id)
        if after.store.get("triples") != inputs.triples:
            tally.fail("drift", f"{after.store.get('triples')} triples after "
                                f"the run, expected {inputs.triples}")
        tally.attempt()
        health = client.healthz()
        if health.get("status") != "ok":
            tally.fail("unhealthy", str(health)[:300])
        serve_rss = server.peak_rss_mb()
        client_cache = client.cache.stats()
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()

    check_samples("read latency", traffic.reads, READ_Q)
    check_samples("write latency", traffic.writes, WRITE_Q)
    metrics = {
        "setup_s": median(setups),
        "batch_s": median([p.seconds for p in passes]),
        "batch_rss_mb": median([p.peak_rss_mb for p in passes]),
        "serve_rss_mb": serve_rss,
        "read_p50_ms": percentile(traffic.reads, 0.5) * 1e3,
        "read_p90_ms": percentile(traffic.reads, READ_Q) * 1e3,
        "write_p50_ms": percentile(traffic.writes, 0.5) * 1e3,
        "write_p80_ms": percentile(traffic.writes, WRITE_Q) * 1e3,
        "ops_per_s": traffic.ops / traffic.wall,
    }
    metadata = {
        "batch_passes": len(passes),
        "batch_pass_s": [p.seconds for p in passes],
        "setup_samples_s": setups,
        "setups": len(setups),
        "read_samples": len(traffic.reads),
        "write_samples": len(traffic.writes),
        "read_share": len(traffic.reads) / traffic.ops,
        "traffic_wall_s": traffic.wall,
        "mean_affected_per_write": (sum(traffic.affected)
                                    / max(1, len(traffic.affected))),
        "client_cache": client_cache,
        **shares,
    }
    return metrics, metadata
