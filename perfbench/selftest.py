"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

The file is not named ``test_*.py`` on purpose: the smoke passes start
real servers and take about a minute, so the program's own test suite
does not collect them.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from repro.service.api import (  # noqa: E402
    DeltaResponse,
    ServiceError,
    VerdictResponse,
)

from endtoend import run_traffic  # noqa: E402
from inputs import Inputs, Spec  # noqa: E402
from programs import parse_csv  # noqa: E402
from sampling import (  # noqa: E402
    SampleCountError,
    Tally,
    check_samples,
    min_samples_for,
    percentile,
    samples_beyond,
)
from spans import SpanRecorder  # noqa: E402


# -- percentiles and sample counts -------------------------------------------------
def test_nearest_rank_percentiles():
    samples = list(range(1, 101))
    random.Random(3).shuffle(samples)
    assert percentile(samples, 0.5) == 50
    assert percentile(samples, 0.9) == 90
    assert percentile(samples, 1.0) == 100
    assert percentile([7.0], 0.9) == 7.0
    assert percentile([1, 2, 3], 0.5) == 2


def test_samples_beyond_and_minimum_counts():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9
    assert samples_beyond(50, 0.8) == 10
    assert min_samples_for(0.9) == 100
    assert min_samples_for(0.8) == 50
    assert min_samples_for(0.5, beyond=3) == 6


def test_check_samples_rejects_thin_tails():
    check_samples("ok", [0.0] * 100, 0.9)
    with pytest.raises(SampleCountError):
        check_samples("thin", [0.0] * 99, 0.9)
    with pytest.raises(SampleCountError):
        check_samples("empty", [], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


# -- spans -----------------------------------------------------------------------
class _Clock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


def test_span_self_time_subtracts_direct_children():
    # root [0, 100] ⊃ a [10, 40] ⊃ a.inner [15, 25]; b [50, 90]
    recorder = SpanRecorder(clock=_Clock([0, 10, 15, 25, 40, 50, 90, 100]))
    with recorder.span("root"):
        with recorder.span("a"):
            with recorder.span("a.inner"):
                pass
        with recorder.span("b"):
            pass
    assert [s.duration_ns for s in recorder.spans] == [100, 30, 10, 40]
    assert recorder.self_ns() == [30, 20, 10, 40]
    assert sum(recorder.self_ns()) == recorder.spans[0].duration_ns
    assert recorder.total_ns("a") == 30
    assert recorder.self_by_name() == {"root": 30, "a": 20, "a.inner": 10,
                                       "b": 40}


def test_disabled_recorder_records_nothing():
    recorder = SpanRecorder(enabled=False)
    with recorder.span("x"):
        pass
    assert recorder.spans == []


def test_span_closes_on_exception():
    recorder = SpanRecorder(clock=_Clock([0, 5, 7, 9]))
    with pytest.raises(KeyError):
        with recorder.span("outer"):
            with recorder.span("inner"):
                raise KeyError("boom")
    assert [s.duration_ns for s in recorder.spans] == [9, 2]


# -- failure accounting ----------------------------------------------------------
def _inputs():
    targets = [(f"<n{i}>", "S") for i in range(8)]
    start = {pair: True for pair in targets}
    broken = {**start, ("<n0>", "S"): False}
    return Inputs(spec=Spec("t", 1), seed=0,
                  schema_text="", data_text="", triples=10, targets=targets,
                  ground_truth=start, deltas=["<n0> <p> <o> .\n"],
                  tables=[start, broken])


class _FakeCache:
    def latest_generation(self, graph_id):
        return 1


class _FakeClient:
    """Answers like a server; ``lie_on``/``fail_on`` pick bad reads."""

    def __init__(self, inputs, lie_on=(), fail_on=(), bad_write=False):
        self.inputs = inputs
        self.cache = _FakeCache()
        self.generation = 1
        self.state = 0
        self.reads = 0
        self.lie_on = set(lie_on)
        self.fail_on = set(fail_on)
        self.bad_write = bad_write

    def verdict(self, graph_id, node, shape):
        self.reads += 1
        if self.reads in self.fail_on:
            raise ServiceError("internal", "boom", 500)
        conforms = self.inputs.tables[self.state][(node, shape)]
        if self.reads in self.lie_on:
            conforms = not conforms
        return VerdictResponse(node=node, shape=shape, conforms=conforms,
                               generation=self.generation)

    def apply_delta(self, graph_id, request):
        self.generation += 1
        adding = bool(request.add)
        self.state = 1 if adding else 0
        moved = 1 if not self.bad_write else 2
        return DeltaResponse(generation=self.generation,
                             added=moved if adding else 0,
                             removed=0 if adding else moved,
                             affected_nodes=1)


def _traffic(client, inputs, tally):
    return run_traffic(client, "g1", inputs, tally, random.Random(0),
                       seconds=0.0, min_reads=0, min_writes=0)


def test_clean_traffic_counts_every_operation():
    inputs, tally = _inputs(), Tally()
    traffic = _traffic(_FakeClient(inputs), inputs, tally)
    assert (len(traffic.reads), len(traffic.writes)) == (6, 2)
    assert (tally.attempted, tally.failed) == (8, 0)
    assert tally.failed_frac == 0.0


def test_wrong_and_failed_reads_count_as_failures():
    inputs, tally = _inputs(), Tally()
    traffic = _traffic(_FakeClient(inputs, lie_on={2}, fail_on={5}),
                       inputs, tally)
    assert tally.attempted == 8
    assert tally.reasons == {"read-wrong": 1, "read-error": 1}
    assert tally.failed_frac == pytest.approx(2 / 8)
    # an erred read has no latency; a wrong one was still a round trip
    assert len(traffic.reads) == 5


def test_wrong_write_counts_and_error_stops_the_loop():
    inputs, tally = _inputs(), Tally()
    _traffic(_FakeClient(inputs, bad_write=True), inputs, tally)
    assert tally.reasons == {"write-wrong": 2}

    class _Dead(_FakeClient):
        def apply_delta(self, graph_id, request):
            raise ServiceError("retries-exhausted", "gone", 503)

    tally = Tally()
    traffic = _traffic(_Dead(inputs), inputs, tally)
    assert tally.reasons == {"write-error": 1}
    assert traffic.writes == [] and tally.attempted == 4


def test_parse_csv():
    text = ("node,shape,conforms,reason\r\n"
            '<a>,S,true,\r\n<b>,S,false,"missing, comma"\r\n')
    assert parse_csv(text) == {("<a>", "S"): True, ("<b>", "S"): False}
    with pytest.raises(ValueError):
        parse_csv("a,b\r\n")


# -- smoke passes ----------------------------------------------------------------
def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[section]}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["kb", "social"])
def test_tiny_smoke_pass(workload, trace):
    done = _run("--workload", workload, "--seed", "5", "--seconds", "0.1",
                "--trace", trace, "--scale", "0.02")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    section = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == _declared(section)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run("--workload", "kb", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert "correct" not in done.stdout
