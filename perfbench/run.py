#!/usr/bin/env python3
"""Standing end-to-end benchmark of ``repro validate`` and ``repro serve``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload kb --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing at all;
``--trace 1`` runs the separate traced pass and reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run's metadata.  Exit status: 0 when every operation succeeded and every
answer was right, 1 otherwise, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _declared(trace: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    from inputs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed traffic loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="graph size factor (smoke tests use a tiny one)")
    args = parser.parse_args(argv)

    from endtoend import run_untraced
    from inputs import make_inputs
    from layers import run_traced
    from programs import Program
    from sampling import Tally

    sys.setrecursionlimit(100_000)
    declared = _declared(bool(args.trace))
    spec = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{spec.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    metrics, metadata = {}, {}
    began = time.perf_counter()
    try:
        inputs = make_inputs(spec, args.seed, args.scale)
        generated = time.perf_counter() - began
        program = Program(ROOT, work)
        if args.trace:
            metrics, metadata = run_traced(program, inputs, tally)
        else:
            metrics, metadata = run_untraced(program, inputs, args.seconds,
                                             tally)
        metadata.update(triples=inputs.triples, pairs=inputs.pairs,
                        targets=len(inputs.targets),
                        delta_subjects=spec.delta_subjects,
                        generate_s=generated)
    except Exception as error:  # noqa: BLE001 - the run must still report
        traceback.print_exc()
        tally.attempt()
        tally.fail("benchmark", f"{type(error).__name__}: {error}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(declared) - set(metrics))
    correct = tally.failed == 0 and not missing
    metadata.update(workload=spec.name, seed=args.seed, trace=args.trace,
                    scale=args.scale, nproc=os.cpu_count(),
                    python=platform.python_version(), commit=_commit(),
                    wall_s=time.perf_counter() - began,
                    failures=tally.reasons, failure_examples=tally.examples,
                    failed_frac=tally.failed_frac, missing_metrics=missing)
    print(json.dumps({"metadata": metadata}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from "
              "the root of a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
