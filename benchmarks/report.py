#!/usr/bin/env python3
"""Aggregate the committed ``BENCH_*.json`` artifacts into one markdown table.

Every performance PR commits the JSON its gate benchmark produced
(``BENCH_hotpath.json``, ``BENCH_service.json``, …).  This script renders
those heterogeneous artifacts into a single perf-trajectory table so the
repository's headline numbers — and whether each gate passed — live in one
place::

    python benchmarks/report.py                  # repo root, markdown to stdout
    python benchmarks/report.py --dir . --out PERF.md

Unknown artifact schemas degrade gracefully: any numeric leaf whose name
ends in a recognised unit (``*_s``, ``*_ms``, ``*_us``, ``speedup``,
``ratio``, ``qps``) is promoted into the headline column, so the table
never goes stale just because a new benchmark invented a new shape.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

#: numeric leaf suffixes worth surfacing when no extractor knows the file.
_UNIT_SUFFIXES = ("_s", "_ms", "_us", "speedup", "ratio", "qps", "hit_rate")


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.0f}"
        if value >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def _numeric_leaves(data: Any, prefix: str = "") -> Iterator[Tuple[str, Any]]:
    if isinstance(data, dict):
        for key, value in data.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            yield from _numeric_leaves(value, path)
    elif isinstance(data, list):
        for index, value in enumerate(data[:4]):
            yield from _numeric_leaves(value, f"{prefix}[{index}]")
    elif isinstance(data, (int, float)) and not isinstance(data, bool):
        yield prefix, data


def _headline_generic(data: Dict[str, Any], limit: int = 5) -> List[str]:
    picked = []
    for path, value in _numeric_leaves(data):
        leaf = path.rsplit(".", 1)[-1]
        if leaf.endswith(_UNIT_SUFFIXES):
            picked.append(f"{path}={_fmt(value)}")
        if len(picked) >= limit:
            break
    return picked


def _headline_service(data: Dict[str, Any]) -> List[str]:
    mixed = data.get("mixed_traffic", {})
    warm = data.get("warm_vs_cold", {})
    return [
        f"verdict p50 {_fmt(mixed.get('verdicts', {}).get('p50_ms', 0.0))}ms "
        f"p99 {_fmt(mixed.get('verdicts', {}).get('p99_ms', 0.0))}ms "
        f"at {_fmt(mixed.get('qps', 0.0))} qps",
        f"warm/cold verdict speedup {_fmt(warm.get('speedup', 0.0))}x",
    ]


def _headline_fleet(data: Dict[str, Any]) -> List[str]:
    rounds = data.get("fleet_rounds", {})
    heal = data.get("heal_round", {})
    return [
        f"resident round {_fmt(rounds.get('resident_round_ms', 0.0))}ms vs "
        f"serial {_fmt(rounds.get('serial_round_ms', 0.0))}ms",
        f"heal round {_fmt(heal.get('heal_round_ms', 0.0))}ms, "
        f"respawns={_fmt(heal.get('respawns', 0))}",
    ]


def _headline_hotpath(data: Dict[str, Any]) -> List[str]:
    lines = []
    for arm in data.get("arms", []):
        lines.append(f"{arm.get('mode')} speedup {_fmt(arm.get('speedup', 0.0))}x "
                     f"(identical={_fmt(arm.get('identical'))})")
    signature = data.get("signature", {})
    if signature:
        lines.append(f"signature hit rate {_fmt(signature.get('hit_rate', 0.0))} "
                     f"over {_fmt(signature.get('signatures', 0))} signatures")
    return lines


_EXTRACTORS = {
    "service": _headline_service,
    "fleet": _headline_fleet,
    "hotpath": _headline_hotpath,
}


def _gate(data: Dict[str, Any]) -> str:
    ok = data.get("ok")
    checked = data.get("gates_checked")
    if ok is None:
        failures = data.get("failures")
        ok = not failures if failures is not None else None
    if ok is None:
        return "—"
    status = "pass" if ok else "**FAIL**"
    if checked is False or data.get("quick"):
        status += " (quick)"
    return status


def render(paths: List[Path]) -> str:
    lines = [
        "# Performance trajectory",
        "",
        "One row per committed benchmark artifact (`BENCH_*.json`); regenerate "
        "with `python benchmarks/report.py`.",
        "",
        "| benchmark | gate | headline |",
        "|---|---|---|",
    ]
    for path in paths:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            lines.append(f"| {path.name} | **unreadable** | {error} |")
            continue
        name = data.get("benchmark", path.stem.replace("BENCH_", ""))
        extractor = _EXTRACTORS.get(name)
        headline = extractor(data) if extractor else _headline_generic(data)
        lines.append(f"| {name} | {_gate(data)} | {'; '.join(headline) or '—'} |")
    lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default=".",
                        help="directory holding BENCH_*.json (default: cwd)")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the markdown to this file")
    args = parser.parse_args(argv)

    paths = sorted(Path(args.dir).glob("BENCH_*.json"))
    if not paths:
        print(f"error: no BENCH_*.json under {args.dir!r} — run a gate "
              "benchmark with --json first", file=sys.stderr)
        return 2
    text = render(paths)
    print(text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
