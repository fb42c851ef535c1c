"""Rendering validation reports for people and machines.

A validator is only useful if its output can be consumed: this module turns
:class:`~repro.shex.validator.ValidationReport` objects into

* a human-readable text table (``format_text``),
* JSON-compatible dictionaries (``report_to_dict``) for dashboards,
* CSV rows (``format_csv``) for spreadsheets,
* a compact one-line summary (``summarize``) for CI logs.

All renderers are deterministic (entries sorted by node, then label) so their
output can be diffed across runs.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Optional

from .results import ValidationReportEntry
from .validator import ValidationReport

__all__ = [
    "format_text",
    "format_csv",
    "report_to_dict",
    "report_to_json",
    "summarize",
]


def _sorted_entries(report: ValidationReport) -> List[ValidationReportEntry]:
    return sorted(
        report.entries,
        key=lambda entry: (entry.node.sort_key(), str(entry.label)),
    )


def summarize(report: ValidationReport) -> str:
    """Return a one-line summary such as ``"7/9 conform (2 failures)"``."""
    total = len(report.entries)
    failures = len(report.failures())
    conforming = total - failures
    if failures == 0:
        return f"{conforming}/{total} conform"
    return f"{conforming}/{total} conform ({failures} failure{'s' if failures != 1 else ''})"


def format_text(report: ValidationReport, show_reasons: bool = True,
                max_reason_length: int = 96) -> str:
    """Render the report as an aligned, human-readable table."""
    entries = _sorted_entries(report)
    if not entries:
        return "empty validation report\n"
    node_width = max(len(entry.node.n3()) for entry in entries)
    label_width = max(len(str(entry.label)) for entry in entries)
    lines = [
        f"{'node':<{node_width}}  {'shape':<{label_width}}  verdict",
        f"{'-' * node_width}  {'-' * label_width}  -------",
    ]
    for entry in entries:
        verdict = "conforms" if entry.conforms else "FAILS"
        line = f"{entry.node.n3():<{node_width}}  {str(entry.label):<{label_width}}  {verdict}"
        if show_reasons and not entry.conforms and entry.reason:
            reason = entry.reason
            if len(reason) > max_reason_length:
                reason = reason[:max_reason_length - 1] + "…"
            line += f"  ({reason})"
        lines.append(line)
    lines.append("")
    lines.append(summarize(report))
    return "\n".join(lines) + "\n"


def report_to_dict(report: ValidationReport, include_stats: bool = False) -> Dict:
    """Convert the report to a JSON-friendly dictionary (and its run's stats)."""
    entries = []
    for entry in _sorted_entries(report):
        item: Dict = {
            "node": entry.node.n3(),
            "shape": str(entry.label),
            "conforms": entry.conforms,
        }
        if entry.reason:
            item["reason"] = entry.reason
        entries.append(item)
    document = {
        "conforms": report.conforms,
        "summary": summarize(report),
        "entries": entries,
        "typing": report.typing.to_dict(),
    }
    if include_stats:
        document["stats"] = report.stats.as_dict()
    return document


def report_to_json(report: ValidationReport, include_stats: bool = False,
                   indent: Optional[int] = 2) -> str:
    """Serialise the report as a JSON document."""
    return json.dumps(report_to_dict(report, include_stats=include_stats), indent=indent)


def format_csv(report: ValidationReport) -> str:
    """Render the report as CSV with a header row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["node", "shape", "conforms", "reason"])
    for entry in _sorted_entries(report):
        writer.writerow([
            entry.node.n3(), str(entry.label),
            "true" if entry.conforms else "false",
            entry.reason or "",
        ])
    return buffer.getvalue()
