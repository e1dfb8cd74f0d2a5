"""Trace and metrics exporters: JSONL, flame-style text, markdown.

The canonical on-disk format is **trace JSONL**: one JSON object per
line, each carrying a ``type`` discriminator —

- ``{"type": "meta", "format": "repro-trace", "version": 1, ...}``
  exactly once, as the first line;
- ``{"type": "span", "id", "parent_id", "name", "depth", "start",
  "end", "duration", "status", "error", "memory_delta", "attrs", ...}``
  one per finished span, parents before children (tree order);
- ``{"type": "metric", "kind": "counter" | "gauge" | "histogram",
  "name", "value"}`` one per metric at export time.

``scripts/check_trace.py`` (and ``make trace-smoke``) validate this
schema via :func:`validate_records`; :func:`parse_jsonl` is the
round-trip reader the tests and the bench figures use.  The flame text
and markdown renderers are human-oriented views over the same spans.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer, span_records

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "trace_records",
    "dumps_jsonl",
    "export_jsonl",
    "parse_jsonl",
    "validate_records",
    "flame_text",
    "spans_markdown",
]

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1

_SPAN_REQUIRED = ("id", "name", "depth", "start", "duration", "status",
                  "attrs")
_METRIC_KINDS = ("counter", "gauge", "histogram")


def trace_records(tracer: Optional[Union[Tracer, Sequence[Span]]] = None,
                  metrics: Optional[MetricsRegistry] = None,
                  meta: Optional[Dict[str, Any]] = None) -> List[Dict[str, Any]]:
    """The full record list of one export (meta + spans + metrics)."""
    head: Dict[str, Any] = {
        "type": "meta",
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "created_unix": time.time(),
    }
    if meta:
        head.update(meta)
    records: List[Dict[str, Any]] = [head]
    if tracer is not None:
        records.extend(span_records(tracer))
    if metrics is not None:
        records.extend(metrics.to_records())
    return records


def dumps_jsonl(records: Sequence[Dict[str, Any]]) -> str:
    """Records → JSONL text (one compact JSON object per line)."""
    return "\n".join(
        json.dumps(record, sort_keys=True, default=_json_default)
        for record in records
    ) + "\n"


def _json_default(value: Any) -> Any:
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return str(value)


def export_jsonl(path: Union[str, Path],
                 tracer: Optional[Union[Tracer, Sequence[Span]]] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 meta: Optional[Dict[str, Any]] = None) -> str:
    """Write a trace JSONL file; returns the text written."""
    text = dumps_jsonl(trace_records(tracer, metrics, meta))
    Path(path).write_text(text)
    return text


def parse_jsonl(text: str) -> Dict[str, List[Dict[str, Any]]]:
    """JSONL text → ``{"meta": [...], "spans": [...], "metrics": [...]}``."""
    out: Dict[str, List[Dict[str, Any]]] = {
        "meta": [], "spans": [], "metrics": [], "other": [],
    }
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        kind = record.get("type")
        if kind == "meta":
            out["meta"].append(record)
        elif kind == "span":
            out["spans"].append(record)
        elif kind == "metric":
            out["metrics"].append(record)
        else:
            out["other"].append(record)
    return out


def validate_records(records: Sequence[Dict[str, Any]]) -> List[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    problems: List[str] = []
    if not records:
        return ["trace is empty"]
    head = records[0]
    if head.get("type") != "meta":
        problems.append("first record must have type 'meta'")
    elif head.get("format") != TRACE_FORMAT:
        problems.append(
            f"meta.format must be {TRACE_FORMAT!r}, got {head.get('format')!r}"
        )
    span_ids = {
        record["id"]
        for record in records
        if record.get("type") == "span" and "id" in record
    }
    for index, record in enumerate(records):
        kind = record.get("type")
        where = f"line {index + 1}"
        if kind == "meta":
            if index != 0:
                problems.append(f"{where}: duplicate meta record")
        elif kind == "span":
            missing = [key for key in _SPAN_REQUIRED if key not in record]
            if missing:
                problems.append(f"{where}: span missing keys {missing}")
                continue
            if record.get("end") is not None and \
                    record["end"] < record["start"]:
                problems.append(f"{where}: span ends before it starts")
            if record["duration"] < 0:
                problems.append(f"{where}: negative span duration")
            parent = record.get("parent_id")
            if parent is not None and parent not in span_ids:
                problems.append(
                    f"{where}: parent_id {parent} references no span"
                )
            if record["status"] not in ("ok", "error"):
                problems.append(
                    f"{where}: status must be 'ok' or 'error', "
                    f"got {record['status']!r}"
                )
        elif kind == "metric":
            if record.get("kind") not in _METRIC_KINDS:
                problems.append(
                    f"{where}: metric kind must be one of {_METRIC_KINDS}"
                )
            if not record.get("name"):
                problems.append(f"{where}: metric without a name")
            if "value" not in record:
                problems.append(f"{where}: metric without a value")
        else:
            problems.append(f"{where}: unknown record type {kind!r}")
    return problems


def flame_text(spans: Union[Tracer, Sequence[Any]], width: int = 40) -> str:
    """Flame-style text summary: indented span tree with duration bars.

    *spans* may be a :class:`Tracer`, a span sequence or parsed span
    records; the bar of each span is proportional to its share of the
    root's duration.
    """
    records = span_records(spans)
    if not records:
        return "(no spans)"
    total = max(
        (r["duration"] for r in records if r.get("depth") == 0),
        default=max(r["duration"] for r in records),
    ) or 1.0
    lines = []
    for record in records:
        share = min(record["duration"] / total, 1.0)
        bar = "█" * max(int(round(share * width)), 1)
        error = "  [ERROR]" if record.get("status") == "error" else ""
        lines.append(
            f"{'  ' * record['depth']}{record['name']:<{max(2, 28 - 2 * record['depth'])}} "
            f"{record['duration'] * 1000:9.3f} ms  {bar}{error}"
        )
    return "\n".join(lines)


def spans_markdown(spans: Union[Tracer, Sequence[Any]]) -> str:
    """Markdown table of spans (for reports)."""
    records = span_records(spans)
    lines = ["| span | depth | duration (s) | status |", "|---|---|---|---|"]
    for record in records:
        indent = "&nbsp;&nbsp;" * record["depth"]
        lines.append(
            f"| {indent}{record['name']} | {record['depth']} | "
            f"{record['duration']:.6f} | {record['status']} |"
        )
    return "\n".join(lines)
