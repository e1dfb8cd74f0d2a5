"""Trace analysis: summaries, critical paths, diffs, Chrome export.

Everything here operates on **span records** (``Span.to_record`` dicts)
so the same analyses run on live tracers, parsed trace JSONL files and
run manifests alike.  :func:`load_trace` is the CLI's entry point: it
auto-detects the two on-disk formats (``repro-trace`` JSONL,
``repro-run-manifest`` JSON) and normalizes both to
``{"meta", "spans", "metrics"}``.

Four analyses back the ``repro trace`` subcommands:

- :func:`summarize_trace` — totals, error counts, per-phase breakdown
  and hot spans, aggregated by span name;
- :func:`critical_path` — the heaviest root-to-leaf chain, with self
  time (duration minus child time) per hop, which is where an
  optimization pays;
- :func:`diff_traces` — per-phase and per-span-name comparison of two
  runs (the regression gate's attribution engine);
- :func:`aggregate_phases` — cross-run phase statistics over many
  traces or manifests.

:func:`chrome_trace_events` / :func:`export_chrome_trace` emit the
Chrome trace-event JSON format, loadable in Perfetto / ``about:tracing``
alongside the existing flame/JSONL exporters.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.obs.exporters import parse_jsonl
from repro.obs.manifest import MANIFEST_FORMAT, RunManifest
from repro.obs.tracer import Tracer, span_records

__all__ = [
    "load_trace",
    "critical_path",
    "summarize_trace",
    "render_summary",
    "aggregate_phases",
    "diff_traces",
    "render_diff",
    "chrome_trace_events",
    "export_chrome_trace",
]

SpanSource = Union[Tracer, Sequence[Any], Dict[str, Any]]


def _records(source: SpanSource) -> List[Dict[str, Any]]:
    if isinstance(source, dict):  # a load_trace() document
        source = source.get("spans", [])
    return span_records(source)


def load_trace(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a trace JSONL file *or* a run manifest JSON file.

    Returns ``{"meta": dict, "spans": [records], "metrics": [records],
    "phases": {name: seconds}, "kind": "trace" | "manifest"}``.
    """
    text = Path(path).read_text()
    document: Optional[Dict[str, Any]] = None
    if text.lstrip()[:1] == "{":
        # A manifest is one big JSON object; trace JSONL fails this
        # parse at line 2 ("Extra data") and falls through.
        try:
            parsed_document = json.loads(text)
        except json.JSONDecodeError:
            parsed_document = None
        if isinstance(parsed_document, dict) and \
                parsed_document.get("format") == MANIFEST_FORMAT:
            document = parsed_document
    if document is not None:
        manifest = RunManifest.from_dict(document)
        metric_records = []
        for kind_name, kind in (("counter", "counters"),
                                ("gauge", "gauges"),
                                ("histogram", "histograms")):
            for name in sorted(manifest.metrics.get(kind, {})):
                metric_records.append({
                    "type": "metric", "kind": kind_name, "name": name,
                    "value": manifest.metrics[kind][name],
                })
        return {
            "kind": "manifest",
            "meta": {"command": manifest.command,
                     "status": manifest.status,
                     **manifest.meta},
            "spans": manifest.spans,
            "metrics": metric_records,
            "phases": dict(manifest.phases),
        }
    parsed = parse_jsonl(text)
    phases = {
        record["name"]: record["duration"]
        for record in parsed["spans"]
        if record.get("attrs", {}).get("phase")
    }
    return {
        "kind": "trace",
        "meta": parsed["meta"][0] if parsed["meta"] else {},
        "spans": parsed["spans"],
        "metrics": parsed["metrics"],
        "phases": phases,
    }


# -- critical path ----------------------------------------------------------

def critical_path(source: SpanSource) -> List[Dict[str, Any]]:
    """The heaviest root-to-leaf chain of the span tree.

    Starting from the longest root, each hop descends into the child
    with the largest duration.  Every hop reports ``self_seconds``
    (duration minus the time spent in its children — the part only
    optimizable at that span) and ``share`` of the root's duration.
    """
    records = _records(source)
    if not records:
        return []
    children: Dict[Optional[int], List[Dict[str, Any]]] = {}
    for record in records:
        children.setdefault(record.get("parent_id"), []).append(record)
    roots = children.get(None, [])
    if not roots:  # partial trace: treat the longest span as the root
        roots = [max(records, key=lambda r: r["duration"])]
    node = max(roots, key=lambda r: r["duration"])
    total = node["duration"] or 1.0
    path = []
    while node is not None:
        kids = children.get(node.get("id"), [])
        child_seconds = sum(k["duration"] for k in kids)
        path.append({
            "name": node["name"],
            "id": node.get("id"),
            "duration": node["duration"],
            "self_seconds": max(node["duration"] - child_seconds, 0.0),
            "share": min(node["duration"] / total, 1.0),
            "status": node.get("status", "ok"),
        })
        node = max(kids, key=lambda r: r["duration"]) if kids else None
    return path


# -- summary ----------------------------------------------------------------

def summarize_trace(source: SpanSource,
                    phases: Optional[Dict[str, float]] = None
                    ) -> Dict[str, Any]:
    """Aggregate one trace: totals, errors, phases, hot span names."""
    records = _records(source)
    if phases is None and isinstance(source, dict):
        phases = dict(source.get("phases") or {})
    if phases is None:
        phases = {
            record["name"]: record["duration"]
            for record in records
            if record.get("attrs", {}).get("phase")
        }
    by_name: Dict[str, Dict[str, Any]] = {}
    for record in records:
        entry = by_name.setdefault(
            record["name"], {"count": 0, "total_seconds": 0.0, "errors": 0}
        )
        entry["count"] += 1
        entry["total_seconds"] += record["duration"]
        if record.get("status") == "error":
            entry["errors"] += 1
    roots = [r["duration"] for r in records if r.get("depth") == 0]
    total = max(roots) if roots else sum(phases.values())
    hot = sorted(
        ({"name": name, **entry} for name, entry in by_name.items()),
        key=lambda e: e["total_seconds"], reverse=True,
    )
    return {
        "span_count": len(records),
        "error_count": sum(
            1 for r in records if r.get("status") == "error"
        ),
        "total_seconds": total,
        "phases": dict(phases),
        "hot_spans": hot[:10],
        "critical_path": critical_path(records),
    }


def render_summary(summary: Dict[str, Any],
                   meta: Optional[Dict[str, Any]] = None) -> str:
    """Human-readable ``repro trace summary`` text."""
    lines = []
    if meta and meta.get("command"):
        lines.append(f"command: {meta['command']}")
    lines.append(
        f"spans: {summary['span_count']} "
        f"({summary['error_count']} error(s)); "
        f"total {summary['total_seconds'] * 1000:.3f} ms"
    )
    phases = summary["phases"]
    if phases:
        phase_total = sum(phases.values()) or 1.0
        lines.append("phases:")
        for name, seconds in sorted(
                phases.items(), key=lambda item: -item[1]):
            lines.append(
                f"  {name:<14} {seconds * 1000:9.3f} ms "
                f"({seconds / phase_total:6.1%})"
            )
    path = summary["critical_path"]
    if path:
        lines.append("critical path:")
        lines.append(render_critical_path(path, indent="  "))
    return "\n".join(lines)


def render_critical_path(path: List[Dict[str, Any]],
                         indent: str = "") -> str:
    lines = []
    for depth, hop in enumerate(path):
        error = "  [ERROR]" if hop["status"] == "error" else ""
        lines.append(
            f"{indent}{'  ' * depth}{hop['name']:<{max(2, 24 - 2 * depth)}} "
            f"{hop['duration'] * 1000:9.3f} ms  "
            f"(self {hop['self_seconds'] * 1000:8.3f} ms, "
            f"{hop['share']:6.1%}){error}"
        )
    return "\n".join(lines)


# -- cross-run aggregation --------------------------------------------------

def aggregate_phases(phase_dicts: Sequence[Dict[str, float]]
                     ) -> Dict[str, Dict[str, float]]:
    """Per-phase count/min/max/mean/total across many runs."""
    out: Dict[str, Dict[str, float]] = {}
    for phases in phase_dicts:
        for name, seconds in phases.items():
            entry = out.setdefault(
                name, {"count": 0, "total": 0.0,
                       "min": float("inf"), "max": 0.0}
            )
            entry["count"] += 1
            entry["total"] += seconds
            entry["min"] = min(entry["min"], seconds)
            entry["max"] = max(entry["max"], seconds)
    for entry in out.values():
        entry["mean"] = entry["total"] / entry["count"]
    return out


# -- diffing ----------------------------------------------------------------

def diff_traces(old: Dict[str, Any], new: Dict[str, Any]
                ) -> Dict[str, Any]:
    """Compare two loaded traces (:func:`load_trace` outputs).

    Produces per-phase rows (old/new seconds, delta, ratio) plus a
    per-span-name aggregate comparison; phases present in only one run
    get ``None`` on the other side.
    """
    old_summary = summarize_trace(old["spans"], old.get("phases"))
    new_summary = summarize_trace(new["spans"], new.get("phases"))
    rows = []
    names = sorted(set(old_summary["phases"]) | set(new_summary["phases"]))
    for name in names:
        before = old_summary["phases"].get(name)
        after = new_summary["phases"].get(name)
        ratio = (
            after / before
            if before and after is not None and before > 0 else None
        )
        rows.append({
            "phase": name,
            "old_seconds": before,
            "new_seconds": after,
            "delta_seconds": (
                after - before
                if before is not None and after is not None else None
            ),
            "ratio": ratio,
        })
    by_name = {}
    old_names = {e["name"]: e for e in old_summary["hot_spans"]}
    for entry in new_summary["hot_spans"]:
        before = old_names.get(entry["name"])
        if before is not None:
            by_name[entry["name"]] = {
                "old_seconds": before["total_seconds"],
                "new_seconds": entry["total_seconds"],
            }
    return {
        "total": {
            "old_seconds": old_summary["total_seconds"],
            "new_seconds": new_summary["total_seconds"],
            "ratio": (
                new_summary["total_seconds"] / old_summary["total_seconds"]
                if old_summary["total_seconds"] else None
            ),
        },
        "phases": rows,
        "spans": by_name,
    }


def render_diff(diff: Dict[str, Any]) -> str:
    """Human-readable ``repro trace diff`` table."""
    total = diff["total"]
    ratio = total["ratio"]
    lines = [
        f"total: {total['old_seconds'] * 1000:.3f} ms -> "
        f"{total['new_seconds'] * 1000:.3f} ms"
        + (f"  ({ratio:.2f}x)" if ratio else ""),
        "| phase | old (ms) | new (ms) | delta (ms) | ratio |",
        "|---|---|---|---|---|",
    ]
    for row in diff["phases"]:
        old_ms = (
            f"{row['old_seconds'] * 1000:.3f}"
            if row["old_seconds"] is not None else "-"
        )
        new_ms = (
            f"{row['new_seconds'] * 1000:.3f}"
            if row["new_seconds"] is not None else "-"
        )
        delta = (
            f"{row['delta_seconds'] * 1000:+.3f}"
            if row["delta_seconds"] is not None else "-"
        )
        ratio_text = (
            f"{row['ratio']:.2f}x" if row["ratio"] is not None else "-"
        )
        lines.append(
            f"| {row['phase']} | {old_ms} | {new_ms} | {delta} "
            f"| {ratio_text} |"
        )
    return "\n".join(lines)


# -- Chrome trace-event export ----------------------------------------------

def chrome_trace_events(source: SpanSource) -> List[Dict[str, Any]]:
    """Span records as Chrome trace-event ``"X"`` (complete) events.

    Timestamps are microseconds relative to the earliest span, so the
    file opens at t=0 in Perfetto / ``about:tracing``.  Error spans are
    colored via ``cname`` and every span's attrs travel in ``args``.
    """
    records = _records(source)
    if not records:
        return []
    origin = min(record["start"] for record in records)
    events = []
    for record in records:
        duration = record["duration"]
        event: Dict[str, Any] = {
            "name": record["name"],
            "ph": "X",
            "ts": round((record["start"] - origin) * 1e6, 3),
            "dur": round(duration * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "cat": "phase" if record.get("attrs", {}).get("phase")
                   else "span",
            "args": {
                **record.get("attrs", {}),
                "status": record.get("status", "ok"),
            },
        }
        if record.get("status") == "error":
            event["cname"] = "terrible"
            if record.get("error"):
                event["args"]["error"] = record["error"]
        events.append(event)
    return events


def export_chrome_trace(path: Union[str, Path], source: SpanSource,
                        meta: Optional[Dict[str, Any]] = None) -> str:
    """Write a Perfetto-loadable Chrome trace JSON file; returns text."""
    document = {
        "traceEvents": chrome_trace_events(source),
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}),
    }
    text = json.dumps(document, indent=2, sort_keys=True, default=str)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    return text
