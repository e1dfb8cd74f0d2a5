"""The run manifest: one versioned JSON artifact per mining run.

A :class:`RunManifest` unifies everything the observability layer knows
about one run into a single queryable document:

- the **span tree** (tree-ordered ``Span.to_record`` dicts) and the
  derived **phase timings**;
- the full **metrics snapshot** (counters / gauges / histograms with
  p50/p95/p99) plus a **per-subsystem grouping** — ``cache.*``,
  ``parallel.*``, ``transversal.*``, ``reliability.*`` … keyed by the
  first dotted component — so the cache hit rate, shard retries and
  kernel reduction stats of a run live next to its timings;
- an **environment capture** (Python / NumPy versions, platform, CPU
  count, repro version);
- the optional **relation fingerprint** from :mod:`repro.cache` and the
  optional **resource summary** from
  :class:`~repro.obs.resources.ResourceSampler`.

The serialized form is versioned (``repro-run-manifest`` / version 1),
key-sorted and round-trip stable: ``RunManifest.from_json(m.to_json())``
re-serializes byte-identically.  ``scripts/check_regression.py`` emits
one manifest per bench suite into ``results/telemetry/``; the CLI's
``--telemetry`` flag emits one per command; ``repro trace summary``
reads either manifests or raw trace JSONL.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, span_records

__all__ = [
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "RunManifest",
    "capture_environment",
    "group_metrics",
    "relation_summary",
    "validate_manifest",
]

MANIFEST_FORMAT = "repro-run-manifest"
MANIFEST_VERSION = 1

_EMPTY_SNAPSHOT: Dict[str, Dict[str, Any]] = {
    "counters": {}, "gauges": {}, "histograms": {},
}


def capture_environment() -> Dict[str, Any]:
    """The reproducibility context of the current process."""
    try:
        from repro import __version__ as repro_version
    except Exception:  # pragma: no cover - partial installs
        repro_version = None
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
        "repro": repro_version,
        "argv0": sys.argv[0] if sys.argv else None,
    }


def group_metrics(snapshot: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Group a :meth:`MetricsRegistry.snapshot` by subsystem prefix.

    ``cache.hit`` lands under ``{"cache": {"counters": {"cache.hit":
    ...}}}`` and so on; the prefix is the first dotted component, or
    the whole name for prefix-less metrics.
    """
    grouped: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for kind in ("counters", "gauges", "histograms"):
        for name, value in snapshot.get(kind, {}).items():
            subsystem = name.split(".", 1)[0]
            grouped.setdefault(subsystem, {}).setdefault(kind, {})[name] = \
                value
    return grouped


def relation_summary(relation: Any, nulls_equal: bool = True,
                     source: Optional[str] = None) -> Dict[str, Any]:
    """The manifest's ``relation`` section, fingerprint included.

    Uses the row-permutation-invariant content fingerprint from
    :mod:`repro.cache.fingerprint`, so two manifests describe the same
    data iff their fingerprints match — regardless of row order.
    """
    from repro.cache.fingerprint import fingerprint_relation

    return {
        "fingerprint": fingerprint_relation(relation, nulls_equal),
        "attributes": len(relation.schema),
        "rows": len(relation),
        "nulls_equal": nulls_equal,
        "source": source,
    }


@dataclass
class RunManifest:
    """One run's telemetry, ready to serialize (see the module doc)."""

    command: str
    created_unix: float
    status: str = "ok"
    meta: Dict[str, Any] = field(default_factory=dict)
    environment: Dict[str, Any] = field(default_factory=dict)
    relation: Optional[Dict[str, Any]] = None
    phases: Dict[str, float] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Dict[str, Any]] = field(
        default_factory=lambda: {k: dict(v)
                                 for k, v in _EMPTY_SNAPSHOT.items()}
    )
    subsystems: Dict[str, Any] = field(default_factory=dict)
    resources: Optional[Dict[str, Any]] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, command: str,
              tracer: Optional[Union[Tracer, List[Any]]] = None,
              metrics: Optional[MetricsRegistry] = None,
              resources: Optional[Any] = None,
              relation: Optional[Dict[str, Any]] = None,
              meta: Optional[Dict[str, Any]] = None,
              created_unix: Optional[float] = None) -> "RunManifest":
        """Assemble a manifest from live observability objects.

        *tracer* may be a :class:`Tracer` (disabled tracers yield an
        empty span section), a span list, or ``None``; *resources* a
        :class:`~repro.obs.resources.ResourceSampler` or a pre-built
        summary dict.
        """
        spans = span_records(tracer)
        phases: Dict[str, float] = {}
        for record in spans:
            if record.get("attrs", {}).get("phase"):
                phases[record["name"]] = record["duration"]
        status = "ok"
        if any(record.get("status") == "error" for record in spans):
            status = "error"
        snapshot = (
            metrics.snapshot() if metrics is not None
            else {k: dict(v) for k, v in _EMPTY_SNAPSHOT.items()}
        )
        if resources is not None and hasattr(resources, "summary"):
            resources = resources.summary()
        return cls(
            command=command,
            created_unix=(
                created_unix if created_unix is not None else time.time()
            ),
            status=status,
            meta=dict(meta or {}),
            environment=capture_environment(),
            relation=relation,
            phases=phases,
            spans=spans,
            metrics=snapshot,
            subsystems=group_metrics(snapshot),
            resources=resources,
        )

    # -- derived views ------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        """Wall time: the longest root span, falling back to phase sum."""
        roots = [s["duration"] for s in self.spans if s.get("depth") == 0]
        if roots:
            return max(roots)
        return sum(self.phases.values())

    def phase_fractions(self) -> Dict[str, float]:
        """Each phase's share of the phase-time total (sums to 1)."""
        total = sum(self.phases.values())
        if not total:
            return {name: 0.0 for name in self.phases}
        return {name: value / total for name, value in self.phases.items()}

    def counter(self, name: str, default: float = 0) -> float:
        return self.metrics.get("counters", {}).get(name, default)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "command": self.command,
            "created_unix": self.created_unix,
            "status": self.status,
            "meta": self.meta,
            "environment": self.environment,
            "relation": self.relation,
            "phases": self.phases,
            "spans": self.spans,
            "metrics": self.metrics,
            "subsystems": self.subsystems,
            "resources": self.resources,
        }

    def to_json(self) -> str:
        return json.dumps(
            self.to_dict(), indent=2, sort_keys=True, default=str
        ) + "\n"

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "RunManifest":
        problems = validate_manifest(document)
        if problems:
            raise ValueError(
                "invalid run manifest: " + "; ".join(problems)
            )
        return cls(
            command=document["command"],
            created_unix=document["created_unix"],
            status=document.get("status", "ok"),
            meta=document.get("meta", {}),
            environment=document.get("environment", {}),
            relation=document.get("relation"),
            phases=document.get("phases", {}),
            spans=document.get("spans", []),
            metrics=document.get("metrics", dict(_EMPTY_SNAPSHOT)),
            subsystems=document.get("subsystems", {}),
            resources=document.get("resources"),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls.from_dict(json.loads(text))

    def write(self, path: Union[str, Path]) -> Path:
        """Serialize to *path*, creating parent directories."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        return cls.from_json(Path(path).read_text())

    def __repr__(self) -> str:
        return (
            f"RunManifest({self.command!r}, status={self.status}, "
            f"{len(self.spans)} spans, {len(self.phases)} phases)"
        )


def validate_manifest(document: Dict[str, Any]) -> List[str]:
    """Schema check of a manifest dict; returns problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["manifest must be a JSON object"]
    if document.get("format") != MANIFEST_FORMAT:
        problems.append(
            f"format must be {MANIFEST_FORMAT!r}, "
            f"got {document.get('format')!r}"
        )
    if document.get("version") != MANIFEST_VERSION:
        problems.append(
            f"version must be {MANIFEST_VERSION}, "
            f"got {document.get('version')!r}"
        )
    if not document.get("command"):
        problems.append("manifest without a command")
    if not isinstance(document.get("created_unix"), (int, float)):
        problems.append("created_unix must be a number")
    if document.get("status") not in ("ok", "error"):
        problems.append(
            f"status must be 'ok' or 'error', got {document.get('status')!r}"
        )
    phases = document.get("phases", {})
    if not isinstance(phases, dict):
        problems.append("phases must be an object")
    else:
        for name, value in phases.items():
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"phase {name!r} has invalid duration "
                                f"{value!r}")
    spans = document.get("spans", [])
    if not isinstance(spans, list):
        problems.append("spans must be a list")
    else:
        seen: set = set()
        for index, record in enumerate(spans):
            if not isinstance(record, dict) or "id" not in record:
                problems.append(f"span #{index} is not a span record")
                continue
            parent = record.get("parent_id")
            if parent is not None and parent not in seen:
                problems.append(
                    f"span #{index} ({record.get('name')!r}) exported "
                    f"before its parent {parent}"
                )
            seen.add(record["id"])
    metrics = document.get("metrics", _EMPTY_SNAPSHOT)
    if not isinstance(metrics, dict) or not \
            set(metrics) >= {"counters", "gauges", "histograms"}:
        problems.append(
            "metrics must hold counters/gauges/histograms sections"
        )
    return problems
