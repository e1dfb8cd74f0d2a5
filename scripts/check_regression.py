#!/usr/bin/env python
"""Noise-aware performance-regression gate (``make bench-regress``).

Re-runs the committed bench suites and fails when performance regressed
relative to the checked-in baseline documents:

- **obs** (``BENCH_obs.json``) — the instrumentation overhead budget:
  default / disabled tracing must stay within
  ``max(2% of baseline, 2 ms)`` of the uninstrumented pipeline;
- **cache** (``BENCH_cache.json``) — warm-hit and incremental-append
  speedups against their committed values and hard floors;
- **transversal** (``BENCH_transversal.json``) — the kernel's
  transversal speedup over the legacy levelwise search, plus
  bit-identical transversal families;
- **columnar** (``BENCH_columnar.json``) — the columnar backend's
  whole-pipeline speedup over the pure-Python path, plus bit-identical
  FD covers across backend × jobs cells;
- **ingest** (``BENCH_ingest.json``) — the streaming CSV→cover
  speedup over the materializing ``relation_from_csv`` path, plus
  bit-identical covers/Armstrong relations across ingest path ×
  backend × jobs cells and a warm-cache replay that must be served
  without building the ``Relation``;
- **serve** (``BENCH_serve.json``) — the discovery daemon's
  warm-session cover query against a cold one-shot process and an
  in-process cold mine, plus a bit-identical served cover.

Every suite additionally runs an instrumented **probe**: a full
``DepMiner`` pipeline under a :class:`~repro.obs.Tracer` and
:class:`~repro.obs.resources.ResourceSampler`, whose
:class:`~repro.obs.manifest.RunManifest` is written into
``results/telemetry/regress_<suite>.json``.  The probe's per-phase
fractions (each phase's fastest time across the probe runs) are
compared against the baseline's committed ``phases`` section, so a
failure names *which pipeline phase* grew — per-phase attribution, not
just a slower total.

All checks are machine-independent: they compare speedup *ratios* and
relative *phase fractions*, never absolute seconds, and every threshold
carries a noise margin.  Absolute-seconds numbers in the baselines are
informational.

Usage::

    PYTHONPATH=src python scripts/check_regression.py [--suite NAME ...]
        [--baseline-dir DIR] [--telemetry-dir DIR]
        [--update-baselines] [--inject slow-kernel]

``--update-baselines`` re-measures and rewrites the baseline documents
(including the ``phases`` fractions) instead of checking — run it after
an intentional perf change, or with shrunken ``REPRO_BENCH_*`` env
workloads to create hermetic test baselines.  ``--inject slow-kernel``
monkeypatches the transversal kernel to the legacy levelwise search
(three redundant passes): the self-test that the gate actually fires.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from repro.core.depminer import DepMiner  # noqa: E402
from repro.datagen.synthetic import generate_relation  # noqa: E402
from repro.obs import (  # noqa: E402
    MetricsRegistry,
    ResourceSampler,
    RunManifest,
    Tracer,
)

SUITES = ("obs", "cache", "transversal", "columnar", "ingest", "serve")
BASELINE_FILES = {
    "obs": "BENCH_obs.json",
    "cache": "BENCH_cache.json",
    "transversal": "BENCH_transversal.json",
    "columnar": "BENCH_columnar.json",
    "ingest": "BENCH_ingest.json",
    "serve": "BENCH_serve.json",
}

#: A measured speedup may sag to this fraction of its committed value
#: before the gate fires — scheduler noise on CI runners is real.
RATIO_MARGIN = 0.6
#: A phase fraction may grow to ``baseline * PHASE_FACTOR +
#: PHASE_SLACK`` before it counts as a regression …
PHASE_FACTOR = 1.5
PHASE_SLACK = 0.02
#: … and phases below this share of the run are ignored outright
#: (their timings are noise at millisecond scale).
PHASE_MIN_FRACTION = 0.02
#: The probe makes at least this many instrumented runs …
PROBE_RUNS = 3
#: … and adds runs until they sum to this many seconds, so a
#: millisecond-scale workload still gets enough runs for stable
#: per-phase minima.
PROBE_MIN_SECONDS = 1.0


# -- injection ---------------------------------------------------------------

def inject_slow_kernel() -> None:
    """Force the transversal kernel back to the legacy levelwise search.

    Three redundant levelwise passes per call make the slowdown
    unambiguous even on tiny test workloads.  The pipeline reaches the
    kernel through the dispatcher, ``repro.hypergraph.transversals``,
    which binds it at import time, as does the bench module: both
    references are re-pointed, with the kernel module's own.
    """
    import repro.hypergraph.kernel as kernel_module
    import repro.hypergraph.transversals as transversals_module
    from repro.hypergraph.transversals import minimal_transversals_levelwise

    def slow_kernel(edges, num_vertices=0, *args, **kwargs):
        minimal_transversals_levelwise(edges, num_vertices)
        minimal_transversals_levelwise(edges, num_vertices)
        return minimal_transversals_levelwise(edges, num_vertices)

    kernel_module.minimal_transversals_kernel = slow_kernel
    transversals_module.minimal_transversals_kernel = slow_kernel
    import repro.hypergraph
    repro.hypergraph.minimal_transversals_kernel = slow_kernel
    from benchmarks import bench_transversal_kernel
    bench_transversal_kernel.minimal_transversals_kernel = slow_kernel


# -- instrumented probe ------------------------------------------------------

def phase_fractions(manifests: List[RunManifest]) -> Dict[str, float]:
    """Phase shares from each phase's fastest time across *manifests*.

    One run's fractions carry that run's stalls (a GC pause, a sampler
    wake-up, a preempted phase); each phase's minimum across runs is
    what it costs when nothing interferes, so the shares built from
    the minima are comparable across machines and repeats.
    """
    fastest: Dict[str, float] = {}
    for manifest in manifests:
        for name, seconds in manifest.phases.items():
            fastest[name] = min(seconds, fastest.get(name, seconds))
    total = sum(fastest.values())
    return {name: seconds / total if total else 0.0
            for name, seconds in fastest.items()}


def run_probe(suite: str, workload: Dict[str, Any],
              meta: Dict[str, Any]) -> Tuple[RunManifest, Dict[str, float]]:
    """Fully instrumented pipeline runs: the fastest one's manifest plus
    the per-phase fractions of :func:`phase_fractions` over all runs.

    At least ``PROBE_RUNS`` runs, and more until they add up to
    ``PROBE_MIN_SECONDS``.  The manifest of the fastest run (by
    root-span duration) is the one written to the telemetry directory.

    The **ingest** probe streams the bench CSV through ``ingest_csv``
    under the same tracer instead of mining a pre-built relation, so
    its committed phase fractions pin the ``ingest.read`` /
    ``ingest.factorize`` stage profile alongside the mining phases.
    """
    csv_path = workload.get("csv")
    relation = None
    if csv_path is None:
        relation = generate_relation(
            workload["attrs"], workload["rows"],
            correlation=workload["correlation"], seed=0,
        )
    backend = workload.get("backend", "python")
    manifests: List[RunManifest] = []
    while (len(manifests) < PROBE_RUNS
           or sum(m.total_seconds for m in manifests) < PROBE_MIN_SECONDS):
        tracer = Tracer()
        metrics = MetricsRegistry()
        sampler = ResourceSampler(tracer=tracer)
        sampler.start()
        try:
            if csv_path is not None:
                from repro.columnar.ingest import ingest_csv

                source = ingest_csv(csv_path, tracer=tracer)
            else:
                source = relation
            DepMiner(build_armstrong="none", backend=backend,
                     tracer=tracer, metrics=metrics).run(source)
        finally:
            sampler.stop()
        manifests.append(RunManifest.build(
            command=f"check-regression:{suite}", tracer=tracer,
            metrics=metrics, resources=sampler,
            meta=dict(meta, probe_workload=workload),
        ))
    best = min(manifests, key=lambda manifest: manifest.total_seconds)
    best.meta["probe_runs"] = len(manifests)
    return best, phase_fractions(manifests)


def probe_workload(suite: str, bench) -> Dict[str, Any]:
    """The probe relation parameters, tied to each suite's bench env."""
    if suite == "obs":
        attrs, rows = max(bench.CELLS)
        return {"attrs": attrs, "rows": rows, "correlation": None}
    workload = {
        "attrs": bench.ATTRS,
        "rows": bench.ROWS,
        "correlation": getattr(bench, "CORRELATION", None),
    }
    if suite in ("columnar", "ingest"):
        # Probe the columnar pipeline itself, so the committed phase
        # fractions pin the columnar stage profile, not the python one.
        workload["backend"] = "columnar"
    if suite == "ingest":
        # Stream the bench CSV so the probe covers the ingest phases.
        workload["csv"] = str(bench.workload_csv())
    return workload


# -- checks ------------------------------------------------------------------

class Gate:
    """Accumulates named pass/fail checks for one suite."""

    def __init__(self, suite: str):
        self.suite = suite
        self.checks: List[Dict[str, Any]] = []

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        marker = "ok  " if ok else "FAIL"
        print(f"  [{marker}] {name}: {detail}")

    @property
    def failures(self) -> List[Dict[str, Any]]:
        return [c for c in self.checks if not c["ok"]]


def check_phases(gate: Gate, baseline: Dict[str, Any],
                 current: Dict[str, float]) -> None:
    """Per-phase attribution: which phase of the probe grew?"""
    committed = baseline.get("phases")
    if not committed:
        gate.check("phases.baseline", True,
                   "baseline has no phases section (pre-gate baseline); "
                   "run --update-baselines to add one")
        return
    for name in sorted(committed):
        base = committed[name]
        now = current.get(name, 0.0)
        if base < PHASE_MIN_FRACTION and now < PHASE_MIN_FRACTION:
            continue
        allowed = base * PHASE_FACTOR + PHASE_SLACK
        gate.check(
            f"phase.{name}", now <= allowed,
            f"{now:.1%} of run vs baseline {base:.1%} "
            f"(allowed {allowed:.1%})",
        )


def check_workload(gate: Gate, baseline: Dict[str, Any],
                   current: Dict[str, Any]) -> bool:
    """Ratios only compare like with like: the workloads must match."""
    strip = lambda d: {k: v for k, v in (d or {}).items() if k != "repeats"}
    base, now = strip(baseline.get("workload")), strip(current.get("workload"))
    ok = base == now
    gate.check(
        "workload.matches_baseline", ok,
        "identical" if ok else (
            f"baseline {base} vs current {now} — rerun with matching "
            f"REPRO_BENCH_* env or --update-baselines"
        ),
    )
    return ok


def check_ratio(gate: Gate, name: str, current: float, committed: float,
                floor: float) -> None:
    threshold = max(floor, committed * RATIO_MARGIN)
    gate.check(
        f"speedup.{name}", current >= threshold,
        f"{current:.2f}x vs committed {committed:.2f}x "
        f"(threshold {threshold:.2f}x)",
    )


# -- suites ------------------------------------------------------------------

def run_obs(gate: Gate, baseline: Dict[str, Any]) -> Dict[str, Any]:
    from benchmarks import bench_obs_overhead as bench

    timings = bench.measure()
    report = bench.overhead_report(timings)
    check_workload(gate, baseline, report)
    base_seconds = timings["baseline"]
    allowed = max(base_seconds * bench.MAX_OVERHEAD_RATIO,
                  bench.ABSOLUTE_SLACK_SECONDS)
    for variant in ("default", "disabled", "telemetry"):
        if variant not in timings:
            continue
        overhead = timings[variant] - base_seconds
        gate.check(
            f"overhead.{variant}", overhead <= allowed,
            f"+{overhead * 1000:.2f} ms over baseline "
            f"{base_seconds * 1000:.2f} ms "
            f"(allowed +{allowed * 1000:.2f} ms)",
        )
    return report


def run_cache(gate: Gate, baseline: Dict[str, Any]) -> Dict[str, Any]:
    from benchmarks import bench_cache as bench

    measured = bench.measure()
    report = bench.report(measured)
    covers = measured["covers"]
    gate.check(
        "covers.warm_identical", covers["cold"] == covers["warm"],
        "warm rerun reproduces the cold cover",
    )
    gate.check(
        "covers.incremental_identical",
        covers["cold_grown"] == covers["incremental"],
        "incremental append reproduces the cold re-mine cover",
    )
    if check_workload(gate, baseline, report):
        floors = baseline.get("floors", {})
        committed = baseline.get("speedup", {})
        for name in ("warm_vs_cold", "incremental_vs_cold_grown"):
            check_ratio(gate, name, report["speedup"][name],
                        committed.get(name, 0.0), floors.get(name, 0.0))
    return report


def run_transversal(gate: Gate, baseline: Dict[str, Any]) -> Dict[str, Any]:
    from benchmarks import bench_transversal_kernel as bench

    measured = bench.measure()
    report = bench.report(measured)
    outputs = measured["outputs"]
    gate.check(
        "transversals.identical",
        outputs["legacy"] == outputs["kernel"],
        "the kernel and the legacy search emit identical transversal "
        "families",
    )
    if check_workload(gate, baseline, report):
        floors = baseline.get("floors", {})
        committed = baseline.get("speedup", {})
        name = "kernel_vs_legacy"
        check_ratio(gate, name, report["speedup"][name],
                    committed.get(name, 0.0), floors.get(name, 0.0))
    return report


def run_columnar(gate: Gate, baseline: Dict[str, Any]) -> Dict[str, Any]:
    from benchmarks import bench_columnar as bench

    measured = bench.measure()
    report = bench.report(measured)
    gate.check(
        "covers.backends_identical", report["covers_identical"],
        "python and columnar backends emit identical FD covers",
    )
    gate.check(
        "covers.backend_jobs_grid_identical",
        report["covers_identical_across_backends_and_jobs"],
        "covers identical across the backend x jobs conformance grid",
    )
    if check_workload(gate, baseline, report):
        floors = baseline.get("floors", {})
        committed = baseline.get("speedup", {})
        check_ratio(
            gate, "columnar_vs_python",
            report["speedup"]["columnar_vs_python"],
            committed.get("columnar_vs_python", 0.0),
            floors.get("columnar_vs_python", 0.0),
        )
    return report


def run_ingest(gate: Gate, baseline: Dict[str, Any]) -> Dict[str, Any]:
    from benchmarks import bench_ingest as bench

    measured = bench.measure()
    report = bench.report(measured)
    gate.check(
        "covers.ingest_paths_identical", report["covers_identical"],
        "legacy and streaming ingest paths emit identical FD covers",
    )
    gate.check(
        "outputs.paths_backends_jobs_identical",
        report["outputs_identical_across_paths_backends_and_jobs"],
        "covers and Armstrong relations identical across the "
        "ingest-path x backend x jobs conformance grid",
    )
    warm = report["warm_cache"]
    gate.check(
        "warm_cache.full_hit_without_materialization",
        warm["full_hit"] == 1 and not warm["materialized"]
        and warm["covers_identical"] and warm["armstrong_identical"],
        "warm replay served from the cache before the Relation exists",
    )
    if check_workload(gate, baseline, report):
        floors = baseline.get("floors", {})
        committed = baseline.get("speedup", {})
        check_ratio(
            gate, "streaming_vs_legacy",
            report["speedup"]["streaming_vs_legacy"],
            committed.get("streaming_vs_legacy", 0.0),
            floors.get("streaming_vs_legacy", 0.0),
        )
    return report


def run_serve(gate: Gate, baseline: Dict[str, Any]) -> Dict[str, Any]:
    from benchmarks import bench_serve as bench

    measured = bench.measure()
    report = bench.report(measured)
    covers = measured["covers"]
    gate.check(
        "covers.served_identical",
        covers["warm_session"] == covers["cold_mine"],
        "warm daemon session serves the cold DepMiner.run cover",
    )
    if check_workload(gate, baseline, report):
        floors = baseline.get("floors", {})
        committed = baseline.get("speedup", {})
        for name in ("warm_session_vs_cold_process",
                     "warm_session_vs_cold_mine"):
            check_ratio(gate, name, report["speedup"][name],
                        committed.get(name, 0.0), floors.get(name, 0.0))
    return report


SUITE_RUNNERS = {
    "obs": run_obs,
    "cache": run_cache,
    "transversal": run_transversal,
    "columnar": run_columnar,
    "ingest": run_ingest,
    "serve": run_serve,
}


def bench_module(suite: str):
    import importlib

    return importlib.import_module({
        "obs": "benchmarks.bench_obs_overhead",
        "cache": "benchmarks.bench_cache",
        "transversal": "benchmarks.bench_transversal_kernel",
        "columnar": "benchmarks.bench_columnar",
        "ingest": "benchmarks.bench_ingest",
        "serve": "benchmarks.bench_serve",
    }[suite])


# -- baseline regeneration ---------------------------------------------------

def update_baseline(suite: str, baseline_path: Path,
                    fractions: Dict[str, float],
                    report: Dict[str, Any]) -> None:
    """Rewrite one baseline document from the fresh measurements.

    The committed hard floors survive only where the fresh measurement
    clears them — regenerating on a deliberately tiny test workload
    (where e.g. the kernel speedup collapses) lowers the floor to half
    the measured ratio instead of baking in an unmeetable bar.
    """
    document = dict(report)
    if "floors" in document and "speedup" in document:
        floors = {}
        for name, floor in document["floors"].items():
            measured = document["speedup"].get(name, 0.0)
            if measured >= floor:
                floors[name] = floor
            else:
                floors[name] = round(max(0.1, measured * 0.5), 2)
        document["floors"] = floors
    document["phases"] = {
        name: round(value, 4) for name, value in fractions.items()
    }
    baseline_path.parent.mkdir(parents=True, exist_ok=True)
    baseline_path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    print(f"  wrote baseline {baseline_path}")


# -- driver ------------------------------------------------------------------

def run_suite(suite: str, baseline_dir: Path, telemetry_dir: Path,
              update: bool, injected: Optional[str]) -> Tuple[bool, Path]:
    baseline_path = baseline_dir / BASELINE_FILES[suite]
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
    elif update:
        baseline = {}
    else:
        print(f"== {suite}: missing baseline {baseline_path}")
        return False, baseline_path
    print(f"== {suite} "
          f"({'updating baselines' if update else 'checking'}"
          f"{', injected: ' + injected if injected else ''})")
    gate = Gate(suite)
    bench = bench_module(suite)
    started = time.perf_counter()
    report = SUITE_RUNNERS[suite](gate, baseline)
    manifest, fractions = run_probe(
        suite, probe_workload(suite, bench),
        meta={
            "suite": suite,
            "mode": "update-baselines" if update else "check",
            "injected": injected,
            "baseline": str(baseline_path),
        },
    )
    if not update:
        check_phases(gate, baseline, fractions)
    manifest.meta["checks"] = gate.checks
    manifest.meta["bench_report"] = report
    manifest.meta["gate_seconds"] = round(
        time.perf_counter() - started, 3
    )
    out = manifest.write(telemetry_dir / f"regress_{suite}.json")
    print(f"  telemetry manifest: {out}")
    if update:
        update_baseline(suite, baseline_path, fractions, report)
        return True, baseline_path
    failures = gate.failures
    if failures:
        print(f"  {suite}: {len(failures)} regression(s):")
        for failure in failures:
            print(f"    REGRESSED {failure['name']}: {failure['detail']}")
    else:
        print(f"  {suite}: all {len(gate.checks)} checks passed")
    return not failures, baseline_path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="noise-aware perf-regression gate over the bench "
                    "suites (see module docstring)",
    )
    parser.add_argument(
        "--suite", action="append", choices=SUITES, dest="suites",
        help="suite(s) to run (default: all)",
    )
    parser.add_argument(
        "--baseline-dir", type=Path, default=REPO_ROOT,
        help="directory holding BENCH_*.json (default: repo root)",
    )
    parser.add_argument(
        "--telemetry-dir", type=Path,
        default=REPO_ROOT / "results" / "telemetry",
        help="where to write regress_<suite>.json manifests",
    )
    parser.add_argument(
        "--update-baselines", action="store_true",
        help="rewrite the baseline documents instead of checking",
    )
    parser.add_argument(
        "--inject", choices=("slow-kernel",),
        help="deliberately slow the pipeline first (gate self-test)",
    )
    args = parser.parse_args(argv)
    if args.inject == "slow-kernel":
        inject_slow_kernel()
    suites = args.suites or list(SUITES)
    ok = True
    for suite in suites:
        suite_ok, _ = run_suite(
            suite, args.baseline_dir, args.telemetry_dir,
            args.update_baselines, args.inject,
        )
        ok = ok and suite_ok
    if not ok:
        print("bench-regress: FAILED (see REGRESSED lines above)")
        return 1
    print("bench-regress: OK" if not args.update_baselines
          else "bench-regress: baselines updated")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
