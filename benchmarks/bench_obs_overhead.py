"""Overhead guard for the ``repro.obs`` instrumentation.

Compares four ways of running the Dep-Miner pipeline over the Table-3
benchmark cells (the same |R| x |r| grid as ``bench_table3.py``):

- **baseline** — the five pipeline steps called directly, with no
  observability wiring at all (the pre-``repro.obs`` shape of
  ``DepMiner.run``, minus its per-phase clock reads);
- **default** — ``DepMiner().run``: a private enabled tracer collects
  the ~9 coarse phase spans, metrics and progress are no-ops;
- **disabled** — ``DepMiner(tracer=NULL_TRACER).run``: even the phase
  spans are no-op singletons;
- **telemetry** — the full ``--telemetry`` stack: one enabled
  :class:`~repro.obs.Tracer` + :class:`~repro.obs.MetricsRegistry` +
  background :class:`~repro.obs.resources.ResourceSampler` per grid
  sweep, finished by a :class:`~repro.obs.manifest.RunManifest` build
  (serialization excluded — that is I/O, not instrumentation).

The test asserts every instrumented path stays within 2% of the
baseline (min-of-repeats timings; a 4 ms absolute floor absorbs
scheduler noise on runs this short — the whole grid completes in tens
of milliseconds, and shared CI runners show variant-to-variant swings
of ±1.5 ms even at min-of-60, so sub-floor deltas are unresolvable
there; on second-scale runs the 2% ratio is the binding budget).

Run as a script to (re)generate the committed baseline document::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [BENCH_obs.json]

``REPRO_BENCH_OBS_REPEATS`` overrides the repeat count (the regression
gate's hermetic tests shrink it).
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Dict, List, Tuple

from repro.core.agree_sets import agree_sets
from repro.core.armstrong import (
    classical_armstrong,
    real_world_armstrong,
    real_world_armstrong_exists,
)
from repro.core.depminer import DepMiner
from repro.core.lhs import fd_output, left_hand_sides
from repro.core.maximal_sets import (
    complement_maximal_sets,
    max_set_union,
    maximal_sets,
)
from repro.core.relation import Relation
from repro.datagen.synthetic import generate_relation
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    ResourceSampler,
    RunManifest,
    Tracer,
)
from repro.partitions.database import StrippedPartitionDatabase

# The Table-3 grid at benchmark scale ("without constraints").
CELLS: Tuple[Tuple[int, int], ...] = ((5, 200), (5, 500), (10, 200),
                                      (10, 500))
REPEATS = int(os.environ.get("REPRO_BENCH_OBS_REPEATS", "40"))
MAX_OVERHEAD_RATIO = 0.02
#: Noise floor, not a budget: on the ~20 ms grid, shared runners swing
#: individual variants by ±1.5 ms run to run, so overhead deltas below
#: this are measurement artifacts.  The ratio above governs any run
#: long enough for the floor not to matter.
ABSOLUTE_SLACK_SECONDS = 0.004


def _baseline_pipeline(relation: Relation) -> None:
    """The seed-equivalent pipeline: no spans, metrics or progress."""
    spdb = StrippedPartitionDatabase.from_relation(relation)
    schema = spdb.schema
    mc = spdb.maximal_classes()
    agree = agree_sets(spdb, mc=mc)
    max_sets = maximal_sets(agree, schema)
    cmax = complement_maximal_sets(max_sets, schema)
    lhs_sets = left_hand_sides(cmax, schema,
                               method=DepMiner.DEFAULT_TRANSVERSAL)
    fd_output(lhs_sets, schema)
    union = max_set_union(max_sets)
    classical_armstrong(schema, union)
    if real_world_armstrong_exists(relation, union):
        real_world_armstrong(relation, union)


def _baseline_sweep(relations: List[Relation]) -> None:
    for relation in relations:
        _baseline_pipeline(relation)


def _default_sweep(relations: List[Relation]) -> None:
    for relation in relations:
        DepMiner().run(relation)


def _disabled_sweep(relations: List[Relation]) -> None:
    for relation in relations:
        DepMiner(tracer=NULL_TRACER).run(relation)


def _telemetry_sweep(relations: List[Relation]) -> None:
    """One ``--telemetry`` CLI run's worth of instrumentation per sweep."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    with ResourceSampler(tracer=tracer) as sampler:
        miner = DepMiner(tracer=tracer, metrics=metrics)
        for relation in relations:
            miner.run(relation)
    RunManifest.build("bench-obs-overhead", tracer=tracer, metrics=metrics,
                      resources=sampler)


#: Each variant runs one whole grid sweep — the unit a CLI invocation
#: would instrument (the telemetry variant pays its sampler start/stop
#: and manifest build once per sweep, exactly like ``repro discover``).
VARIANTS: Dict[str, Callable[[List[Relation]], None]] = {
    "baseline": _baseline_sweep,
    "default": _default_sweep,
    "disabled": _disabled_sweep,
    "telemetry": _telemetry_sweep,
}


def _grid() -> List[Relation]:
    return [
        generate_relation(attrs, rows, correlation=None, seed=0)
        for attrs, rows in CELLS
    ]


def measure(repeats: int = REPEATS) -> Dict[str, float]:
    """Min-of-*repeats* seconds for one full grid sweep, per variant.

    Variants are interleaved within each repeat so cache warm-up and
    frequency scaling hit all four alike.
    """
    relations = _grid()
    best = {name: float("inf") for name in VARIANTS}
    for _ in range(repeats):
        for name, sweep in VARIANTS.items():
            start = time.perf_counter()
            sweep(relations)
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def overhead_report(timings: Dict[str, float]) -> Dict[str, object]:
    baseline = timings["baseline"]
    return {
        "workload": {
            "cells": [list(cell) for cell in CELLS],
            "correlation": None,
            "repeats": REPEATS,
        },
        "seconds": {name: round(value, 6)
                    for name, value in timings.items()},
        "overhead_vs_baseline": {
            name: round((timings[name] - baseline) / baseline, 4)
            for name in ("default", "disabled", "telemetry")
        },
        "budget": {
            "max_ratio": MAX_OVERHEAD_RATIO,
            "absolute_slack_seconds": ABSOLUTE_SLACK_SECONDS,
        },
    }


def test_instrumentation_overhead_is_within_budget():
    timings = measure()
    baseline = timings["baseline"]
    allowed = max(baseline * MAX_OVERHEAD_RATIO, ABSOLUTE_SLACK_SECONDS)
    for name in ("default", "disabled", "telemetry"):
        overhead = timings[name] - baseline
        assert overhead <= allowed, (
            f"{name} pipeline exceeded the overhead budget: "
            f"{timings[name]:.4f}s vs baseline {baseline:.4f}s "
            f"(+{overhead:.4f}s, allowed {allowed:.4f}s)"
        )


def test_variants_compute_the_same_cover():
    relation = _grid()[0]
    fds = {
        tuple(sorted(str(fd) for fd in DepMiner(tracer=tracer).run(
            relation).fds))
        for tracer in (None, NULL_TRACER)
    }
    assert len(fds) == 1


def main(argv: List[str]) -> int:
    path = argv[0] if argv else "BENCH_obs.json"
    report = overhead_report(measure())
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
