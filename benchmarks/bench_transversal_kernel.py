"""Speedup guard for the layered transversal kernel.

Times the ``LEFT_HAND_SIDE`` transversal stage in isolation on the cmax
hypergraph families of a **wide-schema** correlated relation — the
regime (Figures 5-7 of the paper) where the levelwise search dominates
Dep-Miner's runtime:

- **legacy** — ``minimal_transversals_levelwise`` (Algorithm 5 as the
  paper states it: per-candidate ``O(|edges|)`` rescans);
- **kernel** — ``minimal_transversals_kernel`` (reduction pass +
  incremental-coverage core).

The tests assert the acceptance floor of the kernel work: the kernel
≥ 3× the legacy search on the wide workload, with bit-for-bit
identical transversal families — and, end to end, identical FD covers
through :class:`~repro.core.depminer.DepMiner` across all transversal
algorithms at ``jobs`` 1 and 2.  Timings are min-of-repeats, with
rounds added until every algorithm has :data:`MIN_SAMPLE_SECONDS` of
samples (a millisecond-scale workload otherwise rests on one noisy
sample); the cmax families are mined once (partitions → agree sets →
max/cmax) so the timers see only the transversal stage.

The workload is environment-parameterised::

    REPRO_BENCH_TRANSVERSAL_ATTRS=26 REPRO_BENCH_TRANSVERSAL_ROWS=500 \
        PYTHONPATH=src python benchmarks/bench_transversal_kernel.py \
        [BENCH_transversal.json]

Run as a script to (re)generate the committed ``BENCH_transversal.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List

from repro.core.agree_sets import agree_sets
from repro.core.depminer import DepMiner
from repro.core.maximal_sets import maximal_sets_for_attribute
from repro.datagen.synthetic import generate_relation
from repro.hypergraph.kernel import minimal_transversals_kernel
from repro.hypergraph.transversals import minimal_transversals_levelwise
from repro.partitions.database import StrippedPartitionDatabase

ATTRS = int(os.environ.get("REPRO_BENCH_TRANSVERSAL_ATTRS", "30"))
ROWS = int(os.environ.get("REPRO_BENCH_TRANSVERSAL_ROWS", "800"))
CORRELATION = float(
    os.environ.get("REPRO_BENCH_TRANSVERSAL_CORRELATION", "0.6")
)
REPEATS = int(os.environ.get("REPRO_BENCH_TRANSVERSAL_REPEATS", "3"))
#: ``measure`` keeps adding rounds past ``repeats`` until every
#: algorithm's samples sum to at least this many seconds.
MIN_SAMPLE_SECONDS = 0.25

MIN_KERNEL_SPEEDUP = 3.0

#: The end-to-end cover-equivalence sweep (smaller: it runs the full
#: pipeline once per algorithm per jobs value).
COVER_ATTRS = int(os.environ.get("REPRO_BENCH_TRANSVERSAL_COVER_ATTRS",
                                 "12"))
COVER_ROWS = int(os.environ.get("REPRO_BENCH_TRANSVERSAL_COVER_ROWS",
                                "400"))
COVER_ALGORITHMS = ("kernel", "levelwise", "berge")


def _cmax_families() -> List[List[int]]:
    """The per-RHS cmax hypergraphs of the wide workload, mined once."""
    relation = generate_relation(ATTRS, ROWS, correlation=CORRELATION,
                                 seed=0)
    spdb = StrippedPartitionDatabase.from_relation(relation)
    agree = sorted(agree_sets(spdb))
    universe = relation.schema.universe_mask
    families = []
    for attribute in range(ATTRS):
        max_masks = maximal_sets_for_attribute(agree, attribute)
        families.append(sorted(universe & ~mask for mask in max_masks))
    return families


def measure(repeats: int = REPEATS) -> Dict[str, object]:
    """Min-of-rounds seconds per algorithm over all cmax families.

    At least *repeats* interleaved rounds, and more until every
    algorithm has :data:`MIN_SAMPLE_SECONDS` of samples.
    """
    families = _cmax_families()
    runners = {
        "legacy": lambda edges: minimal_transversals_levelwise(edges, ATTRS),
        "kernel": lambda edges: minimal_transversals_kernel(edges, ATTRS),
    }
    best = {name: float("inf") for name in runners}
    spent = {name: 0.0 for name in runners}
    outputs: Dict[str, List[List[int]]] = {}
    rounds = 0
    while rounds < repeats or min(spent.values()) < MIN_SAMPLE_SECONDS:
        for name, run in runners.items():
            start = time.perf_counter()
            outputs[name] = [run(edges) for edges in families]
            elapsed = time.perf_counter() - start
            best[name] = min(best[name], elapsed)
            spent[name] += elapsed
        rounds += 1
    return {
        "seconds": best,
        "outputs": outputs,
        "num_families": len(families),
        "num_edges": sum(len(edges) for edges in families),
    }


def end_to_end_covers() -> Dict[str, List[tuple]]:
    """FD covers per (algorithm, jobs) through the full pipeline."""
    relation = generate_relation(COVER_ATTRS, COVER_ROWS,
                                 correlation=CORRELATION, seed=1)
    covers = {}
    for algorithm in COVER_ALGORITHMS:
        for jobs in (1, 2):
            result = DepMiner(build_armstrong="none",
                              transversal_algorithm=algorithm,
                              jobs=jobs).run(relation)
            covers[f"{algorithm}-jobs{jobs}"] = sorted(
                (fd.lhs.mask, fd.rhs_index) for fd in result.fds
            )
    return covers


def report(measured: Dict[str, object]) -> Dict[str, object]:
    seconds = measured["seconds"]
    covers = end_to_end_covers()
    reference = covers["levelwise-jobs1"]
    return {
        "workload": {
            "attrs": ATTRS,
            "rows": ROWS,
            "correlation": CORRELATION,
            "repeats": REPEATS,
            "num_families": measured["num_families"],
            "num_edges": measured["num_edges"],
        },
        "seconds": {name: round(value, 6)
                    for name, value in seconds.items()},
        "speedup": {
            "kernel_vs_legacy": round(
                seconds["legacy"] / seconds["kernel"], 2
            ),
        },
        "floors": {
            "kernel_vs_legacy": MIN_KERNEL_SPEEDUP,
        },
        "transversals_identical": (
            measured["outputs"]["legacy"] == measured["outputs"]["kernel"]
        ),
        "covers_identical_across_algorithms_and_jobs": all(
            cover == reference for cover in covers.values()
        ),
        "cover_workload": {
            "attrs": COVER_ATTRS,
            "rows": COVER_ROWS,
            "num_fds": len(reference),
            "cells": sorted(covers),
        },
    }


def test_all_algorithms_compute_the_same_transversals():
    outputs = measure(repeats=1)["outputs"]
    assert outputs["legacy"] == outputs["kernel"]


def test_covers_identical_across_algorithms_and_jobs():
    covers = end_to_end_covers()
    reference = covers["levelwise-jobs1"]
    assert reference  # a non-trivial workload
    for cell, cover in covers.items():
        assert cover == reference, f"{cell} diverged from levelwise-jobs1"


def test_kernel_speedup_floor():
    seconds = measure()["seconds"]
    speedup = seconds["legacy"] / seconds["kernel"]
    assert speedup >= MIN_KERNEL_SPEEDUP, (
        f"kernel only {speedup:.1f}x faster than the legacy levelwise "
        f"search (legacy {seconds['legacy']:.4f}s, kernel "
        f"{seconds['kernel']:.4f}s; floor {MIN_KERNEL_SPEEDUP}x)"
    )


def main(argv: List[str]) -> int:
    path = argv[0] if argv else "BENCH_transversal.json"
    document = report(measure())
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
