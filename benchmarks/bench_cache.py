"""Speedup guard for the artifact cache and the incremental miner.

Measures three ways of obtaining the FD cover of a grown relation:

- **cold** — ``DepMiner(cache=...)`` over the base relation with an
  empty :class:`~repro.cache.store.ArtifactStore`: the full pipeline
  runs and every stage artefact is recorded;
- **warm** — the same miner and store again: the run is a full hit,
  reduced to fingerprinting the relation and unpacking the cached
  cover;
- **incremental** — :class:`~repro.cache.incremental.IncrementalMiner`
  appending a ≤1% batch to the base relation, compared against a cold
  re-mine of the concatenated relation.

The tests assert the acceptance floors of the caching work: warm ≥ 10×
cold, incremental append ≥ 3× the cold re-mine, and bit-identical FD
covers across all paths.  Timings are min-of-repeats; the default
workload is high-correlation (many agreeing couples), which is exactly
the regime where re-mining is expensive and caching pays.

The workload is environment-parameterised::

    REPRO_BENCH_CACHE_ROWS=5000 REPRO_BENCH_CACHE_ATTRS=10 \
        PYTHONPATH=src python benchmarks/bench_cache.py [BENCH_cache.json]

Run as a script to (re)generate the committed ``BENCH_cache.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List

from repro.cache import ArtifactStore, IncrementalMiner
from repro.core.depminer import DepMiner
from repro.core.relation import Relation
from repro.datagen.synthetic import generate_relation

ATTRS = int(os.environ.get("REPRO_BENCH_CACHE_ATTRS", "8"))
ROWS = int(os.environ.get("REPRO_BENCH_CACHE_ROWS", "2000"))
CORRELATION = float(os.environ.get("REPRO_BENCH_CACHE_CORRELATION", "0.9"))
#: Appended batch: 1% of the base relation (the acceptance workload).
APPEND_ROWS = max(1, ROWS // 100)
REPEATS = int(os.environ.get("REPRO_BENCH_CACHE_REPEATS", "3"))

MIN_WARM_SPEEDUP = 10.0
MIN_INCREMENTAL_SPEEDUP = 3.0


def _cover(result) -> List[tuple]:
    return sorted((fd.lhs.mask, fd.rhs_index) for fd in result.fds)


def _workload():
    base = generate_relation(ATTRS, ROWS, correlation=CORRELATION, seed=0)
    extra = list(
        generate_relation(ATTRS, APPEND_ROWS, correlation=CORRELATION,
                          seed=1).rows()
    )
    grown = Relation.from_rows(base.schema, list(base.rows()) + extra)
    return base, extra, grown


def measure(repeats: int = REPEATS) -> Dict[str, object]:
    """Min-of-*repeats* seconds per path, plus the covers they produce.

    Cold runs use a fresh store every repeat (nothing reusable); warm
    runs reuse one pre-populated store.  The incremental timer covers
    only ``append`` — the constructor's base mine is the cold run it
    amortises.
    """
    base, extra, grown = _workload()
    best = {"cold": float("inf"), "warm": float("inf"),
            "cold_grown": float("inf"), "incremental": float("inf")}
    covers = {}

    warm_store = ArtifactStore()
    warm_miner = DepMiner(build_armstrong="none", cache=warm_store)
    warm_miner.run(base)

    for _ in range(repeats):
        miner = DepMiner(build_armstrong="none", cache=ArtifactStore())
        start = time.perf_counter()
        covers["cold"] = _cover(miner.run(base))
        best["cold"] = min(best["cold"], time.perf_counter() - start)

        start = time.perf_counter()
        covers["warm"] = _cover(warm_miner.run(base))
        best["warm"] = min(best["warm"], time.perf_counter() - start)

        start = time.perf_counter()
        covers["cold_grown"] = _cover(
            DepMiner(build_armstrong="none").run(grown)
        )
        best["cold_grown"] = min(
            best["cold_grown"], time.perf_counter() - start
        )

        incremental = IncrementalMiner(base, build_armstrong="none")
        start = time.perf_counter()
        covers["incremental"] = _cover(incremental.append(extra))
        best["incremental"] = min(
            best["incremental"], time.perf_counter() - start
        )

    return {
        "seconds": best,
        "covers": covers,
        "warm_store_stats": dict(warm_store.stats),
    }


def report(measured: Dict[str, object]) -> Dict[str, object]:
    seconds = measured["seconds"]
    return {
        "workload": {
            "attrs": ATTRS,
            "rows": ROWS,
            "correlation": CORRELATION,
            "append_rows": APPEND_ROWS,
            "repeats": REPEATS,
        },
        "seconds": {name: round(value, 6)
                    for name, value in seconds.items()},
        "speedup": {
            "warm_vs_cold": round(seconds["cold"] / seconds["warm"], 2),
            "incremental_vs_cold_grown": round(
                seconds["cold_grown"] / seconds["incremental"], 2
            ),
        },
        "floors": {
            "warm_vs_cold": MIN_WARM_SPEEDUP,
            "incremental_vs_cold_grown": MIN_INCREMENTAL_SPEEDUP,
        },
    }


def test_all_paths_compute_the_same_cover():
    covers = measure(repeats=1)["covers"]
    assert covers["cold"] == covers["warm"]
    assert covers["cold_grown"] == covers["incremental"]


def test_warm_run_is_a_full_hit():
    base, _, _ = _workload()
    store = ArtifactStore()
    miner = DepMiner(build_armstrong="none", cache=store)
    miner.run(base)
    miner.run(base)
    assert store.stats["cache.hit"] == 1
    assert store.stats["cache.put"] == 2


def test_warm_speedup_floor():
    seconds = measure()["seconds"]
    speedup = seconds["cold"] / seconds["warm"]
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm full-hit rerun only {speedup:.1f}x faster than cold "
        f"(cold {seconds['cold']:.4f}s, warm {seconds['warm']:.4f}s; "
        f"floor {MIN_WARM_SPEEDUP}x)"
    )


def test_incremental_speedup_floor():
    seconds = measure()["seconds"]
    speedup = seconds["cold_grown"] / seconds["incremental"]
    assert speedup >= MIN_INCREMENTAL_SPEEDUP, (
        f"incremental append only {speedup:.1f}x faster than a cold "
        f"re-mine (cold {seconds['cold_grown']:.4f}s, append "
        f"{seconds['incremental']:.4f}s; floor {MIN_INCREMENTAL_SPEEDUP}x)"
    )


def main(argv: List[str]) -> int:
    path = argv[0] if argv else "BENCH_cache.json"
    document = report(measure())
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
