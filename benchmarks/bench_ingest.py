"""End-to-end CSV→cover speedup guard for the streaming ingest path.

Times the complete discovery workflow *from the file on disk* — parse,
factorize, mine (Armstrong skipped) — once per ingestion path:

- **legacy** — ``relation_from_csv`` materializes a row-wise
  :class:`~repro.core.relation.Relation`, then
  ``DepMiner(backend="columnar")`` re-encodes it column by column;
- **streaming** — :func:`repro.columnar.ingest.ingest_csv` factorizes
  the CSV bytes directly into the dense code matrix in one chunked
  pass and hands the :class:`CodedRelation` to the same miner, which
  strips the encode stage and never builds the ``Relation``.

The workload is key-heavy on purpose: every column is a shuffled
permutation of ``range(rows)``, so parsing and factorization dominate
while the mining stage (zero couples) stays tiny — exactly the regime
the streaming reader targets.  The tests assert the acceptance floor
of the tentpole work — CSV→cover ≥ 3× over the materializing path —
and that covers *and* Armstrong relations stay bit-identical across
ingest paths × backends × jobs on a smaller mixed-type conformance
CSV, including a warm-cache replay served without ever materializing
the ``Relation``.  Timings are min-of-rounds over the same on-disk
file: at least ``repeats`` interleaved rounds, and more until each
path has :data:`MIN_SAMPLE_SECONDS` of samples (three sub-second runs
alone let one stall decide the ratio).

The workload is environment-parameterised::

    REPRO_BENCH_INGEST_ATTRS=30 REPRO_BENCH_INGEST_ROWS=16000 \
        PYTHONPATH=src python benchmarks/bench_ingest.py \
        [BENCH_ingest.json]

Run as a script to (re)generate the committed ``BENCH_ingest.json``.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.columnar.ingest import ingest_csv
from repro.core.depminer import DepMiner
from repro.storage.csv_io import relation_from_csv

ATTRS = int(os.environ.get("REPRO_BENCH_INGEST_ATTRS", "30"))
ROWS = int(os.environ.get("REPRO_BENCH_INGEST_ROWS", "16000"))
REPEATS = int(os.environ.get("REPRO_BENCH_INGEST_REPEATS", "3"))

#: ``measure`` keeps adding rounds past ``repeats`` until every
#: path's samples sum to at least this many seconds.
MIN_SAMPLE_SECONDS = 2.0

MIN_INGEST_SPEEDUP = 3.0

#: The conformance sweep (full pipeline incl. Armstrong once per
#: ingest-path × backend × jobs cell — kept small and mixed-type).
COVER_ATTRS = int(os.environ.get("REPRO_BENCH_INGEST_COVER_ATTRS", "8"))
COVER_ROWS = int(os.environ.get("REPRO_BENCH_INGEST_COVER_ROWS", "240"))

PATHS = ("legacy", "streaming")

_MEASURED: Dict[int, Dict[str, object]] = {}
_WORKDIR: Optional[Path] = None


def _workdir() -> Path:
    global _WORKDIR
    if _WORKDIR is None:
        _WORKDIR = Path(tempfile.mkdtemp(prefix="bench_ingest_"))
    return _WORKDIR


def workload_csv() -> Path:
    """The key-heavy benchmark CSV, written once per process.

    Every column is an independently shuffled permutation of
    ``range(ROWS)`` — all columns are keys, the couple population is
    empty, and end-to-end time is dominated by parsing/encoding.
    """
    path = _workdir() / f"workload_a{ATTRS}_r{ROWS}.csv"
    if path.exists():
        return path
    columns = []
    for attribute in range(ATTRS):
        values = list(range(ROWS))
        random.Random(f"0/{attribute}").shuffle(values)
        columns.append(values)
    with open(path, "w", newline="") as handle:
        handle.write(",".join(f"c{a:02d}" for a in range(ATTRS)) + "\n")
        for row in zip(*columns):
            handle.write(",".join(map(str, row)) + "\n")
    return path


def conformance_csv() -> Path:
    """A small mixed-type CSV (ints, floats, strings, null tokens)."""
    path = _workdir() / f"conformance_a{COVER_ATTRS}_r{COVER_ROWS}.csv"
    if path.exists():
        return path
    rng = random.Random(7)
    pools = []
    for attribute in range(COVER_ATTRS):
        kind = attribute % 4
        if kind == 0:
            pool = [str(v) for v in range(6)]
        elif kind == 1:
            pool = [f"{v}.5" for v in range(5)] + ["NULL"]
        elif kind == 2:
            pool = ["x", "y", "z", "w", ""]
        else:
            pool = [str(v) for v in range(12)]
        pools.append(pool)
    with open(path, "w", newline="") as handle:
        handle.write(",".join(f"c{a}" for a in range(COVER_ATTRS)) + "\n")
        for _ in range(COVER_ROWS):
            handle.write(
                ",".join(rng.choice(pool) for pool in pools) + "\n"
            )
    return path


def _canonical_cover(result) -> List[tuple]:
    return sorted((fd.lhs.mask, fd.rhs_index) for fd in result.fds)


def _mine(source, **options):
    return DepMiner(backend="columnar", build_armstrong="none",
                    **options).run(source)


def measure(repeats: int = REPEATS) -> Dict[str, object]:
    """Min-of-rounds CSV→cover seconds per ingest path (memoized).

    At least *repeats* interleaved rounds, and more until every path
    has :data:`MIN_SAMPLE_SECONDS` of samples.
    """
    cached = _MEASURED.get(repeats)
    if cached is not None:
        return cached
    path = workload_csv()
    best = {name: float("inf") for name in PATHS}
    spent = {name: 0.0 for name in PATHS}
    covers: Dict[str, List[tuple]] = {}
    rounds = 0
    while rounds < repeats or min(spent.values()) < MIN_SAMPLE_SECONDS:
        start = time.perf_counter()
        relation = relation_from_csv(path)
        result = _mine(relation)
        seconds = time.perf_counter() - start
        best["legacy"] = min(best["legacy"], seconds)
        spent["legacy"] += seconds
        covers["legacy"] = _canonical_cover(result)

        start = time.perf_counter()
        coded = ingest_csv(path)
        result = _mine(coded)
        seconds = time.perf_counter() - start
        best["streaming"] = min(best["streaming"], seconds)
        spent["streaming"] += seconds
        covers["streaming"] = _canonical_cover(result)
        assert not coded.materialized, \
            "streaming mine must not build the Relation"
        rounds += 1
    outcome = {
        "seconds": best,
        "covers": covers,
        "num_fds": len(covers["legacy"]),
    }
    _MEASURED[repeats] = outcome
    return outcome


def _armstrong_rows(result):
    classical = list(result.classical_armstrong.rows())
    real = (None if result.armstrong is None
            else list(result.armstrong.rows()))
    return classical, real


def conformance_outputs() -> Dict[str, object]:
    """Cover + Armstrong outputs per (ingest path, backend, jobs) cell.

    The streaming cells mine the :class:`CodedRelation` directly; the
    python-backend streaming cell exercises the lazy ``to_relation``
    fallback.  All cells must match the legacy python-jobs1 reference
    bit for bit.
    """
    path = conformance_csv()
    cells: Dict[str, tuple] = {}
    for backend in ("python", "columnar"):
        for jobs in (1, 2):
            for ingest in PATHS:
                source = (relation_from_csv(path) if ingest == "legacy"
                          else ingest_csv(path))
                result = DepMiner(backend=backend, jobs=jobs).run(source)
                cells[f"{ingest}-{backend}-jobs{jobs}"] = (
                    _canonical_cover(result), *_armstrong_rows(result)
                )
    return cells


def warm_cache_replay() -> Dict[str, object]:
    """Warm full-cover hit must be served before materialization."""
    from repro.cache import ArtifactStore
    from repro.obs import MetricsRegistry

    path = conformance_csv()
    store = ArtifactStore(_workdir() / "cache")
    cold = DepMiner(backend="columnar", cache=store).run(
        ingest_csv(path, fingerprint=True)
    )
    warm_input = ingest_csv(path, fingerprint=True)
    metrics = MetricsRegistry()
    warm = DepMiner(backend="columnar", cache=store,
                    metrics=metrics).run(warm_input)
    return {
        "full_hit": metrics.counters.get("cache.full_hit", 0),
        "materialized": warm_input.materialized,
        "covers_identical": (
            _canonical_cover(cold) == _canonical_cover(warm)
        ),
        "armstrong_identical": (
            _armstrong_rows(cold) == _armstrong_rows(warm)
        ),
    }


def report(measured: Dict[str, object]) -> Dict[str, object]:
    seconds: Dict[str, float] = measured["seconds"]
    cells = conformance_outputs()
    reference = cells["legacy-python-jobs1"]
    warm = warm_cache_replay()
    return {
        "workload": {
            "attrs": ATTRS,
            "rows": ROWS,
            "repeats": REPEATS,
            "num_fds": measured["num_fds"],
        },
        "seconds": {name: round(value, 6)
                    for name, value in seconds.items()},
        "speedup": {
            "streaming_vs_legacy": round(
                seconds["legacy"] / seconds["streaming"], 2
            ),
        },
        "floors": {
            "streaming_vs_legacy": MIN_INGEST_SPEEDUP,
        },
        "covers_identical": (
            measured["covers"]["legacy"] == measured["covers"]["streaming"]
        ),
        "outputs_identical_across_paths_backends_and_jobs": all(
            cell == reference for cell in cells.values()
        ),
        "warm_cache": warm,
        "cover_workload": {
            "attrs": COVER_ATTRS,
            "rows": COVER_ROWS,
            "num_fds": len(reference[0]),
            "cells": sorted(cells),
        },
    }


def test_ingest_paths_compute_the_same_cover():
    measured = measure(repeats=1)
    assert measured["covers"]["legacy"], "non-trivial workload expected"
    assert measured["covers"]["legacy"] == measured["covers"]["streaming"]


def test_outputs_identical_across_paths_backends_and_jobs():
    cells = conformance_outputs()
    reference = cells["legacy-python-jobs1"]
    assert reference[0]  # a non-trivial cover
    assert reference[1]  # classical Armstrong present
    for cell, outputs in cells.items():
        assert outputs == reference, \
            f"{cell} diverged from legacy-python-jobs1"


def test_warm_cache_replay_skips_materialization():
    warm = warm_cache_replay()
    assert warm["full_hit"] == 1
    assert not warm["materialized"]
    assert warm["covers_identical"]
    assert warm["armstrong_identical"]


def test_streaming_speedup_floor():
    seconds = measure()["seconds"]
    speedup = seconds["legacy"] / seconds["streaming"]
    assert speedup >= MIN_INGEST_SPEEDUP, (
        f"streaming ingest only {speedup:.1f}x faster than the "
        f"materializing CSV path (legacy {seconds['legacy']:.3f}s, "
        f"streaming {seconds['streaming']:.3f}s; floor "
        f"{MIN_INGEST_SPEEDUP}x)"
    )


def main(argv: List[str]) -> int:
    path = argv[0] if argv else "BENCH_ingest.json"
    document = report(measure())
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
