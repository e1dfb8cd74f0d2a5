"""Dispatch-latency guard for the persistent worker pool + shm arena.

Min-of-repeats timings answer:

- **Zero-copy vs pickled context dispatch** — one ``map()`` over a
  persistent pool whose shared context holds a large NumPy array:
  with the shared-memory arena the array is published once and mapped
  by the workers; with shared memory hidden
  (``repro.parallel.shm._shm = None``, what a host without usable
  shared memory sees) the pickled context rides along with every task.
  The floor: shm dispatch ≥ 1.5× faster at the default 16 MiB.
- **Per-request latency on a warm repeated workload** — the same small
  relation mined again and again (the service pattern), serial and on
  a warm ``jobs=2`` persistent pool, plus a jobs ∈ {1, 2, 4} scaling
  series.  Recorded informationally: parallel *throughput* gains are
  not asserted — output identity and dispatch latency are.

Covers must be identical across serial, persistent-pool and pickled
dispatch.

The workload is environment-parameterised::

    REPRO_BENCH_PARALLEL_ROWS=80 REPRO_BENCH_PARALLEL_ATTRS=6 \
        PYTHONPATH=src python benchmarks/bench_parallel_scaling.py \
        [BENCH_parallel.json]

Run as a script to (re)generate the committed ``BENCH_parallel.json``.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from typing import Dict, List

from repro.core.depminer import DepMiner
from repro.datagen.synthetic import generate_relation
from repro.parallel import ShardedExecutor, register_shard_kind
from repro.parallel import shm as shm_module

ATTRS = int(os.environ.get("REPRO_BENCH_PARALLEL_ATTRS", "6"))
ROWS = int(os.environ.get("REPRO_BENCH_PARALLEL_ROWS", "80"))
CORRELATION = float(
    os.environ.get("REPRO_BENCH_PARALLEL_CORRELATION", "0.9")
)
REPEATS = int(os.environ.get("REPRO_BENCH_PARALLEL_REPEATS", "5"))
#: Size of the shared array in the dispatch microbenchmark.
SHARED_MIB = int(os.environ.get("REPRO_BENCH_PARALLEL_SHARED_MIB", "16"))

JOBS_SERIES = (1, 2, 4)
MIN_SHM_DISPATCH_SPEEDUP = 1.5


@register_shard_kind("bench.parallel_touch")
def _touch_shard(shared, payload, metrics):
    """Touch one element of the shared array — all context, no compute,
    so the timing isolates how the context travelled."""
    data = shared["data"]
    return int(data[payload % data.shape[0]])


def _workload():
    return generate_relation(ATTRS, ROWS, correlation=CORRELATION, seed=0)


def _cover_names(result) -> List[tuple]:
    return sorted((tuple(fd.lhs.names), fd.rhs) for fd in result.fds)


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@contextlib.contextmanager
def _shared_memory_off():
    """Hide shared memory from the arena: every pooled map ships its
    context pickled with each task."""
    saved = shm_module._shm
    shm_module._shm = None
    try:
        yield
    finally:
        shm_module._shm = saved


def measure(repeats: int = REPEATS) -> Dict[str, object]:
    """Min-of-*repeats* seconds per dispatch mode, plus the covers.

    Every miner and executor is warmed with one untimed run first: the
    persistent pool's build (and the workers' first context decode) is
    the cold cost it amortises, exactly like the service daemon's
    ``warm_pool()``.
    """
    relation = _workload()
    seconds: Dict[str, object] = {}
    covers: Dict[str, List[tuple]] = {}

    serial = DepMiner(build_armstrong="none")
    covers["serial"] = _cover_names(serial.run(relation))
    seconds["serial_request"] = _best(
        lambda: serial.run(relation), repeats
    )

    persistent = DepMiner(jobs=2, build_armstrong="none")
    covers["persistent"] = _cover_names(persistent.run(relation))
    seconds["persistent_request"] = _best(
        lambda: persistent.run(relation), repeats
    )
    with _shared_memory_off():
        covers["pickle"] = _cover_names(persistent.run(relation))
    persistent.close()

    scaling: Dict[str, float] = {}
    for jobs in JOBS_SERIES:
        miner = DepMiner(jobs=jobs, build_armstrong="none")
        miner.run(relation)
        scaling[str(jobs)] = _best(lambda: miner.run(relation), repeats)
        miner.close()
    seconds["jobs"] = scaling

    if shm_module.numpy_available():
        import numpy

        data = numpy.arange(SHARED_MIB * 131072, dtype=numpy.int64)
        payloads = [0, 1]
        for label, dispatch_mode in (
                ("shm_dispatch", contextlib.nullcontext),
                ("pickle_dispatch", _shared_memory_off)):
            executor = ShardedExecutor(jobs=2)
            with dispatch_mode():
                executor.map("bench.parallel_touch", payloads,
                             shared={"data": data})
                seconds[label] = _best(
                    lambda: executor.map("bench.parallel_touch", payloads,
                                         shared={"data": data}),
                    repeats,
                )
            executor.close()

    return {"seconds": seconds, "covers": covers}


def report(measured: Dict[str, object]) -> Dict[str, object]:
    seconds = measured["seconds"]
    covers = measured["covers"]
    speedup = {}
    floors = {}
    if "shm_dispatch" in seconds:
        speedup["shm_vs_pickle_dispatch"] = round(
            seconds["pickle_dispatch"] / seconds["shm_dispatch"], 2
        )
        floors["shm_vs_pickle_dispatch"] = MIN_SHM_DISPATCH_SPEEDUP
    return {
        "workload": {
            "attrs": ATTRS,
            "rows": ROWS,
            "correlation": CORRELATION,
            "shared_mib": SHARED_MIB,
            "repeats": REPEATS,
        },
        "seconds": {
            name: (round(value, 6) if isinstance(value, float)
                   else {k: round(v, 6) for k, v in value.items()})
            for name, value in seconds.items()
        },
        "speedup": speedup,
        "floors": floors,
        "covers_identical": (
            covers["serial"] == covers["persistent"] == covers["pickle"]
        ),
    }


def test_parallel_covers_identical():
    covers = measure(repeats=1)["covers"]
    assert covers["serial"] == covers["persistent"] == covers["pickle"]


def test_shm_dispatch_floor():
    import pytest

    seconds = measure()["seconds"]
    if "shm_dispatch" not in seconds:
        pytest.skip("NumPy unavailable: no shared-memory arena to time")
    speedup = seconds["pickle_dispatch"] / seconds["shm_dispatch"]
    assert speedup >= MIN_SHM_DISPATCH_SPEEDUP, (
        f"shm dispatch only {speedup:.1f}x faster than pickled context "
        f"(pickle {seconds['pickle_dispatch']:.4f}s, shm "
        f"{seconds['shm_dispatch']:.4f}s; floor "
        f"{MIN_SHM_DISPATCH_SPEEDUP}x)"
    )


def main(argv: List[str]) -> int:
    path = argv[0] if argv else "BENCH_parallel.json"
    document = report(measure())
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
