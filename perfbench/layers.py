"""The traced run: each layer timed from outside, through its public API.

Per cell and backend the pipeline is re-assembled call by call — ingest,
strip, agree sets, cmax, lhs, FD output, Armstrong — with a span around
each call, and its cover is checked against an untraced ``DepMiner.run``
of the same cell.  The ``-j2`` layers run the sharded agree-set and
cmax+lhs functions on one pool; the serve layers (fingerprint, keys,
incremental append, ``ServiceApp.handle``) run on the serve pool's CSVs
and replay the serve schedule.  Spans stay in memory and are written to
``.perfbench/trace-<workload>-<seed>.jsonl`` when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import cells as cellmod
from common import (
    WORK,
    cover_digest_of_document,
    cover_digest_of_fds,
    current_rss_mb,
    peak_rss_mb,
    reset_peak_rss,
)
from mine import load
from stats import median

BACKENDS = ("python", "columnar")

#: Every per-layer metric with its unit (the keys of a traced run).
PER_LAYER = {
    "ingest.busy_s.python": "s", "ingest.busy_s.columnar": "s",
    "strip.busy_s.python": "s", "strip.busy_s.columnar": "s",
    "strip.classes": "count",
    "agree.busy_s.python": "s", "agree.busy_s.columnar": "s",
    "agree.couples": "count", "agree.pairs_enumerated": "count",
    "agree.useful_ratio": "ratio", "agree.sets": "count",
    "agree.rss_peak_mb.python": "MiB", "agree.rss_peak_mb.columnar": "MiB",
    "cmax.busy_s.python": "s", "cmax.busy_s.columnar": "s",
    "cmax.edges": "count",
    "lhs.busy_s.python": "s", "lhs.busy_s.columnar": "s",
    "lhs.sets": "count",
    "fd_output.busy_s.python": "s", "fd_output.busy_s.columnar": "s",
    "fd.count": "count",
    "armstrong.busy_s.python": "s", "armstrong.busy_s.columnar": "s",
    "armstrong.tuples": "count",
    "parallel.pool_build_s": "s",
    "parallel.agree_busy_s.python-j2": "s",
    "parallel.lhs_busy_s.python-j2": "s",
    "parallel.lhs_busy_s.columnar-j2": "s",
    "parallel.shm_bytes": "bytes",
    "cache.fingerprint_s": "s", "cache.hit_ratio": "ratio",
    "cache.evictions_per_append": "ratio",
    "incremental.append_busy_s": "s", "keys.busy_s": "s",
    "service.handle_ms.read": "ms", "service.handle_ms.append": "ms",
    "service.handle_ms.keys": "ms", "service.handle_ms.register": "ms",
    "service.http_overhead_ms": "ms",
    "unattributed_s.python": "s", "unattributed_s.columnar": "s",
    "obs.trace_overhead": "ratio",
    "anomaly.lhs_columnar_over_python": "ratio",
    "anomaly.fd_output_columnar_over_python": "ratio",
    "anomaly.j2_over_serial.python": "ratio",
    "anomaly.j2_over_serial.columnar": "ratio",
}

#: The layers whose busy time sums to a backend's pipeline.
PIPELINE = ("ingest", "strip", "agree", "cmax", "lhs", "fd_output",
            "armstrong")


class Spans:
    """In-memory spans: name, start, end, parent span and attributes."""

    def __init__(self):
        self.records: List[dict] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.records), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter() - self._origin,
                  "end": None, **attrs}
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._origin

    @staticmethod
    def seconds(record: dict) -> float:
        return record["end"] - record["start"]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")


class Layered:
    """One backend's pipeline on one cell, layer by layer."""

    def __init__(self, spans: Spans, backend: str, cell: str):
        self.spans = spans
        self.backend = backend
        self.cell = cell
        self.busy: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.agree_rss_mb = 0.0

    @contextmanager
    def layer(self, name: str):
        with self.spans.span(name, backend=self.backend,
                             cell=self.cell) as record:
            yield
        self.busy[name] = Spans.seconds(record)

    def run(self, path: Path):
        if self.backend == "python":
            return self._python(path)
        return self._columnar(path)

    def _python(self, path: Path):
        from repro.core.agree_sets import agree_sets
        from repro.core.armstrong import (
            classical_armstrong,
            real_world_armstrong,
            real_world_armstrong_exists,
        )
        from repro.core.lhs import fd_output, left_hand_sides
        from repro.core.maximal_sets import (
            complement_maximal_sets,
            max_set_union,
            maximal_sets,
        )
        from repro.partitions.database import StrippedPartitionDatabase
        from repro.storage.csv_io import relation_from_csv

        with self.layer("ingest"):
            relation = relation_from_csv(path)
        schema = relation.schema
        with self.layer("strip"):
            spdb = StrippedPartitionDatabase.from_relation(relation)
        self.counts["strip.classes"] = spdb.total_classes()
        stats: Dict[str, int] = {}
        before = current_rss_mb()
        reset_peak_rss()
        with self.layer("agree"):
            agree = agree_sets(spdb, stats=stats)
        self.agree_rss_mb = peak_rss_mb(include_children=False) - before
        self.counts["agree.couples"] = stats.get("num_couples", 0)
        with self.layer("cmax"):
            max_sets = maximal_sets(agree, schema)
            cmax = complement_maximal_sets(max_sets, schema)
        with self.layer("lhs"):
            lhs = left_hand_sides(cmax, schema, method="kernel")
        with self.layer("fd_output"):
            fds = fd_output(lhs, schema)
        with self.layer("armstrong"):
            union = max_set_union(max_sets)
            armstrong = classical_armstrong(schema, union)
            if real_world_armstrong_exists(relation, union):
                armstrong = real_world_armstrong(relation, union)
        self._count(agree, cmax, lhs, fds, armstrong)
        return {"fds": fds, "agree": agree, "lhs": lhs, "spdb": spdb,
                "schema": schema}

    def _columnar(self, path: Path):
        import numpy as np

        from repro.columnar.agree import candidate_couples, resolve_couples
        from repro.columnar.armstrong import (
            classical_armstrong_columnar,
            existence_deficits,
            real_world_armstrong_columnar,
        )
        from repro.columnar.cmax import maximal_sets_packed
        from repro.columnar.grouping import class_matrix, num_stripped_classes
        from repro.columnar.ingest import ingest_csv
        from repro.core.lhs import fd_output, left_hand_sides
        from repro.core.maximal_sets import max_set_union

        with self.layer("ingest"):
            coded = ingest_csv(path)
        schema = coded.schema
        num_rows = len(coded)
        with self.layer("strip"):
            ec = class_matrix(coded.codes)
        self.counts["strip.classes"] = num_stripped_classes(ec)
        before = current_rss_mb()
        reset_peak_rss()
        with self.layer("agree"):
            left, right = candidate_couples(ec)
            agree = resolve_couples(ec, left, right)
            if left.shape[0] < num_rows * (num_rows - 1) // 2:
                agree.add(0)
        self.agree_rss_mb = peak_rss_mb(include_children=False) - before
        self.counts["agree.couples"] = int(left.shape[0])
        pairs = 0
        for ids in ec:
            sizes = np.bincount(ids[ids >= 0])
            pairs += int((sizes * (sizes - 1) // 2).sum())
        self.counts["agree.pairs_enumerated"] = pairs
        del left, right
        with self.layer("cmax"):
            max_sets, cmax = maximal_sets_packed(agree, schema)
        with self.layer("lhs"):
            lhs = left_hand_sides(cmax, schema, method="vectorized")
        with self.layer("fd_output"):
            fds = fd_output(lhs, schema)
        with self.layer("armstrong"):
            union = max_set_union(max_sets)
            armstrong = classical_armstrong_columnar(schema, union)
            if not existence_deficits(coded, union):
                armstrong = real_world_armstrong_columnar(coded, union)
        self._count(agree, cmax, lhs, fds, armstrong)
        return {"fds": fds, "agree": agree, "lhs": lhs, "schema": schema}

    def _count(self, agree, cmax, lhs, fds, armstrong) -> None:
        self.counts["agree.sets"] = len(agree)
        self.counts["cmax.edges"] = sum(len(edges) for edges in cmax.values())
        self.counts["lhs.sets"] = sum(len(sets) for sets in lhs.values())
        self.counts["fd.count"] = len(fds)
        self.counts["armstrong.tuples"] = len(armstrong)


def mining_pass(paths: Sequence[Path], cells, spans: Spans, pool,
                tally) -> Dict[str, float]:
    """One traced pass: layered pipelines, untraced arms, sharded layers."""
    from repro.core.depminer import DepMiner
    from repro.obs.metrics import MetricsRegistry
    from repro.parallel.executor import ShardedExecutor
    from repro.parallel.shards import parallel_agree_sets, parallel_cmax_lhs

    out: Dict[str, float] = {}
    registry = MetricsRegistry()
    executor = ShardedExecutor(jobs=2, pool=pool, metrics=registry)
    arms = {
        "python": DepMiner(), "columnar": DepMiner(backend="columnar"),
        "python-j2": DepMiner(jobs=2, pool=pool),
        "columnar-j2": DepMiner(backend="columnar", jobs=2, pool=pool),
    }
    busy = {(backend, name): [] for backend in BACKENDS for name in PIPELINE}
    counts: Dict[str, int] = {}
    layered_wall = {backend: 0.0 for backend in BACKENDS}
    untraced = {arm: 0.0 for arm in arms}
    j2_agree, j2_lhs = [], {backend: [] for backend in BACKENDS}
    agree_rss = {backend: 0.0 for backend in BACKENDS}
    for path, cell in zip(paths, cells):
        covers = {}
        for arm, miner in arms.items():
            backend = arm.split("-")[0]
            start = time.perf_counter()
            result = miner.run(load(backend, path))
            untraced[arm] += time.perf_counter() - start
            covers[arm] = cover_digest_of_fds(result.fds)
            del result
        for backend in BACKENDS:
            layered = Layered(spans, backend, cell.name)
            start = time.perf_counter()
            output = layered.run(path)
            layered_wall[backend] += time.perf_counter() - start
            for name in PIPELINE:
                busy[(backend, name)].append(layered.busy[name])
            agree_rss[backend] = max(agree_rss[backend], layered.agree_rss_mb)
            tally.attempt()
            tally.check(cover_digest_of_fds(output["fds"]) == covers[backend],
                        f"{cell.name}: layered {backend} cover differs from "
                        f"DepMiner.run")
            if backend == "python":
                for key, value in layered.counts.items():
                    counts[key] = counts.get(key, 0) + value
            else:
                counts["agree.pairs_enumerated"] = (
                    counts.get("agree.pairs_enumerated", 0)
                    + layered.counts["agree.pairs_enumerated"]
                )
            schema = output["schema"]
            if backend == "python":
                with spans.span("parallel.agree", cell=cell.name) as record:
                    sharded = parallel_agree_sets(output["spdb"], executor)
                j2_agree.append(Spans.seconds(record))
                tally.attempt()
                tally.check(sharded == output["agree"],
                            f"{cell.name}: sharded agree sets differ")
            method = "kernel" if backend == "python" else "vectorized"
            with spans.span("parallel.lhs", backend=backend,
                            cell=cell.name) as record:
                _, _, lhs = parallel_cmax_lhs(
                    sorted(output["agree"]), schema, executor, method=method
                )
            j2_lhs[backend].append(Spans.seconds(record))
            tally.attempt()
            tally.check(lhs == output["lhs"],
                        f"{cell.name}: sharded {backend} lhs differs")
        tally.check(len(set(covers.values())) == 1,
                    f"{cell.name}: arms disagree")
    for backend in BACKENDS:
        total = 0.0
        for name in PIPELINE:
            seconds = sum(busy[(backend, name)])
            out[f"{name}.busy_s.{backend}"] = seconds
            total += seconds
        out[f"unattributed_s.{backend}"] = untraced[backend] - total
        out[f"agree.rss_peak_mb.{backend}"] = agree_rss[backend]
        out[f"parallel.lhs_busy_s.{backend}-j2"] = sum(j2_lhs[backend])
        out[f"anomaly.j2_over_serial.{backend}"] = (
            untraced[f"{backend}-j2"] / untraced[backend]
        )
    out["parallel.agree_busy_s.python-j2"] = sum(j2_agree)
    out["parallel.shm_bytes"] = registry.snapshot()["counters"].get(
        "parallel.shm_bytes", 0)
    out["obs.trace_overhead"] = (
        sum(layered_wall.values())
        / (untraced["python"] + untraced["columnar"])
    )
    out.update(counts)
    couples = counts.get("agree.couples", 0)
    pairs = counts.get("agree.pairs_enumerated", 0)
    out["agree.useful_ratio"] = couples / pairs if pairs else 1.0
    out["anomaly.lhs_columnar_over_python"] = (
        out["lhs.busy_s.columnar"] / out["lhs.busy_s.python"]
    )
    out["anomaly.fd_output_columnar_over_python"] = (
        out["fd_output.busy_s.columnar"] / out["fd_output.busy_s.python"]
    )
    return out


def serve_layers(pool_paths: Sequence[Path], expected: Sequence[str],
                 seed: int, spans: Spans, tally) -> Dict[str, float]:
    """Fingerprint, keys, incremental append and in-process handling on
    the serve pool, then one HTTP round for the client-side view."""
    from repro.cache import ArtifactStore, IncrementalMiner
    from repro.columnar.ingest import ingest_csv
    from repro.core.depminer import DepMiner
    from repro.core.keys_mining import discover_keys
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer
    from repro.service.server import ServiceApp, ServiceConfig
    from repro.storage.csv_io import relation_from_csv
    from serveload import READS, RoundResult, run_round

    out: Dict[str, float] = {}
    fingerprint, keys = [], []
    for path in pool_paths:
        coded = ingest_csv(path)
        with spans.span("cache.fingerprint", cell=path.name) as record:
            coded.fingerprint_key(True)
        fingerprint.append(Spans.seconds(record))
        relation = relation_from_csv(path)
        with spans.span("keys", cell=path.name) as record:
            discover_keys(relation)
        keys.append(Spans.seconds(record))
    out["cache.fingerprint_s"] = median(fingerprint)
    out["keys.busy_s"] = median(keys)

    # One daemon takes every block an end-to-end run spreads over its
    # rounds, so enough appends reach the store to evict.
    schedules = cellmod.schedule(
        seed, cellmod.CLIENTS, cellmod.SERVE_BLOCKS * cellmod.SERVE_ROUNDS)
    shared_rows = [op.rows for ops in schedules for op in ops
                   if op.kind == "append" and op.target == "shared-0"]
    incremental = IncrementalMiner(
        ingest_csv(pool_paths[0]),
        miner=DepMiner(backend="columnar", cache=ArtifactStore(),
                       build_armstrong="none"),
    )
    appends = []
    for rows in shared_rows:
        with spans.span("incremental.append") as record:
            incremental.append(list(rows))
        appends.append(Spans.seconds(record))
    cold = DepMiner(backend="columnar", build_armstrong="none").run(
        incremental.relation())
    tally.attempt()
    tally.check(cover_digest_of_fds(incremental.result.fds)
                == cover_digest_of_fds(cold.fds),
                "incremental cover differs from a cold run")
    out["incremental.append_busy_s"] = median(appends)

    handled: Dict[str, List[float]] = {}
    app = ServiceApp(ServiceConfig(port=0, backend="columnar"))
    try:
        def handle(kind, method, route, payload=None, query=None):
            with spans.span("service.handle", kind=kind) as record:
                document, status = app.handle(
                    method, route, query or {}, payload or {}, Tracer(),
                    MetricsRegistry())
            handled.setdefault(kind, []).append(Spans.seconds(record) * 1e3)
            return document

        ids = {}
        for slot, pool in (("shared-0", 0), ("shared-1", 1), ("private", 0)):
            document = handle("register", "POST", "/sessions",
                              {"name": slot,
                               "csv_path": str(pool_paths[pool])})
            ids[slot] = document["session"]["id"]
            tally.attempt()
            tally.check(cover_digest_of_document(document["cover"])
                        == expected[pool],
                        f"handle register {slot}: wrong cover")
        for op in schedules[0]:
            route = f"/sessions/{ids[op.target]}"
            if op.kind in READS:
                handle("read", "GET", f"{route}/{op.kind}")
            elif op.kind == "keys":
                handle("keys", "GET", f"{route}/keys")
            elif op.kind == "append":
                handle("append", "POST", f"{route}/append",
                       {"rows": [list(row) for row in op.rows]})
    finally:
        app.close()
    for kind in ("read", "append", "keys", "register"):
        out[f"service.handle_ms.{kind}"] = median(handled[kind])

    served = RoundResult()
    run_round(pool_paths, expected, schedules, tally, served,
              fetch_stats=True)
    cache = served.stats["cache"]
    lookups = cache["cache.hit"] + cache["cache.miss"]
    out["cache.hit_ratio"] = cache["cache.hit"] / lookups if lookups else 0.0
    out["cache.evictions_per_append"] = cache["cache.evict"] / served.appends
    reads = [ms for kind in READS for ms in served.latencies.get(kind, [])]
    out["service.http_overhead_ms"] = (
        median(reads) - out["service.handle_ms.read"]
    )
    return out


def trace_run(workload: str, seed: int, seconds: float, work: Path,
              lines: List[str], tally) -> Dict[str, dict]:
    from repro.parallel.executor import PersistentPool
    from serveload import expected_pool_covers

    cells = cellmod.CELLS[workload]
    paths = cellmod.write_cells(workload, seed, work / "cells")
    pool_paths = cellmod.write_serve_pool(seed, work / "pool")
    expected = expected_pool_covers(pool_paths)
    warmup = cellmod.write_warmup(work)
    spans = Spans()

    with spans.span("parallel.pool_build") as record:
        pool = PersistentPool(2)
        pool.ensure()
    pool_build = Spans.seconds(record)
    try:
        mining_pass([warmup], [cellmod.Cell("warmup", "synthetic", 6, 60)],
                    Spans(), pool, type(tally)())
        passes: List[Dict[str, float]] = []
        deadline = time.monotonic() + seconds * 0.6
        while not passes or (time.monotonic() < deadline
                             and len(passes) < 5):
            with spans.span("pass", number=len(passes)):
                passes.append(mining_pass(paths, cells, spans, pool, tally))
    finally:
        pool.close()
    serve = serve_layers(pool_paths, expected, seed, spans, tally)
    spans.write(WORK / f"trace-{workload}-{seed}.jsonl")

    # Medians over passes, except the memory peaks: a later pass reuses
    # memory an earlier one already grew, so its peak reads lower.
    values = {name: (max if name.startswith("agree.rss_peak_mb") else median)(
        [p[name] for p in passes]) for name in passes[0]}
    values.update(serve)
    values["parallel.pool_build_s"] = pool_build
    lines.append(f"traced passes: {len(passes)}; spans: {len(spans.records)}")
    for name in sorted(values):
        lines.append(f"{name}: {values[name]:.6g}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}
