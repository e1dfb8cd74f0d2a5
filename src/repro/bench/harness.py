"""Benchmark harness: run algorithms over workload grids.

Measures, for every cell of a workload grid (|R| × |r| at one
correlation), the wall-clock time of each competing algorithm and the
size of the real-world Armstrong relation — the two metrics of the
paper's Tables 3–5 and Figures 2–7.

Algorithms under test (the paper's three competitors):

- ``depminer``  — Dep-Miner with the couples algorithm (Algorithm 2);
- ``depminer2`` — Dep-Miner 2 with the identifier-set algorithm
  (Algorithm 3);
- ``tane``      — our TANE reimplementation (exact mode), with the
  Armstrong extension of section 5.1 so the comparison covers the same
  functionality.

Cells can be executed in a forked subprocess with a hard timeout
(``isolated=True``), reproducing the paper's ``*`` cells (memory
overload / two-hour limit); the default runs in-process and flags
overruns after the fact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.depminer import DepMiner
from repro.core.relation import Relation
from repro.datagen.synthetic import SyntheticSpec, generate_relation
from repro.datagen.workloads import WorkloadGrid
from repro.errors import BenchmarkError
from repro.obs import (
    MetricsRegistry,
    ProgressCallback,
    Span,
    Tracer,
    get_logger,
)
from repro.tane.armstrong_ext import tane_with_armstrong

__all__ = [
    "ALGORITHM_NAMES",
    "ALGORITHM_LABELS",
    "CellResult",
    "GridResult",
    "run_algorithm",
    "run_cell",
    "run_grid",
]

logger = get_logger(__name__)

# The paper's three competitors (run by default)...
ALGORITHM_NAMES = ("depminer", "depminer2", "tane")

ALGORITHM_LABELS = {
    "depminer": "Dep-Miner",
    "depminer2": "Dep-Miner 2",
    "tane": "TANE",
    "fdep": "FDEP",
    "depminer-columnar": "Dep-Miner (col)",
}


def _run_depminer(relation: Relation, jobs: int = 1, cache=None,
                  **obs) -> Tuple[int, Optional[int]]:
    result = DepMiner(agree_algorithm="couples", jobs=jobs, cache=cache,
                      **obs).run(relation)
    return len(result.fds), result.armstrong_size

def _run_depminer2(relation: Relation, jobs: int = 1, cache=None,
                   **obs) -> Tuple[int, Optional[int]]:
    result = DepMiner(agree_algorithm="identifiers", jobs=jobs, cache=cache,
                      **obs).run(relation)
    return len(result.fds), result.armstrong_size

def _run_tane(relation: Relation, jobs: int = 1, cache=None,
              **obs) -> Tuple[int, Optional[int]]:
    # TANE's lattice walk has no sharded path and no cache integration;
    # *jobs* and *cache* are accepted (the harness passes them
    # uniformly) and ignored.
    del jobs, cache
    result = tane_with_armstrong(relation, **obs)
    size = len(result.armstrong) if result.armstrong is not None else None
    return len(result.fds), size

def _run_depminer_columnar(relation: Relation, jobs: int = 1, cache=None,
                           **obs) -> Tuple[int, Optional[int]]:
    # The end-to-end columnar backend (repro.columnar): identical output
    # to the Python path; falls back to it (with a logged warning) when
    # NumPy is missing.
    result = DepMiner(backend="columnar", jobs=jobs, cache=cache,
                      **obs).run(relation)
    return len(result.fds), result.armstrong_size

def _run_fdep(relation: Relation, jobs: int = 1, cache=None,
              **obs) -> Tuple[int, Optional[int]]:
    # FDEP [SF93] — an extra baseline beyond the paper's comparison; it
    # produces no Armstrong relation (like TANE without the extension)
    # and, like TANE, runs single-core and uncached regardless of
    # *jobs*/*cache*.
    del jobs, cache
    from repro.fdep import Fdep

    result = Fdep(**obs).run(relation)
    return len(result.fds), None


# ... plus extra baselines selectable by name.  Every runner forwards the
# observability keywords (tracer/metrics/progress) to its miner.
_RUNNERS: Dict[str, Callable[..., Tuple[int, Optional[int]]]] = {
    "depminer": _run_depminer,
    "depminer2": _run_depminer2,
    "tane": _run_tane,
    "fdep": _run_fdep,
    "depminer-columnar": _run_depminer_columnar,
}


@dataclass(frozen=True)
class CellResult:
    """One (workload cell, algorithm) measurement.

    ``trace`` carries the finished :class:`~repro.obs.Span` objects of
    the measurement when the run collected one (``tracer=`` passed to
    :func:`run_cell`/:func:`run_grid`); isolated subprocess cells never
    carry a trace (the spans die with the child process).
    """

    spec: SyntheticSpec
    algorithm: str
    seconds: float
    num_fds: int
    armstrong_size: Optional[int]
    timed_out: bool = False
    trace: Optional[Tuple[Span, ...]] = None

    @property
    def display_time(self) -> str:
        """Formatted like the paper's tables; ``*`` for timed-out cells."""
        return "*" if self.timed_out else f"{self.seconds:.2f}"


@dataclass
class GridResult:
    """All measurements of one grid run."""

    grid: WorkloadGrid
    algorithms: Tuple[str, ...]
    cells: List[CellResult] = field(default_factory=list)

    def cell(self, num_attributes: int, num_tuples: int,
             algorithm: str) -> Optional[CellResult]:
        for cell in self.cells:
            if (
                cell.spec.num_attributes == num_attributes
                and cell.spec.num_tuples == num_tuples
                and cell.algorithm == algorithm
            ):
                return cell
        return None

    def time_series(self, num_attributes: int,
                    algorithm: str) -> List[Tuple[int, Optional[float]]]:
        """(|r|, seconds) pairs at fixed |R| — one curve of a time figure."""
        series = []
        for num_tuples in self.grid.tuple_counts:
            cell = self.cell(num_attributes, num_tuples, algorithm)
            if cell is None or cell.timed_out:
                series.append((num_tuples, None))
            else:
                series.append((num_tuples, cell.seconds))
        return series

    def armstrong_series(self, num_attributes: int) -> List[Tuple[int, Optional[int]]]:
        """(|r|, Armstrong tuples) pairs at fixed |R| — one size curve."""
        series = []
        for num_tuples in self.grid.tuple_counts:
            cell = self.cell(num_attributes, num_tuples, "depminer") or \
                self.cell(num_attributes, num_tuples, "depminer2")
            size = cell.armstrong_size if cell else None
            series.append((num_tuples, size))
        return series

    def to_dict(self) -> dict:
        """JSON-ready document of every measurement (for archiving runs)."""
        return {
            "grid": {
                "name": self.grid.name,
                "correlation": self.grid.correlation,
                "attribute_counts": list(self.grid.attribute_counts),
                "tuple_counts": list(self.grid.tuple_counts),
                "seed": self.grid.seed,
            },
            "algorithms": list(self.algorithms),
            "cells": [
                {
                    "attrs": cell.spec.num_attributes,
                    "rows": cell.spec.num_tuples,
                    "algorithm": cell.algorithm,
                    "seconds": round(cell.seconds, 6),
                    "num_fds": cell.num_fds,
                    "armstrong_size": cell.armstrong_size,
                    "timed_out": cell.timed_out,
                }
                for cell in self.cells
            ],
        }


def run_algorithm(algorithm: str, relation: Relation,
                  jobs: int = 1,
                  cache=None,
                  tracer: Optional[Tracer] = None,
                  metrics: Optional[MetricsRegistry] = None,
                  progress: Optional[ProgressCallback] = None) -> Tuple[float, int, Optional[int]]:
    """Time one algorithm on one relation; returns (seconds, #FDs, size).

    *jobs* selects the sharded execution layer for the Dep-Miner
    variants (TANE and FDEP accept and ignore it — they have no sharded
    path); *cache* is an optional
    :class:`~repro.cache.store.ArtifactStore` forwarded to the
    Dep-Miner variants, so warm/cold comparisons (``make bench-cache``)
    go through the very same measurement path as everything else.
    *tracer*/*metrics*/*progress* are forwarded to the miner under test
    so a benchmark run can collect the same per-phase spans and
    counters as a direct :class:`~repro.core.depminer.DepMiner` run.
    """
    try:
        runner = _RUNNERS[algorithm]
    except KeyError:
        raise BenchmarkError(
            f"unknown algorithm {algorithm!r}; choose from {ALGORITHM_NAMES}"
        ) from None
    start = time.perf_counter()
    num_fds, armstrong_size = runner(
        relation, jobs=jobs, cache=cache, tracer=tracer, metrics=metrics,
        progress=progress,
    )
    return time.perf_counter() - start, num_fds, armstrong_size


def _run_cell_isolated(spec: SyntheticSpec, algorithm: str,
                       timeout: float,
                       jobs: int = 1) -> Optional[Tuple[float, int, Optional[int]]]:
    """Fork a child, run the cell, kill it at *timeout* (the paper's ``*``)."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    queue = context.Queue()

    def worker(queue):
        relation = generate_relation(
            spec.num_attributes, spec.num_tuples,
            correlation=spec.correlation, seed=spec.seed,
        )
        queue.put(run_algorithm(algorithm, relation, jobs=jobs))

    process = context.Process(target=worker, args=(queue,))
    process.start()
    process.join(timeout)
    if process.is_alive():
        process.terminate()
        process.join()
        return None
    if queue.empty():
        return None  # the child crashed (e.g. memory overload)
    return queue.get()


def _measure_cell(spec: SyntheticSpec, algorithm: str, relation: Relation,
                  timeout: Optional[float],
                  tracer: Optional[Tracer],
                  metrics: Optional[MetricsRegistry],
                  progress: Optional[ProgressCallback],
                  jobs: int = 1) -> CellResult:
    """In-process measurement; attaches the cell's spans when tracing."""
    trace: Optional[Tuple[Span, ...]] = None
    if tracer is not None:
        mark = tracer.mark()
        with tracer.span("bench.cell", algorithm=algorithm,
                         attributes=spec.num_attributes,
                         rows=spec.num_tuples,
                         correlation=spec.correlation, seed=spec.seed,
                         jobs=jobs):
            seconds, num_fds, armstrong_size = run_algorithm(
                algorithm, relation, jobs=jobs, tracer=tracer,
                metrics=metrics, progress=progress,
            )
        trace = tuple(tracer.finished_spans(mark))
    else:
        seconds, num_fds, armstrong_size = run_algorithm(
            algorithm, relation, jobs=jobs, metrics=metrics,
            progress=progress,
        )
    logger.debug(
        "cell %s %s: %.3fs, %d FDs", spec.label(), algorithm, seconds,
        num_fds,
    )
    return CellResult(
        spec=spec, algorithm=algorithm, seconds=seconds,
        num_fds=num_fds, armstrong_size=armstrong_size,
        timed_out=timeout is not None and seconds > timeout,
        trace=trace,
    )


def run_cell(spec: SyntheticSpec, algorithm: str,
             timeout: Optional[float] = None,
             isolated: bool = False,
             jobs: int = 1,
             tracer: Optional[Tracer] = None,
             metrics: Optional[MetricsRegistry] = None,
             progress: Optional[ProgressCallback] = None) -> CellResult:
    """Run one algorithm on one workload cell.

    With ``isolated=True`` and a *timeout*, the cell runs in a forked
    subprocess that is terminated at the deadline (hard ``*`` cells);
    otherwise the run completes in-process and is merely *flagged* as
    timed out when it exceeded the budget.

    *jobs* forwards to the miner's sharded execution layer (the
    measured output is identical at every value).  In-process cells can
    collect observability data: pass a *tracer* to attach the cell's
    span tree to ``CellResult.trace`` (isolated cells cannot — the
    spans die with the forked child).
    """
    if isolated and timeout is not None:
        outcome = _run_cell_isolated(spec, algorithm, timeout, jobs=jobs)
        if outcome is None:
            return CellResult(
                spec=spec, algorithm=algorithm, seconds=float(timeout),
                num_fds=0, armstrong_size=None, timed_out=True,
            )
        seconds, num_fds, armstrong_size = outcome
        return CellResult(
            spec=spec, algorithm=algorithm, seconds=seconds,
            num_fds=num_fds, armstrong_size=armstrong_size,
        )
    relation = generate_relation(
        spec.num_attributes, spec.num_tuples,
        correlation=spec.correlation, seed=spec.seed,
    )
    return _measure_cell(
        spec, algorithm, relation, timeout, tracer, metrics, progress,
        jobs=jobs,
    )


def run_grid(grid: WorkloadGrid,
             algorithms: Sequence[str] = ALGORITHM_NAMES,
             timeout: Optional[float] = None,
             isolated: bool = False,
             jobs: int = 1,
             progress: Optional[Callable[[str], None]] = None,
             tracer: Optional[Tracer] = None,
             metrics: Optional[MetricsRegistry] = None,
             miner_progress: Optional[ProgressCallback] = None) -> GridResult:
    """Run every algorithm over every cell of *grid*.

    The relation of each cell is generated once and shared by the
    in-process algorithms (isolated runs regenerate it in the child).
    *progress* receives one line per finished measurement; *jobs*
    forwards to each miner's sharded execution layer.

    A shared *tracer* collects one ``bench.cell`` span tree per
    in-process measurement, sliced into that cell's
    :attr:`CellResult.trace`; *metrics* and *miner_progress* are
    forwarded to the miners (isolated cells skip all three — the spans
    would die with the forked child).
    """
    for algorithm in algorithms:
        if algorithm not in _RUNNERS:
            raise BenchmarkError(
                f"unknown algorithm {algorithm!r}; "
                f"choose from {ALGORITHM_NAMES}"
            )
    result = GridResult(grid=grid, algorithms=tuple(algorithms))
    for spec in grid.specs():
        shared: Optional[Relation] = None
        if not isolated:
            shared = generate_relation(
                spec.num_attributes, spec.num_tuples,
                correlation=spec.correlation, seed=spec.seed,
            )
        for algorithm in algorithms:
            if isolated and timeout is not None:
                cell = run_cell(
                    spec, algorithm, timeout=timeout, isolated=True,
                    jobs=jobs,
                )
            else:
                cell = _measure_cell(
                    spec, algorithm, shared, timeout, tracer, metrics,
                    miner_progress, jobs=jobs,
                )
            result.cells.append(cell)
            if progress is not None:
                progress(
                    f"{spec.label()}  {ALGORITHM_LABELS[algorithm]:<12} "
                    f"{cell.display_time:>8}s  fds={cell.num_fds}"
                )
    return result
