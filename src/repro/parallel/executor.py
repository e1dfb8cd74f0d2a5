"""The sharded process-pool executor behind ``--jobs N``.

Dep-Miner's two dominant costs are embarrassingly parallel: couples
shard by chunk (each chunk resolves against the same read-only
row → class-index tables) and the per-attribute transversal searches are
mutually independent.  :class:`ShardedExecutor` is the one execution
primitive both integrations share:

- **work descriptors** — a :class:`Shard` is ``(kind, index, payload)``,
  picklable by construction; the *kind* names a registered worker
  function (see :func:`register_shard_kind`), and each task carries the
  map's read-only context pickled next to its shard;
- **serial fallback** — ``jobs=1`` (the default everywhere) runs the
  very same shard functions inline, in order, with no pool, no pickling
  and no behavioural difference: the parallel layer is a pure execution
  strategy, never a second implementation of the algorithms;
- **bounded result queue** — at most ``2 × jobs`` shards are in flight;
  submission is windowed so a thousand-shard run never materialises a
  thousand result buffers;
- **per-shard timeout + cancellation** — each shard's result is awaited
  with a deadline (:class:`ShardTimeoutError` terminates the pool), and
  a progress callback returning ``False`` aborts the whole map through
  the usual :class:`~repro.obs.ProgressAborted` channel;
- **observability from workers** — a worker cannot write into the
  parent's tracer, so every shard reports its wall-clock seconds plus
  the counters and histogram summaries of a shard-local
  :class:`~repro.obs.MetricsRegistry` through the result queue; the
  parent re-records each shard as a synthetic span
  (:meth:`repro.obs.Tracer.record`), merges the counters
  (:meth:`~repro.obs.MetricsRegistry.inc`) and histograms
  (:meth:`~repro.obs.MetricsRegistry.merge_histogram`) into its own
  registry and emits one progress step per completed shard;
- **persistent worker pool** — pooled maps run on a lazily-created
  :class:`PersistentPool` of *forked* workers that is *reused* across
  ``map()`` calls (and, when the pool is injected by ``DepMiner`` or the
  service, across whole runs and requests), so daemon-style traffic
  stops paying pool spin-up per call (counter ``parallel.pool_reuse``,
  span ``parallel.pool_build`` on builds/rebuilds).  Where the platform
  cannot fork, ``jobs > 1`` is refused at construction
  (:func:`resolve_jobs`);
- **retry, poisoning, degradation** — a failed shard attempt is retried
  with exponential backoff and keyed jitter
  (:data:`~repro.reliability.DEFAULT_RETRY_POLICY`, counter
  ``parallel.retry``) unless the failure is a typed library error; a
  shard that exhausts its retries, a pool whose failed attempts reach
  :data:`POISON_THRESHOLD` (counter ``parallel.poisoned``), a pool whose
  IPC machinery dies, or a worker that exits mid-map (the OOM killer,
  say), all **degrade to serial execution**: the pool is terminated,
  the not-yet-completed shards run inline in the parent, and the
  executor stays serial for the rest of its life (counter
  ``parallel.degraded``, span ``reliability.degraded``).  Degradation
  re-runs only shards without results, so merged work counters are
  never double-counted.  Injected faults
  (:mod:`repro.reliability.faults`, site ``parallel.shard``) exercise
  exactly these paths.

Determinism guarantee: results are reassembled by shard index, so
``map()`` returns exactly what the serial loop would — the callers
(``parallel_agree_sets``, ``parallel_cmax_lhs``) are bit-for-bit
identical to ``jobs=1``.  See ``docs/parallel.md``.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import threading
import time
import traceback
import uuid
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.obs import (
    NULL_METRICS,
    MetricsRegistry,
    ProgressCallback,
    Tracer,
    emit_progress,
    get_logger,
)
from repro.reliability.faults import (
    FaultPlan,
    activate_plan,
    current_plan,
    deactivate_plan,
    fault_point,
)
from repro.reliability.retry import DEFAULT_RETRY_POLICY

__all__ = [
    "POISON_THRESHOLD",
    "PersistentPool",
    "Shard",
    "ShardOutcome",
    "ShardError",
    "ShardTimeoutError",
    "ShardedExecutor",
    "register_shard_kind",
    "resolve_jobs",
    "resolve_shard_timeout",
]

logger = get_logger(__name__)

#: Failed shard attempts across one pooled map after which the pool is
#: declared poisoned (a sick worker keeps eating shards) and the map
#: degrades to serial at once.
POISON_THRESHOLD = 8

#: Seconds a pooled map waits on one result before it checks that no
#: worker has died: ``multiprocessing.Pool`` replaces a killed worker
#: but never completes the task it held.  A ready result returns at
#: once, so a healthy map never waits a slice out.
WAIT_SLICE = 0.1


class ShardError(ReproError):
    """A shard failed in a worker process (carries the worker traceback)."""


class ShardTimeoutError(ShardError):
    """A shard exceeded the per-shard timeout; the pool was terminated."""


@dataclass(frozen=True)
class Shard:
    """One unit of work: a registered *kind* plus a picklable *payload*."""

    kind: str
    index: int
    payload: Any


@dataclass
class ShardOutcome:
    """What a worker sends back through the result queue for one shard.

    ``retryable`` is decided where the exception type is still known
    (the worker): typed library errors (:class:`~repro.errors.ReproError`)
    are deterministic and never retried; everything else — injected
    faults, real IO errors, crashes — is assumed transient.
    """

    index: int
    value: Any = None
    seconds: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, float]] = field(default_factory=dict)
    error: Optional[str] = None
    retryable: bool = True


#: Registered shard functions: ``kind -> fn(shared, payload, metrics)``.
SHARD_KINDS: Dict[str, Callable[[Any, Any, MetricsRegistry], Any]] = {}


def register_shard_kind(name: str):
    """Register a worker function under *name* (module-level, picklable).

    The function receives ``(shared, payload, metrics)``: the map's
    read-only context (pickled with each task), the shard's own payload,
    and a shard-local :class:`~repro.obs.MetricsRegistry` — its counters and
    histogram summaries travel back through the result queue and the
    parent merges them, which is how worker-side work accounting flows
    into the run's metrics.  (Gauges do not merge meaningfully across
    shards and are not relayed.)
    """

    def decorator(function):
        SHARD_KINDS[name] = function
        return function

    return decorator


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` = all cores.

    Pool workers are forked, so ``jobs > 1`` raises :class:`ReproError`
    where the platform cannot fork: every entry point that takes
    ``jobs`` (``DepMiner``, :class:`ShardedExecutor`,
    :class:`PersistentPool`, ``repro serve``) checks it here, at
    construction, instead of running serially behind the caller's back.
    """
    if jobs is None or jobs == 0:
        jobs = os.cpu_count() or 1
    elif jobs < 0:
        raise ReproError(f"jobs must be a positive integer, 0 or None; "
                         f"got {jobs}")
    if jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
        raise ReproError(
            f"jobs={jobs} needs a forked worker pool, and this platform "
            f"cannot fork; use jobs=1"
        )
    return jobs


def resolve_shard_timeout(timeout: Optional[float]) -> Optional[float]:
    """Validate a per-shard timeout: positive seconds or ``None``."""
    if timeout is not None and timeout <= 0:
        raise ReproError("shard_timeout must be positive or None")
    return timeout


# -- worker side (module-level so tasks pickle them by reference) -----------

#: The map *generation* whose fault plan this worker has active.
_WORKER_PLAN_GENERATION: Optional[str] = None


def _switch_fault_plan(ctx: Dict[str, Any]) -> None:
    """Activate the plan of the task's map on its first task here.

    Persistent-pool workers outlive maps, so each task carries its
    map's *generation* id (one per ``map()``) and the parent's active
    fault plan as a plain dict: the first task of a new generation
    switches the process's plan, so each map starts with fresh
    per-site call counters.
    """
    global _WORKER_PLAN_GENERATION
    if _WORKER_PLAN_GENERATION != ctx["generation"]:
        plan = ctx["fault_plan"]
        if plan is not None:
            activate_plan(FaultPlan.from_dict(plan))
        else:
            deactivate_plan()
        _WORKER_PLAN_GENERATION = ctx["generation"]


def _reliability_counters(local: MetricsRegistry) -> Dict[str, float]:
    """The injection-accounting slice of a shard-local registry.

    Failed attempts relay *only* these counters: their partial work
    counters must not merge (a retried shard would double-count), but
    the parent still needs to see the injections that killed them.
    """
    return {
        name: value for name, value in local.counters.items()
        if name.startswith("reliability.")
    }


def _attempt_shard(shared: Any, shard: Shard, pool: bool) -> ShardOutcome:
    """One attempt at one shard, with the fault site armed."""
    start = time.perf_counter()
    local = MetricsRegistry()
    try:
        # In-process attempts skip the local registry for injection
        # accounting: the plan's bound registry (same process) already
        # sees them, and the local counters merge back into the parent
        # registry — routing through both would double count.  Pool
        # workers have no useful bound registry, so there the local
        # counters carry the injections home via the outcome relay.
        fault_point(
            "parallel.shard", metrics=local if pool else NULL_METRICS,
            kind=shard.kind, index=shard.index, pool=pool,
        )
        function = _shard_function(shard.kind)
        value = function(shared, shard.payload, local)
        return ShardOutcome(
            index=shard.index, value=value,
            seconds=time.perf_counter() - start,
            counters=dict(local.counters),
            histograms={
                name: histogram.to_dict()
                for name, histogram in local.histograms.items()
            },
        )
    except Exception as exc:
        return ShardOutcome(
            index=shard.index, seconds=time.perf_counter() - start,
            error=traceback.format_exc(),
            counters=_reliability_counters(local),
            retryable=not isinstance(exc, ReproError),
        )


def _run_shard_ctx(ctx: Dict[str, Any], shard: Shard) -> ShardOutcome:
    """Persistent-pool task entry: switch the fault plan, run the shard."""
    _switch_fault_plan(ctx)
    return _attempt_shard(ctx["shared"], shard, pool=True)


def _shard_function(kind: str):
    try:
        return SHARD_KINDS[kind]
    except KeyError:
        raise ReproError(f"unknown shard kind {kind!r}") from None


# -- the persistent pool -----------------------------------------------------

def _reset_worker_signals() -> None:
    """Pool initializer: workers die by SIGTERM, and only their pool's.

    ``Pool.terminate()`` takes the task queue's read lock, then stops
    the workers with SIGTERM and joins them.  Two ways to hang it:

    - a forked worker inherits the parent's Python SIGTERM handler
      (``repro serve`` and perfbench install one), runs it instead of
      dying, blocks on the lock the parent now holds and is joined
      forever — so the default action is restored.  Workers start with
      SIGTERM blocked (:func:`_sigterm_blocked`), so a SIGTERM that
      arrives before this runs waits for it instead of meeting the
      inherited handler;
    - a signal to the whole process group (``timeout``, Ctrl-C) kills an
      idle worker while it holds that lock, and ``terminate()`` waits
      for the lock forever — so the worker leaves the parent's process
      group, and the parent, which gets the signal, stops its pool.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if hasattr(os, "setpgrp"):
        os.setpgrp()
    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})


@contextlib.contextmanager
def _sigterm_blocked():
    """Block SIGTERM in this thread while it builds a pool: the workers
    it forks, and the pool's helper threads (which fork replacements),
    inherit the mask until :func:`_reset_worker_signals` lifts it."""
    if not hasattr(signal, "pthread_sigmask"):
        yield
        return
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def _shutdown_pool(pool) -> None:
    """Finalizer target: tear a pool down without referencing its owner."""
    try:
        pool.terminate()
        pool.join()
    except Exception:  # noqa: BLE001 - interpreter may be shutting down
        pass


class PersistentPool:
    """A lazily-built, health-checked, reusable pool of forked workers.

    The pool is created on first :meth:`ensure` and then *reused* by
    every subsequent pooled map — across ``ShardedExecutor.map()``
    calls, across ``DepMiner.run()`` invocations (the miner owns one
    pool per instance), and across service requests (``repro serve``
    owns one pool per daemon).  A pool that poisons, times out, loses
    its IPC machinery or a worker is terminated and flagged broken
    (:meth:`mark_broken`); the *next* ``ensure()`` transparently
    rebuilds it, so one sick request never strands the daemon in
    degraded mode.

    Thread-safe: ``ensure``/``mark_broken``/``close`` serialize on a
    lock, and ``multiprocessing.Pool.apply_async`` is itself safe to
    call from concurrent service threads.  Cleanup is triple-covered:
    explicit :meth:`close`, a :func:`weakref.finalize` per built pool
    (which also fires at interpreter exit), and terminate-on-rebuild.
    """

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = resolve_jobs(jobs if jobs is not None else 1)
        self._lock = threading.Lock()
        self._pool = None
        self._finalizer = None
        self._broken = False
        self._closed = False
        self.builds = 0
        self.reuses = 0
        self.maps = 0

    def ensure(self):
        """Return ``(pool, reused)`` — building or rebuilding if needed."""
        with self._lock:
            if self._closed:
                raise ReproError("persistent pool is closed")
            if self._pool is not None and not self._broken:
                self.reuses += 1
                return self._pool, True
            self._terminate_locked()
            with _sigterm_blocked():
                self._pool = multiprocessing.get_context("fork").Pool(
                    processes=self.jobs, initializer=_reset_worker_signals)
            self._finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool
            )
            self.builds += 1
            self._broken = False
            return self._pool, False

    def mark_broken(self) -> None:
        """Terminate now; the next :meth:`ensure` rebuilds."""
        with self._lock:
            self._broken = True
            self._terminate_locked()

    def _terminate_locked(self) -> None:
        pool, self._pool = self._pool, None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if pool is not None:
            _shutdown_pool(pool)

    def close(self) -> None:
        """Tear the pool down for good (idempotent)."""
        with self._lock:
            self._closed = True
            self._broken = False
            self._terminate_locked()

    @property
    def live(self) -> bool:
        """Is a healthy pool currently running?"""
        return self._pool is not None and not self._broken

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> Dict[str, Any]:
        """The pool-lifecycle numbers surfaced on ``/stats``."""
        return {
            "workers": self.jobs,
            "live": self.live,
            "builds": self.builds,
            "reuses": self.reuses,
            "maps": self.maps,
        }

    def __repr__(self) -> str:
        state = "live" if self.live else (
            "closed" if self._closed else "idle"
        )
        return (f"PersistentPool({self.jobs} workers, {state}, "
                f"{self.builds} build(s), {self.reuses} reuse(s))")


# -- the executor ------------------------------------------------------------

class ShardedExecutor:
    """Run registered shard kinds over a process pool (or inline).

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs everything inline — the
        guaranteed-identical serial path; ``None``/``0`` means all
        cores.
    shard_timeout:
        Seconds to wait for each shard's result before terminating the
        pool with :class:`ShardTimeoutError`.  ``None`` waits as long
        as the pool's workers live.
        (Shards run concurrently, so this bounds the *straggler* wait,
        not the sum.)
    pool:
        An externally-owned :class:`PersistentPool` to run pooled maps
        on (``DepMiner`` and the service share one across runs and
        requests).  Default ``None``: the executor lazily builds its
        own on first pooled map and reuses it across its ``map()``
        calls.  Worker counts must match ``jobs``.
    tracer / metrics / progress:
        The usual observability hooks (:mod:`repro.obs`).  Each
        completed shard is re-recorded as a synthetic ``parallel.shard``
        span, its counters and histograms are merged, and one progress
        step is emitted per completion (so an aborting callback cancels
        the map).

    At most ``2 × jobs`` shards are in flight.  A retryable failure is
    re-attempted under :data:`~repro.reliability.DEFAULT_RETRY_POLICY`
    (typed :class:`~repro.errors.ReproError` failures never are); a
    pool that keeps failing — :data:`POISON_THRESHOLD` failed attempts
    in one map, a shard out of retries, dead IPC or a dead worker —
    hands the remaining shards to the inline path, and the executor
    stays serial for its remaining ``map`` calls.
    """

    def __init__(self, jobs: int = 1,
                 shard_timeout: Optional[float] = None,
                 pool: Optional[PersistentPool] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 progress: Optional[ProgressCallback] = None):
        self.jobs = resolve_jobs(jobs)
        self.shard_timeout = resolve_shard_timeout(shard_timeout)
        if pool is not None and pool.jobs != self.jobs:
            raise ReproError(
                f"external pool has {pool.jobs} worker(s) but the "
                f"executor wants {self.jobs}"
            )
        self._pool = pool
        self._owns_pool = False
        self.tracer = tracer
        self.metrics = metrics
        self.progress = progress
        self._degraded = False

    @property
    def serial(self) -> bool:
        return self.jobs <= 1

    @property
    def degraded(self) -> bool:
        """Has this executor fallen back to serial execution for good?"""
        return self._degraded

    @property
    def pool(self) -> Optional[PersistentPool]:
        """The persistent pool this executor runs on (``None`` until a
        pooled map builds the lazily-owned one)."""
        return self._pool

    def _persistent_pool(self) -> PersistentPool:
        if self._pool is None or self._pool.closed:
            self._pool = PersistentPool(self.jobs)
            self._owns_pool = True
        return self._pool

    def close(self) -> None:
        """Release the owned persistent pool (no-op for injected pools,
        which their owner — miner or service — closes)."""
        if self._owns_pool and self._pool is not None:
            self._pool.close()

    def map(self, kind: str, payloads: Sequence[Any],
            shared: Any = None,
            stage: str = "parallel.shards") -> List[Any]:
        """Run *kind* over every payload; results in payload order.

        The serial path (``jobs=1``, or fewer than two shards) calls
        the shard function inline; otherwise the shards are distributed
        over the pool with a bounded in-flight window.  Either way the
        observability side effects are the same: one synthetic span,
        one counter merge and one *stage* progress step per shard.
        """
        shards = [
            Shard(kind=kind, index=index, payload=payload)
            for index, payload in enumerate(payloads)
        ]
        if not shards:
            return []
        if self.serial or self._degraded or len(shards) == 1:
            return self._map_serial(shards, shared, stage)
        return self._map_pool(shards, shared, stage)

    # -- serial fallback ----------------------------------------------------

    def _serial_attempts(self, shard: Shard, shared: Any) -> ShardOutcome:
        """Run one shard inline with the retry policy.

        Mirrors the pool path's retry semantics — retryable failures
        back off and re-attempt, typed library errors re-raise at once —
        but the *final* failure re-raises the original exception
        unwrapped, preserving the serial path's historical contract.
        """
        function = _shard_function(shard.kind)
        attempts = DEFAULT_RETRY_POLICY.attempts
        for attempt in range(1, attempts + 1):
            local = MetricsRegistry()
            start = time.perf_counter()
            try:
                # In-process injection accounting goes through the
                # plan's bound registry alone; counting into `local`
                # too would double count once it merges back.
                fault_point(
                    "parallel.shard", metrics=NULL_METRICS,
                    kind=shard.kind, index=shard.index, pool=False,
                )
                value = function(shared, shard.payload, local)
            except Exception as exc:
                self._merge_counters(_reliability_counters(local))
                if isinstance(exc, ReproError) or attempt >= attempts:
                    raise
                self._note_retry(shard, attempt,
                                 f"{type(exc).__name__}: {exc}")
                continue
            return ShardOutcome(
                index=shard.index, value=value,
                seconds=time.perf_counter() - start,
                counters=dict(local.counters),
                histograms={
                    name: histogram.to_dict()
                    for name, histogram in local.histograms.items()
                },
            )
        raise AssertionError("unreachable: attempts loop always returns")

    def _map_serial(self, shards: List[Shard], shared: Any,
                    stage: str) -> List[Any]:
        results: List[Any] = []
        for done, shard in enumerate(shards, start=1):
            outcome = self._serial_attempts(shard, shared)
            self._absorb(outcome, shard, done, len(shards), stage)
            results.append(outcome.value)
        return results

    # -- pool path ----------------------------------------------------------

    def _await(self, handle, shard: Shard, workers) -> ShardOutcome:
        """Wait for one shard's outcome, in slices of :data:`WAIT_SLICE`.

        Between slices, any of *workers* (the pool's processes when the
        map started) that has exited raises :class:`ChildProcessError`: the
        pool replaced it, but the task it held never completes.  The
        ``shard_timeout`` deadline runs from the start of this wait.
        """
        deadline = (None if self.shard_timeout is None
                    else time.monotonic() + self.shard_timeout)
        while True:
            wait = WAIT_SLICE
            if deadline is not None:
                wait = min(wait, deadline - time.monotonic())
            handle.wait(max(wait, 0.0))
            if handle.ready():
                return handle.get()
            if deadline is not None and time.monotonic() >= deadline:
                raise ShardTimeoutError(
                    f"shard {shard.index} ({shard.kind}) exceeded the "
                    f"{self.shard_timeout:g}s per-shard timeout"
                )
            for worker in workers:
                if worker.exitcode is not None:
                    raise ChildProcessError(
                        f"worker {worker.pid} exited with code "
                        f"{worker.exitcode} while shard {shard.index} "
                        f"({shard.kind}) was pending"
                    )

    def _run_pooled(self, pool, ctx: Dict[str, Any], shards: List[Shard],
                    stage: str):
        """The windowed submit/collect loop of one pooled map.

        Every task carries the map's context *ctx* next to its shard.
        Returns ``(results, completed, done, degrade_reason)``; a
        failure that cannot degrade raises.
        """
        # Pool._pool is multiprocessing's list of worker processes; a
        # snapshot taken before any submission names every worker that
        # can hold one of this map's tasks.  One that died idle is left
        # out: it holds no task, and the pool replaces it.
        workers = tuple(w for w in pool._pool if w.exitcode is None)
        window = 2 * self.jobs
        total = len(shards)
        results: List[Any] = [None] * total
        completed = [False] * total
        attempts: Dict[int, int] = {}
        failures = 0  # failed attempts across the whole map (poison detector)
        done = 0
        degrade_reason: Optional[str] = None
        pending: deque = deque()

        def submit(shard: Shard) -> None:
            attempts[shard.index] = attempts.get(shard.index, 0) + 1
            pending.append(
                (shard, pool.apply_async(_run_shard_ctx, (ctx, shard)))
            )

        queue = iter(shards[window:])
        for shard in shards[:window]:
            submit(shard)
        while pending:
            shard, handle = pending.popleft()
            try:
                outcome = self._await(handle, shard, workers)
            except (OSError, EOFError) as error:
                # The pool's IPC machinery died (broken pipe) or a
                # worker did (OOM killer, ChildProcessError from
                # _await): the pool is unusable.
                degrade_reason = f"worker pool failure: {error}"
                break
            if outcome.error is not None:
                failures += 1
                self._absorb(outcome, shard, done, total, stage,
                             progress_step=False)
                if failures >= POISON_THRESHOLD:
                    self._count("parallel.poisoned")
                    logger.warning(
                        "worker pool poisoned: %d failed attempts in "
                        "one map (threshold %d)", failures, POISON_THRESHOLD,
                    )
                    degrade_reason = (
                        f"pool poisoned ({failures} failed attempts)"
                    )
                    break
                if (outcome.retryable
                        and attempts[shard.index]
                        <= DEFAULT_RETRY_POLICY.retries):
                    self._note_retry(shard, attempts[shard.index],
                                     outcome.error.strip()
                                     .splitlines()[-1])
                    submit(shard)
                    continue
                if outcome.retryable:
                    degrade_reason = (
                        f"shard {shard.index} ({shard.kind}) failed "
                        f"{attempts[shard.index]} attempt(s)"
                    )
                    break
                raise ShardError(
                    f"shard {shard.index} ({shard.kind}) failed in a "
                    f"worker:\n{outcome.error}"
                )
            done += 1
            completed[outcome.index] = True
            self._absorb(outcome, shard, done, total, stage)
            results[outcome.index] = outcome.value
            for next_shard in queue:
                submit(next_shard)
                break
        return results, completed, done, degrade_reason

    def _map_pool(self, shards: List[Shard], shared: Any,
                  stage: str) -> List[Any]:
        """Run *shards* on the persistent pool."""
        ppool = self._persistent_pool()
        build_start = time.perf_counter()
        try:
            pool, reused = ppool.ensure()
        except ReproError:
            raise
        except Exception as error:  # noqa: BLE001 - fork failure
            return self._degrade_to_serial(
                shards, shared, stage, [None] * len(shards),
                [False] * len(shards), 0,
                f"pool start failed: {error}",
            )
        if reused:
            self._count("parallel.pool_reuse")
        elif self.tracer is not None:
            self.tracer.record(
                "parallel.pool_build", time.perf_counter() - build_start,
                workers=ppool.jobs, build=ppool.builds,
            )
        ppool.maps += 1
        plan = current_plan()
        ctx = {
            "generation": uuid.uuid4().hex,
            "shared": shared,
            "fault_plan": plan.to_dict() if plan is not None else None,
        }
        try:
            results, completed, done, degrade_reason = self._run_pooled(
                pool, ctx, shards, stage,
            )
        except BaseException:
            # Timeout, non-degradable failure or cancellation: the pool
            # may hold stuck tasks — terminate it and let the next map
            # (or request) rebuild a fresh one.
            ppool.mark_broken()
            raise
        if degrade_reason is not None:
            ppool.mark_broken()
            return self._degrade_to_serial(
                shards, shared, stage, results, completed, done,
                degrade_reason,
            )
        return results

    def _degrade_to_serial(self, shards: List[Shard], shared: Any,
                           stage: str, results: List[Any],
                           completed: List[bool], done: int,
                           reason: str) -> List[Any]:
        """Finish a broken pool map inline; stay serial from here on.

        Only shards without a result re-run, so work counters merged
        from completed shards are never double-counted.  A shard that
        *still* fails inline raises :class:`ShardError` (typed), and the
        original exception text rides along in the message.
        """
        self._degraded = True
        self._count("parallel.degraded")
        logger.warning(
            "degrading to serial execution (%s); %d/%d shard(s) to re-run "
            "inline", reason, len(shards) - sum(completed), len(shards),
        )
        if self.tracer is not None:
            self.tracer.record("reliability.degraded", 0.0, reason=reason)
        total = len(shards)
        for shard in shards:
            if completed[shard.index]:
                continue
            try:
                outcome = self._serial_attempts(shard, shared)
            except ReproError:
                raise
            except Exception as exc:
                raise ShardError(
                    f"shard {shard.index} ({shard.kind}) failed after "
                    f"degrading to serial execution:\n"
                    f"{traceback.format_exc()}"
                ) from exc
            done += 1
            completed[shard.index] = True
            self._absorb(outcome, shard, done, total, stage)
            results[shard.index] = outcome.value
        return results

    # -- observability relay ------------------------------------------------

    def _absorb(self, outcome: ShardOutcome, shard: Shard, done: int,
                total: int, stage: str, progress_step: bool = True) -> None:
        """Relay one shard outcome into the tracer/metrics/progress hooks.

        Failed attempts pass ``progress_step=False``: their span (status
        ``error``) and reliability counters are recorded, but the
        done-count only advances on completion.
        """
        if self.tracer is not None:
            self.tracer.record(
                "parallel.shard", outcome.seconds, kind=shard.kind,
                shard=shard.index, status="error" if outcome.error else "ok",
            )
        if self.metrics is not None:
            for name, value in outcome.counters.items():
                self.metrics.inc(name, value)
            for name, summary in outcome.histograms.items():
                self.metrics.merge_histogram(name, summary)
        if self.progress is not None and progress_step:
            emit_progress(self.progress, stage, done, total)

    def _count(self, name: str, value: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, value)

    def _merge_counters(self, counters: Dict[str, float]) -> None:
        if self.metrics is not None:
            for name, value in counters.items():
                self.metrics.inc(name, value)

    def _note_retry(self, shard: Shard, attempt: int, cause: str) -> None:
        """Count, trace and back off before re-attempt *attempt*."""
        backoff = DEFAULT_RETRY_POLICY.backoff(attempt, token=shard.index)
        self._count("parallel.retry")
        if self.tracer is not None:
            self.tracer.record(
                "reliability.retry", backoff, kind=shard.kind,
                shard=shard.index, attempt=attempt, cause=cause,
            )
        logger.info(
            "retrying shard %d (%s) after attempt %d (%s); backing off "
            "%.3fs", shard.index, shard.kind, attempt, cause, backoff,
        )
        time.sleep(backoff)

    def __repr__(self) -> str:
        if self.serial:
            mode = "serial"
        elif self._degraded:
            mode = f"{self.jobs} workers, degraded to serial"
        else:
            mode = f"{self.jobs} workers"
        timeout = (
            f", timeout={self.shard_timeout:g}s" if self.shard_timeout else ""
        )
        return f"ShardedExecutor({mode}{timeout})"
