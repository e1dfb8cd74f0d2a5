"""Lifecycle tests: persistent-pool rebuild and shared-memory cleanup.

The tentpole's two stateful pieces — the reusable worker pool and the
shared-memory arena — earn their keep only if their *failure* paths are
boring: a poisoned pool must be rebuilt transparently on the next map,
an aborted or exploded map must not leak ``/dev/shm`` segments, and a
host without NumPy (or without ``multiprocessing.shared_memory``) must
fall back to pickled dispatch with a bit-identical cover.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.core.depminer import DepMiner
from repro.datasets import paper_example_relation
from repro.errors import ReproError
from repro.obs import MetricsRegistry, ProgressAborted
from repro.parallel import (
    MpContextError,
    PersistentPool,
    ShardedExecutor,
    ShardError,
    SharedArrayArena,
    register_shard_kind,
    resolve_start_method,
    shm_available,
)
from repro.parallel import shm as shm_module

needs_shm = pytest.mark.skipif(
    not (shm_available() and os.path.isdir("/dev/shm")),
    reason="needs multiprocessing.shared_memory and a /dev/shm mount",
)
needs_numpy = pytest.mark.skipif(
    not shm_module.numpy_available(), reason="needs NumPy"
)


@register_shard_kind("lifecycle.square")
def _square(shared, payload, metrics):
    return payload * payload


@register_shard_kind("lifecycle.fail_in_worker")
def _fail_in_worker(shared, payload, metrics):
    # Pool workers are daemonic; the serial fallback runs in the main
    # process.  Failing only in workers lets one test observe both the
    # poisoning and the successful serial re-run.
    if multiprocessing.current_process().daemon:
        raise RuntimeError(f"worker refused shard {payload}")
    return payload * payload


@register_shard_kind("lifecycle.boom")
def _boom(shared, payload, metrics):
    raise RuntimeError(f"shard {payload} exploded everywhere")


def _leaked_segments():
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return set()
    return {n for n in names if n.startswith(shm_module.SEGMENT_PREFIX)}


def _big_array():
    import numpy

    return numpy.arange(100_000, dtype=numpy.int64)  # ~800 KiB


class TestMpContextValidation:
    def test_none_passes_through(self):
        assert resolve_start_method(None) is None

    def test_known_method_is_returned(self):
        method = multiprocessing.get_all_start_methods()[0]
        assert resolve_start_method(method) == method

    def test_unknown_method_raises_typed_error(self):
        with pytest.raises(MpContextError, match="bogus"):
            resolve_start_method("bogus")
        assert issubclass(MpContextError, ReproError)

    def test_depminer_validates_eagerly(self):
        with pytest.raises(MpContextError):
            DepMiner(jobs=2, mp_context="not-a-method")

    def test_error_lists_available_methods(self):
        with pytest.raises(MpContextError) as excinfo:
            resolve_start_method("bogus")
        for method in multiprocessing.get_all_start_methods():
            assert method in str(excinfo.value)


class TestPoolRebuildAfterPoisoning:
    def test_next_executor_rebuilds_a_poisoned_pool(self):
        pool = PersistentPool(jobs=2)
        metrics = MetricsRegistry()
        poisoned = ShardedExecutor(jobs=2, pool=pool, retries=0,
                                   poison_threshold=1, metrics=metrics)
        # Workers refuse every shard -> poisoned -> serial fallback
        # still produces the right answer, and the pool is torn down.
        assert poisoned.map("lifecycle.fail_in_worker", [1, 2, 3]) == [
            1, 4, 9
        ]
        assert poisoned.degraded
        assert metrics.counters.get("parallel.poisoned", 0) >= 1
        assert not pool.live

        # A fresh executor on the same PersistentPool (what the next
        # DepMiner.run() does) transparently rebuilds it.
        healthy = ShardedExecutor(jobs=2, pool=pool, metrics=metrics)
        assert healthy.map("lifecycle.square", [1, 2, 3]) == [1, 4, 9]
        assert not healthy.degraded
        stats = pool.stats()
        assert stats["builds"] == 2
        assert stats["live"]
        pool.close()

    def test_depminer_runs_fine_after_pool_breakage(self):
        miner = DepMiner(jobs=2, build_armstrong="none")
        relation = paper_example_relation()
        first = miner.run(relation).fds
        # Simulate a mid-flight pool death (OOM-killed worker, say).
        assert miner.pool is not None
        miner.pool.mark_broken()
        second = miner.run(relation).fds
        assert {(fd.lhs.mask, fd.rhs_mask) for fd in first} == {
            (fd.lhs.mask, fd.rhs_mask) for fd in second
        }
        assert miner.pool.stats()["builds"] == 2
        miner.close()
        assert miner.pool.closed

    def test_closed_pool_refuses_ensure_but_executor_replaces_it(self):
        pool = PersistentPool(jobs=2)
        pool.close()
        with pytest.raises(ReproError):
            pool.ensure()
        # An executor holding a closed (injected) pool quietly builds a
        # fresh owned one — a service session must survive the daemon
        # pool's shutdown racing its own last request.
        executor = ShardedExecutor(jobs=2, pool=pool, degrade=False)
        assert executor.map("lifecycle.square", [1, 2]) == [1, 4]
        assert executor.pool is not pool
        executor.close()


@needs_shm
@needs_numpy
class TestArenaCleanup:
    def test_arena_close_unlinks_segments(self):
        before = _leaked_segments()
        arena = SharedArrayArena(metrics=MetricsRegistry())
        arena.encode({"data": _big_array()})
        assert len(_leaked_segments()) > len(before)
        arena.close()
        assert _leaked_segments() <= before

    def test_no_leak_when_a_map_explodes(self):
        before = _leaked_segments()
        executor = ShardedExecutor(jobs=2, retries=0, degrade=False)
        with pytest.raises(ShardError):
            executor.map("lifecycle.boom", [0, 1, 2],
                         shared={"data": _big_array()})
        executor.close()
        assert _leaked_segments() <= before

    def test_no_leak_when_progress_aborts(self):
        before = _leaked_segments()
        executor = ShardedExecutor(
            jobs=2, progress=lambda stage, done, total: False
        )
        with pytest.raises(ProgressAborted):
            executor.map("lifecycle.square", [1, 2, 3, 4],
                         shared={"data": _big_array()})
        executor.close()
        assert _leaked_segments() <= before

    def test_no_leak_across_a_full_mining_run(self):
        before = _leaked_segments()
        miner = DepMiner(jobs=2, backend="columnar", build_armstrong="none")
        miner.run(paper_example_relation())
        miner.close()
        assert _leaked_segments() <= before


class TestDispatchFallbacks:
    """No NumPy / no shared_memory -> pickled dispatch, same cover."""

    def _covers_match(self):
        relation = paper_example_relation()
        serial = DepMiner(build_armstrong="none").run(relation).fds
        miner = DepMiner(jobs=2, build_armstrong="none")
        parallel = miner.run(relation).fds
        miner.close()
        assert {(fd.lhs.mask, fd.rhs_mask) for fd in serial} == {
            (fd.lhs.mask, fd.rhs_mask) for fd in parallel
        }

    def test_numpy_absent_falls_back_to_pickle(self, monkeypatch):
        monkeypatch.setattr(shm_module, "_np", None)
        assert not shm_module.numpy_available()
        self._covers_match()

    def test_shared_memory_absent_falls_back_to_pickle(self, monkeypatch):
        monkeypatch.setattr(shm_module, "_shm", None)
        assert not shm_available()
        self._covers_match()

    def test_shm_disabled_executor_publishes_nothing(self, monkeypatch):
        monkeypatch.setattr(shm_module, "_shm", None)
        metrics = MetricsRegistry()
        executor = ShardedExecutor(jobs=2, metrics=metrics)
        assert not executor.shm_active
        assert executor.map("lifecycle.square", [2, 3]) == [4, 9]
        executor.close()
        assert metrics.counters.get("parallel.shm_bytes", 0) == 0

    def test_pool_reuse_counter_increments(self):
        metrics = MetricsRegistry()
        executor = ShardedExecutor(jobs=2, metrics=metrics)
        executor.map("lifecycle.square", [1, 2])
        executor.map("lifecycle.square", [3, 4])
        assert metrics.counters.get("parallel.pool_reuse", 0) >= 1
        stats = executor.pool.stats()
        assert stats["builds"] == 1
        assert stats["maps"] == 2
        executor.close()


def _worker_signals(_):
    """(SIGTERM runs its default action, the worker's process group)."""
    import signal

    return (signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
            os.getpgrp() if hasattr(os, "getpgrp") else None)


#: Rounds of ensure/map/close under a parent SIGTERM handler; a pool
#: whose workers kept that handler hung within a few hundred.
_SIGTERM_ROUNDS = 150
_SIGTERM_LOOP = f"""
import signal, sys
from repro.parallel import PersistentPool

signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
for _ in range({_SIGTERM_ROUNDS}):
    pool = PersistentPool(2)
    workers, _ = pool.ensure()
    assert workers.map(abs, [-1, -2, -3]) == [1, 2, 3]
    pool.close()
print("closed", {_SIGTERM_ROUNDS})
"""


class TestWorkerSignals:
    """Workers run SIGTERM's default action, whatever the parent set —
    ``Pool.terminate()`` stops them with SIGTERM — and sit outside the
    parent's process group, so a group signal reaches only the parent."""

    def test_workers_reset_sigterm_and_leave_the_group(self):
        import signal

        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        pool = PersistentPool(2)
        try:
            workers, _ = pool.ensure()
            states = workers.map(_worker_signals, range(4))
        finally:
            pool.close()
            signal.signal(signal.SIGTERM, previous)
        assert all(default for default, _ in states)
        if hasattr(os, "getpgrp"):
            assert os.getpgrp() not in {group for _, group in states}

    @pytest.mark.skipif(os.name == "nt", reason="needs POSIX signals")
    def test_close_never_hangs_under_a_parent_sigterm_handler(self):
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        try:
            done = subprocess.run([sys.executable, "-c", _SIGTERM_LOOP],
                                  capture_output=True, text=True, env=env,
                                  timeout=120)
        except subprocess.TimeoutExpired:
            pytest.fail(f"{_SIGTERM_ROUNDS} pool closes under a SIGTERM "
                        f"handler did not finish within 120 s")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["closed", str(_SIGTERM_ROUNDS)]
