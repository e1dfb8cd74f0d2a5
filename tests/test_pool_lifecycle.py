"""Lifecycle tests: persistent-pool rebuild, dead workers, fork only.

The reusable worker pool earns its keep only if its *failure* paths
are boring: a poisoned pool must be rebuilt transparently on the next
map, a worker killed mid-shard (what the OOM killer does) must degrade
the map to serial instead of hanging it, a platform without fork must
refuse ``jobs > 1`` at construction, and ``close()`` must never hang
whatever signal handlers the parent installed.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading

import pytest

from repro.core.depminer import DepMiner
from repro.datasets import paper_example_relation
from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.parallel import PersistentPool, ShardedExecutor, register_shard_kind
from repro.parallel import executor as executor_module
from repro.reliability import RetryPolicy
from repro.service import ServiceApp, ServiceConfig


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


@register_shard_kind("lifecycle.kill_worker")
def _kill_worker(shared, payload, metrics):
    # What the OOM killer does to the worker that holds shard 1; the
    # inline re-run in the (non-daemonic) parent survives it.
    if payload == 1 and multiprocessing.current_process().daemon:
        os.kill(os.getpid(), signal.SIGKILL)
    return payload


class TestPoolRebuildAfterPoisoning:
    def test_next_executor_rebuilds_a_poisoned_pool(self, monkeypatch):
        monkeypatch.setattr(executor_module, "DEFAULT_RETRY_POLICY",
                            RetryPolicy(retries=0))
        monkeypatch.setattr(executor_module, "POISON_THRESHOLD", 1)
        pool = PersistentPool(jobs=2)
        metrics = MetricsRegistry()
        poisoned = ShardedExecutor(jobs=2, pool=pool, metrics=metrics)
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
        executor = ShardedExecutor(jobs=2, pool=pool)
        assert executor.map("lifecycle.square", [1, 2]) == [1, 4]
        assert not executor.degraded
        assert executor.pool is not pool
        executor.close()


class TestDispatchFallbacks:
    """A pooled map reuses its pool, and a dead worker sends it inline."""

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

    @pytest.mark.skipif(os.name == "nt", reason="needs POSIX signals")
    def test_a_killed_worker_degrades_the_map_instead_of_hanging(self):
        pool = PersistentPool(jobs=2)
        metrics = MetricsRegistry()
        executor = ShardedExecutor(jobs=2, pool=pool, metrics=metrics)
        outcome = {}

        def run():
            outcome["result"] = executor.map("lifecycle.kill_worker",
                                             [0, 1, 2, 3])

        # A map that hangs stays in its daemon thread; the test fails.
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30)
        try:
            assert not thread.is_alive(), (
                "the map hung on a worker killed mid-shard")
            assert outcome["result"] == [0, 1, 2, 3]
            assert metrics.counters["parallel.degraded"] == 1
            assert executor.degraded
            assert not pool.live
            # The next executor on the pool (the next run) rebuilds it.
            healthy = ShardedExecutor(jobs=2, pool=pool)
            assert healthy.map("lifecycle.square", [1, 2, 3]) == [1, 4, 9]
            assert not healthy.degraded
            assert pool.stats()["builds"] == 2
        finally:
            pool.close()


class TestForkOnly:
    """Pool workers are forked: without fork, ``jobs > 1`` is an error
    at construction, never a silent serial run."""

    @pytest.fixture
    def no_fork(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])

    @pytest.mark.parametrize("build", [
        lambda: DepMiner(jobs=2),
        lambda: ShardedExecutor(jobs=2),
        lambda: PersistentPool(2),
        lambda: ServiceApp(ServiceConfig(jobs=2)),
    ], ids=["depminer", "executor", "pool", "service"])
    def test_jobs_above_one_is_refused(self, no_fork, build):
        with pytest.raises(ReproError, match="fork"):
            build()

    def test_jobs_one_still_mines(self, no_fork):
        result = DepMiner(jobs=1).run(paper_example_relation())
        assert len(result.fds) == 14


def _worker_signals(_):
    """(SIGTERM runs its default action, the worker's process group)."""
    return (signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
            os.getpgrp() if hasattr(os, "getpgrp") else None)


#: Rounds of ensure/map/close under a parent SIGTERM handler; a pool
#: whose workers kept that handler hung within a few hundred.  Each
#: round prints its worker pids, so a hung loop's workers can be killed.
_SIGTERM_ROUNDS = 150
_SIGTERM_LOOP = f"""
import multiprocessing, signal, sys
from repro.parallel import PersistentPool

signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
for _ in range({_SIGTERM_ROUNDS}):
    pool = PersistentPool(2)
    workers, _ = pool.ensure()
    print("workers", *(p.pid for p in multiprocessing.active_children()),
          flush=True)
    assert workers.map(abs, [-1, -2, -3]) == [1, 2, 3]
    pool.close()
print("closed", {_SIGTERM_ROUNDS})
"""


class TestWorkerSignals:
    """Workers run SIGTERM's default action, whatever the parent set —
    ``Pool.terminate()`` stops them with SIGTERM — and sit outside the
    parent's process group, so a group signal reaches only the parent."""

    def test_workers_reset_sigterm_and_leave_the_group(self):
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
    def test_close_never_hangs_under_a_parent_sigterm_handler(self,
                                                             tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        # A file, not pipes: a hung worker sits in a process group of
        # its own and would hold a pipe open after the loop is killed.
        log = tmp_path / "loop.log"
        with open(log, "w") as out:
            try:
                done = subprocess.run(
                    [sys.executable, "-c", _SIGTERM_LOOP], stdout=out,
                    stderr=subprocess.STDOUT, env=env, timeout=120)
            except subprocess.TimeoutExpired:
                # run() killed the loop.  Each round's close() joined
                # that round's workers, so only the last round's remain.
                rounds = [line.split()[1:] for line in
                          log.read_text().splitlines()
                          if line.startswith("workers")]
                for pid in rounds[-1] if rounds else ():
                    try:
                        os.kill(int(pid), signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                pytest.fail(f"{_SIGTERM_ROUNDS} pool closes under a "
                            f"SIGTERM handler did not finish within 120 s "
                            f"(hung in round {len(rounds)})")
        output = log.read_text()
        assert done.returncode == 0, output
        assert output.splitlines()[-1].split() == [
            "closed", str(_SIGTERM_ROUNDS)]
