"""The reliability layer: fault plans, retry/degradation, quarantine.

Four halves plus the acceptance sweep:

1. Unit tests of :class:`FaultSpec` / :class:`FaultPlan` — validation,
   (de)serialization, trigger evaluation (``calls``, ``probability``,
   ``match``, ``times``) and its determinism across fresh plan copies.
2. The instrumentation hooks — :func:`fault_point`,
   :func:`filter_bytes`, :func:`wrap_text_stream` — including the
   injection counters flowing into both the bound and the call-site
   metrics registry.
3. The sharded executor's recovery ladder: per-shard retry with
   deterministic backoff, the poisoned-pool detector, and graceful
   degradation to serial (persistent per-executor, results unchanged).
4. The artifact store's disk-tier quarantine (IO errors disable the
   tier, never the miner) and the atomic-write crash window.

The differential sweep at the bottom pins the contract from
``docs/reliability.md``: with *any* plan active, a mining run either
returns the exact cover of a fault-free run or raises a typed
:class:`~repro.errors.ReproError` — never a silently wrong answer.
"""

from __future__ import annotations

import io

import pytest

from repro.cache import ArtifactStore, guard_digest
from repro.core.depminer import DepMiner
from repro.datagen.synthetic import generate_relation
from repro.datasets import paper_example_relation
from repro.errors import (
    ReliabilityError,
    ReproError,
    StorageError,
)
from repro.obs import MetricsRegistry, Tracer
from repro.parallel import ShardedExecutor, register_shard_kind
from repro.parallel import executor as executor_module
from repro.partitions.streaming import stream_partition_database
from repro.reliability import (
    KNOWN_SITES,
    DEFAULT_RETRY_POLICY,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    current_plan,
    fault_plan_active,
    fault_point,
    filter_bytes,
    filter_text,
    load_fault_plan,
    wrap_text_stream,
)
from repro.storage.csv_io import read_csv, relation_to_csv, write_csv


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test must leave the process without an active plan."""
    assert current_plan() is None
    yield
    assert current_plan() is None


def plan(*specs, seed=0, name="test-plan") -> FaultPlan:
    return FaultPlan([FaultSpec(**spec) for spec in specs],
                     seed=seed, name=name)


# Shard kind raising a *typed* library error: deterministic, never retried.
@register_shard_kind("test.fail_typed")
def _fail_typed_shard(shared, payload, metrics):
    raise ReproError(f"typed failure on {payload}")


@register_shard_kind("test.reliability_square")
def _square_shard(shared, payload, metrics):
    return payload * payload


# ---------------------------------------------------------------------------
# FaultSpec / FaultPlan


class TestFaultSpec:
    def test_requires_site(self):
        with pytest.raises(ReliabilityError, match="site"):
            FaultSpec.from_dict({"kind": "error"})

    def test_rejects_unknown_kind(self):
        with pytest.raises(ReliabilityError, match="unknown fault kind"):
            FaultSpec("parallel.shard", kind="explode")

    def test_rejects_unknown_error_type(self):
        with pytest.raises(ReliabilityError, match="unknown error type"):
            FaultSpec("parallel.shard", error="KeyboardInterrupt")

    def test_rejects_repro_errors_as_injectables(self):
        # Injected faults exercise recovery paths; they must never
        # imitate typed library failures.
        with pytest.raises(ReliabilityError):
            FaultSpec("parallel.shard", error="ReproError")

    def test_rejects_bad_probability_times_calls(self):
        with pytest.raises(ReliabilityError, match="probability"):
            FaultSpec("parallel.shard", probability=1.5)
        with pytest.raises(ReliabilityError, match="times"):
            FaultSpec("parallel.shard", times=0)
        with pytest.raises(ReliabilityError, match="1-based"):
            FaultSpec("parallel.shard", calls=[0])

    def test_rejects_unknown_fields(self):
        with pytest.raises(ReliabilityError, match="sitee"):
            FaultSpec.from_dict({"sitee": "parallel.shard"})

    def test_round_trips_through_dict(self):
        spec = FaultSpec("cache.disk_read", kind="truncate", truncate=7,
                         calls=[2, 3], probability=0.5,
                         match={"kind": ["agree", "fds"]}, times=2)
        clone = FaultSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()

    def test_match_supports_equality_and_membership(self):
        spec = FaultSpec("s", match={"index": [0, 2], "pool": True})
        assert spec.matches_context({"index": 0, "pool": True})
        assert not spec.matches_context({"index": 1, "pool": True})
        assert not spec.matches_context({"index": 0, "pool": False})
        assert not spec.matches_context({})

    def test_build_error_type_and_message(self):
        spec = FaultSpec("s", error="TimeoutError", message="boom")
        error = spec.build_error(3)
        assert isinstance(error, TimeoutError)
        assert str(error) == "boom"
        default = FaultSpec("s").build_error(2)
        assert "call 2" in str(default)


class TestFaultPlan:
    def test_from_json_rejects_garbage(self):
        with pytest.raises(ReliabilityError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(ReliabilityError, match="unknown fault plan"):
            FaultPlan.from_json('{"seeed": 1}')
        with pytest.raises(ReliabilityError, match="list"):
            FaultPlan.from_json('{"faults": "x"}')

    def test_calls_trigger_is_one_based_and_per_site(self):
        p = plan({"site": "storage.read", "calls": [2]})
        assert p.select("storage.read", {}, ("error",))[0] is None
        spec, call = p.select("storage.read", {}, ("error",))
        assert spec is not None and call == 2
        # other sites keep their own counters
        assert p.select("storage.write", {}, ("error",))[0] is None

    def test_times_makes_the_fault_transient(self):
        p = plan({"site": "storage.read", "times": 2})
        fired = [p.select("storage.read", {}, ("error",))[0] is not None
                 for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_probability_draws_are_deterministic(self):
        def run():
            p = plan({"site": "storage.read", "probability": 0.5}, seed=42)
            return [p.select("storage.read", {}, ("error",))[0] is not None
                    for _ in range(32)]

        first, second = run(), run()
        assert first == second
        assert any(first) and not all(first)  # actually probabilistic

    def test_seed_changes_the_injection_pattern(self):
        def pattern(seed):
            p = plan({"site": "storage.read", "probability": 0.5}, seed=seed)
            return tuple(
                p.select("storage.read", {}, ("error",))[0] is not None
                for _ in range(64)
            )

        assert pattern(1) != pattern(2)

    def test_serialized_copy_starts_with_fresh_counters(self):
        p = plan({"site": "storage.read", "times": 1})
        assert p.select("storage.read", {}, ("error",))[0] is not None
        clone = FaultPlan.from_dict(p.to_dict())
        assert clone.select("storage.read", {}, ("error",))[0] is not None
        assert p.select("storage.read", {}, ("error",))[0] is None

    def test_load_fault_plan(self, tmp_path):
        path = tmp_path / "chaos.json"
        path.write_text('{"seed": 3, "faults": [{"site": "storage.read"}]}')
        loaded = load_fault_plan(path)
        assert loaded.seed == 3
        assert loaded.name == "chaos"  # defaults to the file stem
        with pytest.raises(ReliabilityError, match="cannot read"):
            load_fault_plan(tmp_path / "missing.json")

    def test_known_sites_cover_the_instrumented_layers(self):
        assert {"parallel.shard", "cache.disk_read", "cache.disk_write",
                "storage.read", "storage.write",
                "partitions.stream"} == set(KNOWN_SITES)


# ---------------------------------------------------------------------------
# the hooks


class TestHooks:
    def test_fault_point_is_a_noop_without_a_plan(self):
        fault_point("storage.read", path="x")  # must not raise

    def test_fault_point_raises_the_configured_error(self):
        with fault_plan_active(plan({"site": "storage.read",
                                     "error": "OSError"})):
            with pytest.raises(OSError):
                fault_point("storage.read", path="x")

    def test_fault_point_honours_match_context(self):
        p = plan({"site": "storage.read", "match": {"path": "a.csv"}})
        with fault_plan_active(p):
            fault_point("storage.read", path="b.csv")  # no match, no raise
            with pytest.raises(OSError):
                fault_point("storage.read", path="a.csv")

    def test_filter_bytes_and_text_truncate(self):
        p = plan({"site": "cache.disk_read", "kind": "truncate",
                  "truncate": 4})
        with fault_plan_active(p):
            assert filter_bytes("cache.disk_read", b"abcdefgh") == b"abcd"
        with fault_plan_active(plan({"site": "storage.read",
                                     "kind": "truncate", "truncate": 2})):
            assert filter_text("storage.read", "abcdef") == "ab"
        assert filter_bytes("cache.disk_read", b"abcdefgh") == b"abcdefgh"

    def test_wrap_text_stream_only_buffers_when_needed(self):
        handle = io.StringIO("A,B\n1,2\n")
        # no truncate specs for the site: the original handle comes back
        with fault_plan_active(plan({"site": "storage.read"})):
            assert wrap_text_stream("partitions.stream", handle) is handle
        with fault_plan_active(plan({"site": "partitions.stream",
                                     "kind": "truncate", "truncate": 5})):
            wrapped = wrap_text_stream("partitions.stream", handle)
            assert wrapped is not handle
            assert wrapped.read() == "A,B\n1"

    def test_injections_count_into_both_registries(self):
        bound, local = MetricsRegistry(), MetricsRegistry()
        p = plan({"site": "storage.read"})
        with fault_plan_active(p, metrics=bound):
            with pytest.raises(OSError):
                fault_point("storage.read", metrics=local, path="x")
        for registry in (bound, local):
            assert registry.counters["reliability.injected"] == 1
            assert registry.counters["reliability.injected.storage.read"] == 1
        assert p.injected_total() == 1

    def test_one_registry_is_not_double_counted(self):
        registry = MetricsRegistry()
        with fault_plan_active(plan({"site": "storage.read"}),
                               metrics=registry):
            with pytest.raises(OSError):
                fault_point("storage.read", metrics=registry, path="x")
        assert registry.counters["reliability.injected"] == 1

    def test_nested_activation_restores_the_outer_plan(self):
        outer, inner = plan({"site": "storage.read"}), \
            plan({"site": "storage.write"})
        with fault_plan_active(outer):
            with fault_plan_active(inner):
                assert current_plan() is inner
            assert current_plan() is outer


# ---------------------------------------------------------------------------
# executor: retry, poisoning, degradation


def shard_fault(**overrides):
    base = {"site": "parallel.shard", "kind": "error", "error": "OSError"}
    base.update(overrides)
    return base


def allow_retries(monkeypatch, retries):
    """Run executors under *retries* re-attempts with a 1 ms backoff."""
    monkeypatch.setattr(executor_module, "DEFAULT_RETRY_POLICY",
                        RetryPolicy(retries=retries, base=0.001))


class TestExecutorRetry:
    def test_transient_fault_is_retried_and_recovers(self, monkeypatch):
        allow_retries(monkeypatch, 2)
        metrics = MetricsRegistry()
        tracer = Tracer()
        executor = ShardedExecutor(jobs=1, tracer=tracer, metrics=metrics)
        with fault_plan_active(plan(shard_fault(times=1)), metrics=metrics):
            assert executor.map(
                "test.reliability_square", [2, 3]
            ) == [4, 9]
        assert metrics.counters["parallel.retry"] == 1
        assert metrics.counters["reliability.injected"] == 1
        assert len(tracer.find("reliability.retry")) == 1
        assert not executor.degraded

    def test_persistent_fault_exhausts_retries_serially(self, monkeypatch):
        allow_retries(monkeypatch, 1)
        executor = ShardedExecutor(jobs=1)
        with fault_plan_active(plan(shard_fault(probability=1.0))):
            with pytest.raises(OSError, match="injected"):
                executor.map("test.reliability_square", [2])

    def test_typed_library_errors_are_never_retried(self, monkeypatch):
        allow_retries(monkeypatch, 3)
        metrics = MetricsRegistry()
        executor = ShardedExecutor(jobs=1, metrics=metrics)
        with pytest.raises(ReproError, match="typed failure"):
            executor.map("test.fail_typed", [7])
        assert "parallel.retry" not in metrics.counters

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(retries=3, base=0.1, cap=0.15, jitter=0.25)
        sleeps = [policy.backoff(n, token="shard-3") for n in (1, 2, 3)]
        assert sleeps == [policy.backoff(n, token="shard-3")
                          for n in (1, 2, 3)]
        assert all(s <= 0.15 * 1.25 for s in sleeps)
        assert policy.backoff(1, token="a") != policy.backoff(1, token="b")
        assert policy.attempts == 4
        assert DEFAULT_RETRY_POLICY.attempts == 3

    def test_retry_policy_validation(self):
        with pytest.raises(ReliabilityError):
            RetryPolicy(retries=-1)
        with pytest.raises(ReliabilityError):
            RetryPolicy(base=0.0)
        with pytest.raises(ReliabilityError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ReliabilityError):
            RetryPolicy().backoff(0)


class TestExecutorDegradation:
    def pool_killer(self):
        # every *pool* attempt dies; the degraded serial re-run is clean
        return plan(shard_fault(probability=1.0, match={"pool": True}))

    def test_degrades_to_serial_and_still_answers(self, monkeypatch):
        allow_retries(monkeypatch, 1)
        metrics = MetricsRegistry()
        tracer = Tracer()
        executor = ShardedExecutor(jobs=2, tracer=tracer, metrics=metrics)
        with fault_plan_active(self.pool_killer(), metrics=metrics):
            assert executor.map(
                "test.reliability_square", [1, 2, 3, 4]
            ) == [1, 4, 9, 16]
        assert executor.degraded
        assert metrics.counters["parallel.degraded"] == 1
        assert tracer.find("reliability.degraded")
        assert "degraded" in repr(executor)

    def test_degradation_is_sticky_across_maps(self, monkeypatch):
        allow_retries(monkeypatch, 0)
        metrics = MetricsRegistry()
        executor = ShardedExecutor(jobs=2, metrics=metrics)
        with fault_plan_active(self.pool_killer(), metrics=metrics):
            executor.map("test.reliability_square", [1, 2, 3])
        assert executor.degraded
        # no plan active any more: the second map still runs serially
        # (and correctly) without touching a pool
        assert executor.map(
            "test.reliability_square", [5, 6]
        ) == [25, 36]
        assert metrics.counters["parallel.degraded"] == 1

    def test_poison_threshold_triggers_early_degradation(self, monkeypatch):
        allow_retries(monkeypatch, 5)
        monkeypatch.setattr(executor_module, "POISON_THRESHOLD", 2)
        metrics = MetricsRegistry()
        executor = ShardedExecutor(jobs=2, metrics=metrics)
        with fault_plan_active(self.pool_killer(), metrics=metrics):
            assert executor.map(
                "test.reliability_square", [1, 2, 3, 4]
            ) == [1, 4, 9, 16]
        assert metrics.counters["parallel.poisoned"] == 1
        assert metrics.counters["parallel.degraded"] == 1


# ---------------------------------------------------------------------------
# artifact store: quarantine + crash window


GUARD = guard_digest(("A", "B"), 4)


class TestStoreQuarantine:
    def test_write_failures_quarantine_the_disk_tier(self, tmp_path):
        metrics = MetricsRegistry()
        store = ArtifactStore(cache_dir=tmp_path, max_disk_failures=2)
        p = plan({"site": "cache.disk_write", "error": "OSError",
                  "probability": 1.0})
        with fault_plan_active(p):
            for n in range(4):
                store.put("agree", f"k{n}", GUARD, [n], metrics=metrics)
        assert store.quarantined and not store.disk_enabled
        assert store.stats["cache.io_error"] == 2  # then the tier is off
        assert store.stats["cache.quarantined"] == 1
        assert metrics.counters["cache.quarantined"] == 1
        assert not list(tmp_path.glob("*.rpc"))
        # the memory tier still answers
        assert store.get("agree", "k0", GUARD) == [0]
        assert "quarantined" in repr(store)

    def test_read_failures_count_but_misses_do_not(self, tmp_path):
        seeder = ArtifactStore(cache_dir=tmp_path)
        seeder.put("agree", "k", GUARD, [1, 2])
        store = ArtifactStore(cache_dir=tmp_path, max_disk_failures=3)
        assert store.get("agree", "absent", GUARD) is None  # plain miss
        assert store.stats["cache.io_error"] == 0
        p = plan({"site": "cache.disk_read", "error": "OSError",
                  "times": 1})
        with fault_plan_active(p):
            assert store.get("agree", "k", GUARD) is None
        assert store.stats["cache.io_error"] == 1
        assert not store.quarantined
        # the fault was transient: the entry is still there
        assert store.get("agree", "k", GUARD) == [1, 2]

    def test_truncated_disk_entry_is_dropped_not_served(self, tmp_path):
        seeder = ArtifactStore(cache_dir=tmp_path)
        seeder.put("agree", "k", GUARD, [1, 2, 3])
        store = ArtifactStore(cache_dir=tmp_path)
        p = plan({"site": "cache.disk_read", "kind": "truncate",
                  "truncate": 6, "times": 1})
        with fault_plan_active(p):
            assert store.get("agree", "k", GUARD) is None
        assert store.stats["cache.disk_corrupt"] == 1
        assert not list(tmp_path.glob("*.rpc"))  # dropped, not kept broken

    def test_crash_window_leaves_no_partial_entry(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        p = plan({"site": "cache.disk_write", "error": "OSError",
                  "times": 1})
        with fault_plan_active(p):
            store.put("agree", "k", GUARD, [9])
        # the crash hit between write and publish: no entry, no temp file
        assert not list(tmp_path.glob("*.rpc"))
        assert not list(tmp_path.glob(".*.tmp"))
        store.put("agree", "k2", GUARD, [10])
        assert list(tmp_path.glob("*.rpc"))

    def test_max_disk_failures_validation(self, tmp_path):
        from repro.errors import CacheError

        with pytest.raises(CacheError):
            ArtifactStore(cache_dir=tmp_path, max_disk_failures=0)


# ---------------------------------------------------------------------------
# storage readers


class TestStorageFaults:
    def test_read_csv_wraps_injected_io_errors(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("A,B\n1,2\n")
        with fault_plan_active(plan({"site": "storage.read",
                                     "error": "OSError"})):
            with pytest.raises(StorageError, match="cannot read"):
                read_csv(path)
        assert len(list(read_csv(path).rows())) == 1

    def test_truncated_read_mid_row_is_detected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("A,B\n1,2\n3,4\n")
        p = plan({"site": "storage.read", "kind": "truncate",
                  "truncate": 9})  # cuts inside the "3,4" row
        with fault_plan_active(p):
            with pytest.raises(StorageError, match="expected 2 fields"):
                read_csv(path)

    def test_write_csv_wraps_injected_io_errors(self, tmp_path):
        table = read_csv_table(tmp_path)
        with fault_plan_active(plan({"site": "storage.write",
                                     "error": "OSError"})):
            with pytest.raises(StorageError, match="cannot write"):
                write_csv(table, tmp_path / "out.csv")

    def test_streaming_wraps_injected_io_errors(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("A,B\n1,2\n1,3\n")
        with fault_plan_active(plan({"site": "partitions.stream",
                                     "error": "OSError"})):
            with pytest.raises(StorageError, match="cannot read"):
                stream_partition_database(path)
        spdb = stream_partition_database(path)
        assert spdb.num_rows == 2

    def test_streaming_truncation_mid_row_is_detected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("A,B\n1,2\n3,4\n")
        p = plan({"site": "partitions.stream", "kind": "truncate",
                  "truncate": 9})
        with fault_plan_active(p):
            with pytest.raises(StorageError, match="expected 2 fields"):
                stream_partition_database(path)


def read_csv_table(tmp_path):
    path = tmp_path / "seed.csv"
    path.write_text("A,B\n1,2\n")
    return read_csv(path)


# ---------------------------------------------------------------------------
# CLI


class TestCliFaultPlan:
    def test_discover_output_matches_the_fault_free_run(
            self, tmp_path, capsys):
        from repro.cli import main

        csv_path = tmp_path / "paper.csv"
        relation_to_csv(paper_example_relation(), csv_path, name="paper")
        plan_path = tmp_path / "chaos.json"
        plan_path.write_text(
            '{"seed": 5, "faults": ['
            '{"site": "parallel.shard", "kind": "error", "error": '
            '"OSError", "probability": 1.0, "match": {"pool": true}},'
            '{"site": "cache.disk_write", "kind": "error", "error": '
            '"OSError", "probability": 1.0}]}'
        )
        assert main(["discover", str(csv_path)]) == 0
        plain = capsys.readouterr().out
        assert main([
            "discover", str(csv_path), "--jobs", "2",
            "--cache-dir", str(tmp_path / "store"),
            "--fault-plan", str(plan_path),
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert "fault plan 'chaos'" in captured.err
        assert current_plan() is None  # deactivated on the way out

    def test_malformed_plan_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        csv_path = tmp_path / "paper.csv"
        relation_to_csv(paper_example_relation(), csv_path, name="paper")
        plan_path = tmp_path / "bad.json"
        plan_path.write_text('{"faults": [{"site": "x", "kind": "nuke"}]}')
        assert main([
            "discover", str(csv_path), "--fault-plan", str(plan_path)
        ]) == 1
        assert "unknown fault kind" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the acceptance sweep: exact answer or typed error, never a wrong cover


def cover(result):
    return sorted((fd.lhs.mask, fd.rhs_index) for fd in result.fds)


SWEEP_PLANS = {
    # transient worker faults, absorbed by per-shard retry
    "transient-shards": [shard_fault(times=2)],
    # every pool attempt dies: degradation to serial must still answer
    "dead-pool": [shard_fault(probability=1.0, match={"pool": True})],
    # a disk that always fails to publish: quarantine, memory-only
    "sick-disk": [{"site": "cache.disk_write", "kind": "error",
                   "error": "OSError", "probability": 1.0}],
    # torn reads of cached artefacts: corrupt entries recompute
    "torn-cache": [{"site": "cache.disk_read", "kind": "truncate",
                    "truncate": 5, "probability": 0.6}],
    # slow shards plus flaky cache reads together
    "mixed": [shard_fault(kind="delay", delay=0.002, probability=0.5),
              {"site": "cache.disk_read", "kind": "error",
               "error": "OSError", "probability": 0.5}],
}


class TestDifferentialFaultSweep:
    relation = generate_relation(5, 36, correlation=0.4, seed=11)
    baseline = cover(DepMiner(jobs=1).run(relation))

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("disk_cache", [False, True])
    @pytest.mark.parametrize("plan_name", sorted(SWEEP_PLANS))
    def test_exact_cover_or_typed_error(self, plan_name, jobs, disk_cache,
                                        tmp_path):
        chaos = FaultPlan.from_dict(
            {"name": plan_name, "seed": 13, "faults": SWEEP_PLANS[plan_name]}
        )
        cache = (
            ArtifactStore(cache_dir=tmp_path / "store") if disk_cache
            else None
        )
        miner = DepMiner(jobs=jobs, cache=cache)
        with fault_plan_active(chaos):
            try:
                result = miner.run(self.relation)
            except ReproError:
                return  # a typed failure is an acceptable outcome
        assert cover(result) == self.baseline

    def test_warm_cache_under_faults_stays_exact(self, tmp_path):
        """A pre-seeded disk cache read through torn-read faults must
        recompute, not serve garbage."""
        store = ArtifactStore(cache_dir=tmp_path / "store")
        DepMiner(jobs=1, cache=store).run(self.relation)  # seed the cache
        chaos = FaultPlan.from_dict({
            "name": "torn-warm", "seed": 3,
            "faults": [{"site": "cache.disk_read", "kind": "truncate",
                        "truncate": 3, "probability": 1.0}],
        })
        cold = ArtifactStore(cache_dir=tmp_path / "store")
        with fault_plan_active(chaos):
            result = DepMiner(jobs=1, cache=cold).run(self.relation)
        assert cover(result) == self.baseline
