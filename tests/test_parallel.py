"""The sharded execution layer: executor semantics + differential suite.

Two halves:

1. Unit tests of :class:`~repro.parallel.ShardedExecutor` — serial
   fallback, result ordering, bounded in-flight window, worker failure,
   per-shard timeout, cancellation through the progress channel, and
   the observability relay (synthetic spans + merged counters).
2. Differential tests pinning the determinism guarantee: ``jobs=1`` and
   ``jobs ∈ {2, 3, 4}`` produce identical FD covers, agree sets, cmax
   sets and Armstrong sizes on the paper's running example, every
   bundled dataset, seeded random relations, and the ``∅ ∈ ag(r)``
   fully-disagreeing-pair edge case — including the chunk-boundary
   couple-deduplication regression.
"""

from __future__ import annotations

import time

import pytest

from repro.core.attributes import Schema
from repro.core.depminer import DepMiner
from repro.core.relation import Relation
from repro.datagen.synthetic import generate_relation
from repro.datasets import (
    course_schedule_relation,
    paper_example_relation,
    supplier_parts_relation,
)
from repro.errors import ReproError
from repro.obs import MetricsRegistry, ProgressAborted, Tracer
from repro.parallel import (
    ShardedExecutor,
    ShardError,
    ShardTimeoutError,
    parallel_agree_sets,
    parallel_cmax_lhs,
    register_shard_kind,
    resolve_jobs,
)
from repro.partitions.database import StrippedPartitionDatabase

JOBS_GRID = (2, 3, 4)


# Test-only shard kinds (module-level: fork workers inherit the registry).

@register_shard_kind("test.square")
def _square_shard(shared, payload, metrics):
    metrics.inc("test.squared")
    metrics.observe("test.payload_size", payload)
    offset = shared["offset"] if shared else 0
    return payload * payload + offset


@register_shard_kind("test.sleep")
def _sleep_shard(shared, payload, metrics):
    time.sleep(payload)
    return payload


@register_shard_kind("test.fail")
def _fail_shard(shared, payload, metrics):
    raise ValueError(f"shard {payload} exploded")


class TestResolveJobs:
    def test_one_is_one(self):
        assert resolve_jobs(1) == 1

    def test_none_and_zero_mean_all_cores(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            resolve_jobs(-2)


class TestShardedExecutorSerial:
    def test_map_preserves_payload_order(self):
        executor = ShardedExecutor(jobs=1)
        assert executor.map("test.square", [3, 1, 2]) == [9, 1, 4]

    def test_shared_context_reaches_the_shard(self):
        executor = ShardedExecutor(jobs=1)
        assert executor.map(
            "test.square", [2], shared={"offset": 10}
        ) == [14]

    def test_empty_map(self):
        assert ShardedExecutor(jobs=1).map("test.square", []) == []

    def test_serial_errors_propagate_unwrapped(self):
        with pytest.raises(ValueError, match="exploded"):
            ShardedExecutor(jobs=1).map("test.fail", [0])

    def test_unknown_kind(self):
        with pytest.raises(ReproError, match="unknown shard kind"):
            ShardedExecutor(jobs=1).map("test.no-such-kind", [1])

    def test_counters_merge_and_spans_record(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        executor = ShardedExecutor(jobs=1, tracer=tracer, metrics=metrics)
        executor.map("test.square", [1, 2, 3])
        assert metrics.counters["test.squared"] == 3
        assert len(tracer.find("parallel.shard")) == 3
        histogram = metrics.histograms["test.payload_size"]
        assert (histogram.count, histogram.min, histogram.max) == (3, 1, 3)

    def test_progress_abort_cancels(self):
        executor = ShardedExecutor(
            jobs=1, progress=lambda stage, done, total: False
        )
        with pytest.raises(ProgressAborted):
            executor.map("test.square", [1, 2, 3])


class TestShardedExecutorPool:
    def test_results_come_back_in_payload_order(self):
        executor = ShardedExecutor(jobs=2)
        assert executor.map("test.square", list(range(8))) == [
            n * n for n in range(8)
        ]

    def test_shared_context_ships_once_per_worker(self):
        executor = ShardedExecutor(jobs=2)
        assert executor.map(
            "test.square", [1, 2, 3], shared={"offset": 100}
        ) == [101, 104, 109]

    def test_bounded_window(self):
        executor = ShardedExecutor(jobs=2, max_pending=1)
        assert executor.map("test.square", list(range(6))) == [
            n * n for n in range(6)
        ]

    def test_worker_failure_raises_shard_error_with_traceback(self):
        executor = ShardedExecutor(jobs=2)
        with pytest.raises(ShardError, match="exploded"):
            executor.map("test.fail", [0, 1, 2])

    def test_per_shard_timeout(self):
        executor = ShardedExecutor(jobs=2, shard_timeout=0.2)
        with pytest.raises(ShardTimeoutError):
            executor.map("test.sleep", [30.0, 30.0])

    def test_progress_abort_terminates_the_pool(self):
        executor = ShardedExecutor(
            jobs=2, progress=lambda stage, done, total: False
        )
        with pytest.raises(ProgressAborted):
            executor.map("test.square", [1, 2, 3, 4])

    def test_counters_and_spans_flow_back_from_workers(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        executor = ShardedExecutor(jobs=2, tracer=tracer, metrics=metrics)
        executor.map("test.square", [1, 2, 3, 4])
        assert metrics.counters["test.squared"] == 4
        spans = tracer.find("parallel.shard")
        assert len(spans) == 4
        assert all(span.attrs["kind"] == "test.square" for span in spans)
        assert all(span.duration >= 0 for span in spans)

    def test_histograms_flow_back_from_workers(self):
        metrics = MetricsRegistry()
        executor = ShardedExecutor(jobs=2, metrics=metrics)
        executor.map("test.square", [5, 1, 3])
        histogram = metrics.histograms["test.payload_size"]
        assert (histogram.count, histogram.total) == (3, 9)
        assert (histogram.min, histogram.max) == (1, 5)

    def test_invalid_parameters(self):
        with pytest.raises(ReproError):
            ShardedExecutor(jobs=2, shard_timeout=0)
        with pytest.raises(ReproError):
            ShardedExecutor(jobs=2, max_pending=0)


# -- differential: jobs=1 vs jobs>1 on the full pipeline ---------------------


def canonical_cover(fds):
    return sorted((fd.lhs.mask, fd.rhs_index) for fd in fds)


def assert_identical_results(relation: Relation, jobs: int,
                             **miner_options) -> None:
    serial = DepMiner(jobs=1, **miner_options).run(relation)
    sharded = DepMiner(jobs=jobs, **miner_options).run(relation)
    assert sharded.agree_sets == serial.agree_sets
    assert sharded.max_sets == serial.max_sets
    assert sharded.cmax_sets == serial.cmax_sets
    assert sharded.lhs_sets == serial.lhs_sets
    assert canonical_cover(sharded.fds) == canonical_cover(serial.fds)
    assert sharded.max_union == serial.max_union
    assert sharded.armstrong_size == serial.armstrong_size
    if serial.armstrong is not None:
        assert list(sharded.armstrong.rows()) == list(serial.armstrong.rows())


BUNDLED = {
    "paper_example": paper_example_relation,
    "course_schedule": course_schedule_relation,
    "supplier_parts": supplier_parts_relation,
}


class TestDifferentialJobs:
    @pytest.mark.parametrize("jobs", JOBS_GRID)
    @pytest.mark.parametrize("dataset", sorted(BUNDLED))
    def test_bundled_datasets(self, dataset, jobs):
        assert_identical_results(BUNDLED[dataset](), jobs)

    @pytest.mark.parametrize("jobs", JOBS_GRID)
    @pytest.mark.parametrize("algorithm", ["couples", "identifiers"])
    def test_every_agree_algorithm(self, algorithm, jobs):
        assert_identical_results(
            paper_example_relation(), jobs, agree_algorithm=algorithm
        )

    @pytest.mark.parametrize("jobs", JOBS_GRID)
    def test_couples_with_chunking(self, jobs):
        assert_identical_results(
            paper_example_relation(), jobs, max_couples=2
        )

    @pytest.mark.parametrize("jobs", JOBS_GRID)
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_random_relations(self, seed, jobs):
        relation = generate_relation(
            5 + seed % 3, 40 + 10 * seed,
            correlation=(None, 0.3, 0.5, 0.7)[seed % 4], seed=seed,
        )
        assert_identical_results(relation, jobs)

    @pytest.mark.parametrize("jobs", JOBS_GRID)
    def test_transversal_methods(self, jobs):
        for method in ("levelwise", "berge"):
            assert_identical_results(
                paper_example_relation(), jobs, transversal_algorithm=method,
                build_armstrong="none",
            )

    def test_max_lhs_size_cap(self):
        assert_identical_results(
            paper_example_relation(), 2, max_lhs_size=1,
            build_armstrong="none",
        )

    def test_jobs_recorded_in_phase_spans(self):
        tracer = Tracer()
        DepMiner(jobs=2, tracer=tracer).run(paper_example_relation())
        agree_span = tracer.find("agree_sets")[0]
        assert agree_span.attrs["jobs"] == 2
        assert tracer.find("parallel.shard")


class TestEmptyAgreeSetEdgeCase:
    """``∅ ∈ ag(r)``: a pair of tuples disagreeing on every attribute."""

    @staticmethod
    def fully_disagreeing_relation() -> Relation:
        schema = Schema(["A", "B", "C"])
        # Rows 2 and 3 share no value on any attribute, so the couple
        # (2, 3) never appears in any stripped class: ∅ ∈ ag(r).
        return Relation.from_rows(schema, [
            ("x", "u", "p"),
            ("x", "u", "q"),
            ("x", "v", "r"),
            ("y", "u", "s"),
        ])

    def test_serial_baseline_has_the_empty_agree_set(self):
        result = DepMiner(jobs=1).run(self.fully_disagreeing_relation())
        assert 0 in result.agree_sets

    @pytest.mark.parametrize("jobs", JOBS_GRID)
    @pytest.mark.parametrize("algorithm", ["couples", "identifiers"])
    def test_sharded_runs_detect_it_too(self, algorithm, jobs):
        relation = self.fully_disagreeing_relation()
        assert_identical_results(relation, jobs, agree_algorithm=algorithm)
        result = DepMiner(jobs=jobs, agree_algorithm=algorithm).run(relation)
        assert 0 in result.agree_sets

    @pytest.mark.parametrize("jobs", JOBS_GRID)
    def test_single_couple_chunks_cross_shard_boundaries(self, jobs):
        """The chunk-boundary regression, sharded: the couple (0, 1)
        lives in two overlapping maximal classes; with one couple per
        chunk a per-shard count would double-count it (6 = C(4,2))
        and mask ∅.  The distinct count must stay 5."""
        relation = self.fully_disagreeing_relation()
        spdb = StrippedPartitionDatabase.from_relation(relation)
        executor = ShardedExecutor(jobs=jobs)
        stats = {}
        agree = parallel_agree_sets(
            spdb, executor, max_couples=1, stats=stats
        )
        assert stats["num_couples"] == 5
        assert stats["num_chunks"] == 5
        assert 0 in agree
        serial = DepMiner(jobs=1).run(relation)
        assert agree == serial.agree_sets


class TestParallelOrchestrators:
    def test_parallel_agree_rejects_unknown_algorithm(self):
        spdb = StrippedPartitionDatabase.from_relation(
            paper_example_relation()
        )
        with pytest.raises(ReproError, match="vectorized"):
            parallel_agree_sets(
                spdb, ShardedExecutor(jobs=2), algorithm="vectorized"
            )

    def test_parallel_agree_rejects_max_couples_for_identifiers(self):
        spdb = StrippedPartitionDatabase.from_relation(
            paper_example_relation()
        )
        with pytest.raises(ReproError, match="max_couples"):
            parallel_agree_sets(
                spdb, ShardedExecutor(jobs=2), algorithm="identifiers",
                max_couples=8,
            )

    def test_parallel_cmax_lhs_rejects_max_size_off_levelwise(self):
        relation = paper_example_relation()
        with pytest.raises(ReproError, match="levelwise"):
            parallel_cmax_lhs(
                [], relation.schema, ShardedExecutor(jobs=2),
                method="berge", max_size=2,
            )

    def test_cmax_lhs_matches_the_serial_phases(self):
        from repro.core.agree_sets import agree_sets_from_couples
        from repro.core.lhs import left_hand_sides
        from repro.core.maximal_sets import (
            complement_maximal_sets,
            maximal_sets,
        )

        def counters(metrics):
            return {
                name: value
                for name, value in metrics.snapshot()["counters"].items()
                if not name.startswith("parallel.")
            }

        relation = course_schedule_relation()
        schema = relation.schema
        spdb = StrippedPartitionDatabase.from_relation(relation)
        agree = agree_sets_from_couples(spdb)
        expected_max = maximal_sets(agree, schema)
        expected_cmax = complement_maximal_sets(expected_max, schema)
        # Every method: the same families and the same search counters
        # on the serial and the sharded tail.
        for method in ("kernel", "levelwise", "berge"):
            serial_metrics = MetricsRegistry()
            expected_lhs = left_hand_sides(expected_cmax, schema,
                                           method=method,
                                           metrics=serial_metrics)
            for jobs in (1,) + JOBS_GRID:
                metrics = MetricsRegistry()
                executor = ShardedExecutor(jobs=jobs, metrics=metrics)
                try:
                    max_sets, cmax, lhs = parallel_cmax_lhs(
                        sorted(agree), schema, executor, method=method
                    )
                finally:
                    executor.close()
                assert max_sets == expected_max
                assert cmax == expected_cmax
                assert lhs == expected_lhs, (method, jobs)
                assert counters(metrics) == counters(serial_metrics), \
                    (method, jobs)


class TestCliJobs:
    def test_discover_jobs_output_is_byte_identical(self, tmp_path, capsys):
        from repro.cli import main
        from repro.storage.csv_io import relation_to_csv

        path = tmp_path / "paper.csv"
        relation_to_csv(paper_example_relation(), str(path), name="paper")
        outputs = {}
        for jobs in (1, 2, 4):
            assert main(["discover", str(path), "--jobs", str(jobs)]) == 0
            outputs[jobs] = capsys.readouterr().out
        assert outputs[1] == outputs[2] == outputs[4]
        assert outputs[1].count("->") == 14
