"""Unit tests for the Dep-Miner orchestrator."""

from __future__ import annotations

import re

import pytest

from repro.columnar import numpy_available
from repro.core.attributes import Schema
from repro.core.depminer import DepMiner, discover, discover_fds
from repro.core.relation import Relation
from repro.errors import ArmstrongExistenceError, ReproError
from repro.partitions.database import StrippedPartitionDatabase


needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="columnar backend needs NumPy"
)

#: ``(DepMiner keywords, error fragment)``: every option a backend
#: cannot honour is rejected by the constructor, before any work runs.
BAD_OPTIONS = [
    pytest.param({"backend": "columnar", "agree_algorithm": "bogus"},
                 "unknown agree-set algorithm", id="columnar-unknown-agree",
                 marks=needs_numpy),
    pytest.param({"backend": "columnar", "agree_algorithm": "identifiers"},
                 "agree_algorithm='couples'", id="columnar-identifiers",
                 marks=needs_numpy),
    pytest.param({"backend": "columnar", "max_couples": 1},
                 "max_couples", id="columnar-max-couples",
                 marks=needs_numpy),
    pytest.param({"agree_algorithm": "wrong"},
                 "unknown agree-set algorithm", id="unknown-agree"),
    pytest.param({"transversal_algorithm": "wrong"},
                 "unknown transversal method", id="unknown-transversal"),
    pytest.param({"max_couples": 0},
                 "max_couples must be a positive integer",
                 id="max-couples-zero"),
    pytest.param({"agree_algorithm": "identifiers", "max_couples": 10},
                 "only applies to the 'couples' algorithm",
                 id="max-couples-identifiers"),
    pytest.param({"max_lhs_size": 0},
                 "max_size must be a positive integer", id="max-lhs-zero"),
    pytest.param({"transversal_algorithm": "berge", "max_lhs_size": 2},
                 "only supported by the levelwise", id="max-lhs-berge"),
    pytest.param({"jobs": 2, "shard_timeout": 0},
                 "shard_timeout must be positive", id="shard-timeout-zero"),
    pytest.param({"shard_timeout": -1},
                 "shard_timeout must be positive",
                 id="shard-timeout-negative-serial"),
]


class TestConfiguration:
    def test_rejects_unknown_armstrong_mode(self):
        with pytest.raises(ReproError, match="build_armstrong"):
            DepMiner(build_armstrong="maybe")

    @pytest.mark.parametrize("options,message", BAD_OPTIONS)
    def test_rejects_bad_option_at_construction(self, options, message):
        with pytest.raises(ReproError, match=re.escape(message)):
            DepMiner(**options)


class TestResultContents:
    def test_phase_timings_cover_the_pipeline(self, paper_relation):
        result = DepMiner().run(paper_relation)
        assert set(result.phase_seconds) == {
            "strip", "agree_sets", "cmax", "lhs", "fd_output", "armstrong",
        }
        assert result.total_seconds >= 0
        assert result.num_rows == 7

    def test_views_are_keyed_by_attribute_name(self, paper_relation):
        result = DepMiner().run(paper_relation)
        assert set(result.max_sets_view()) == set("ABCDE")
        assert set(result.cmax_sets_view()) == set("ABCDE")
        assert set(result.lhs_view()) == set("ABCDE")
        compacts = [s.compact() for s in result.agree_sets_view()]
        assert "BDE" in compacts

    def test_summary_mentions_key_counts(self, paper_relation):
        result = DepMiner().run(paper_relation)
        summary = result.summary()
        assert "minimal FDs: 14" in summary
        assert "Armstrong relation: 4 tuples" in summary


class TestArmstrongModes:
    def test_none_skips_both_constructions(self, paper_relation):
        result = DepMiner(build_armstrong="none").run(paper_relation)
        assert result.armstrong is None
        assert result.classical_armstrong is None
        assert result.armstrong_size is None

    def test_classical_only(self, paper_relation):
        result = DepMiner(build_armstrong="classical").run(paper_relation)
        assert result.armstrong is None
        assert result.classical_armstrong is not None
        assert len(result.classical_armstrong) == len(result.max_union) + 1

    def test_real_world_falls_back_silently(self):
        # A has too few distinct values; default mode keeps classical only.
        schema = Schema.of_width(3)
        relation = Relation.from_rows(
            schema, [(0, 0, 0), (1, 0, 1), (1, 1, 0)]
        )
        result = DepMiner().run(relation)
        assert result.armstrong is None
        assert result.classical_armstrong is not None

    def test_strict_raises_when_no_real_world_exists(self):
        schema = Schema.of_width(3)
        relation = Relation.from_rows(
            schema, [(0, 0, 0), (1, 0, 1), (1, 1, 0)]
        )
        with pytest.raises(ArmstrongExistenceError) as info:
            DepMiner(build_armstrong="strict").run(relation)
        assert info.value.failing_attributes

    def test_strict_succeeds_when_possible(self, paper_relation):
        result = DepMiner(build_armstrong="strict").run(paper_relation)
        assert result.armstrong is not None

    def test_armstrong_build_child_spans(self, paper_relation):
        from repro.obs import Tracer

        deficient = Relation.from_rows(
            Schema.of_width(3), [(0, 0, 0), (1, 0, 1), (1, 1, 0)]
        )
        for relation, expected in ((paper_relation,
                                    ["classical", "real-world"]),
                                   (deficient, ["classical"])):
            tracer = Tracer()
            DepMiner(tracer=tracer).run(relation)
            builds = tracer.find("armstrong.build")
            assert [span.attrs["construction"] for span in builds] == \
                expected
            (armstrong,) = tracer.find("armstrong")
            assert all(span.parent_id == armstrong.span_id
                       for span in builds)


class TestRunOnPartitions:
    def test_without_relation_degrades_to_classical(self, paper_relation):
        spdb = StrippedPartitionDatabase.from_relation(paper_relation)
        result = DepMiner().run_on_partitions(spdb)
        assert result.armstrong is None
        assert result.classical_armstrong is not None
        assert len(result.fds) == 14

    def test_strict_without_relation_raises(self, paper_relation):
        spdb = StrippedPartitionDatabase.from_relation(paper_relation)
        miner = DepMiner(build_armstrong="strict")
        with pytest.raises(ReproError, match="initial relation"):
            miner.run_on_partitions(spdb)

    def test_with_relation_matches_run(self, paper_relation):
        spdb = StrippedPartitionDatabase.from_relation(paper_relation)
        via_partitions = DepMiner().run_on_partitions(
            spdb, relation=paper_relation
        )
        via_run = DepMiner().run(paper_relation)
        assert via_partitions.fds == via_run.fds
        assert via_partitions.armstrong == via_run.armstrong


class TestConvenienceWrappers:
    def test_discover_forwards_options(self, paper_relation):
        result = discover(paper_relation, agree_algorithm="identifiers")
        assert len(result.fds) == 14

    def test_discover_fds_skips_armstrong(self, paper_relation):
        fds = discover_fds(paper_relation)
        assert len(fds) == 14

    def test_discover_fds_honours_explicit_armstrong(self, paper_relation):
        fds = discover_fds(paper_relation, build_armstrong="classical")
        assert len(fds) == 14


class TestDegenerateRelations:
    def test_empty_relation_all_constant_fds(self):
        schema = Schema.of_width(3)
        relation = Relation.from_rows(schema, [])
        result = DepMiner().run(relation)
        assert {str(fd) for fd in result.fds} == {
            "∅ -> A", "∅ -> B", "∅ -> C",
        }
        assert result.max_union == []
        assert len(result.classical_armstrong) == 1

    def test_single_tuple_relation(self):
        schema = Schema.of_width(2)
        relation = Relation.from_rows(schema, [(1, 2)])
        result = DepMiner().run(relation)
        assert {str(fd) for fd in result.fds} == {"∅ -> A", "∅ -> B"}

    def test_single_attribute_relation(self):
        schema = Schema.of_width(1)
        relation = Relation.from_rows(schema, [(1,), (2,), (1,)])
        result = DepMiner().run(relation)
        # Only trivial A -> A exists, which is filtered: no FDs.
        assert result.fds == []

    def test_two_fully_disagreeing_tuples(self):
        schema = Schema.of_width(2)
        relation = Relation.from_rows(schema, [(1, "x"), (2, "y")])
        result = DepMiner().run(relation)
        # Every singleton determines everything (each column is a key).
        assert {str(fd) for fd in result.fds} == {
            "B -> A", "A -> B",
        }

    def test_duplicate_rows_only(self):
        schema = Schema.of_width(2)
        relation = Relation.from_rows(schema, [(1, "x"), (1, "x")])
        result = DepMiner().run(relation)
        # Both columns constant.
        assert {str(fd) for fd in result.fds} == {"∅ -> A", "∅ -> B"}
