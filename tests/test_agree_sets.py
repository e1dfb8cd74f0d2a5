"""Unit tests for the three agree-set algorithms."""

from __future__ import annotations

import pytest

from repro.core.agree_sets import (
    agree_sets,
    agree_sets_from_couples,
    agree_sets_from_identifiers,
    naive_agree_sets,
)
from repro.core.attributes import Schema
from repro.core.relation import Relation
from repro.errors import ReproError
from repro.partitions.database import StrippedPartitionDatabase


def spdb_of(relation):
    return StrippedPartitionDatabase.from_relation(relation)


def all_three(relation):
    spdb = spdb_of(relation)
    return (
        naive_agree_sets(relation),
        agree_sets_from_couples(spdb),
        agree_sets_from_identifiers(spdb),
    )


class TestEquivalenceOfAlgorithms:
    def test_pairwise_distinct_rows(self):
        schema = Schema.of_width(3)
        relation = Relation.from_rows(
            schema, [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
        )
        naive, couples, identifiers = all_three(relation)
        assert naive == couples == identifiers == {0}

    def test_mixed_structure(self):
        schema = Schema.of_width(3)
        relation = Relation.from_rows(
            schema,
            [(1, "x", 0), (1, "y", 0), (2, "x", 0), (2, "y", 1)],
        )
        naive, couples, identifiers = all_three(relation)
        assert naive == couples == identifiers
        # Pair-by-pair: (0,1)->AC, (0,2)->BC, (0,3)->∅, (1,2)->C,
        # (1,3)->B, (2,3)->A.
        assert naive == {0b101, 0b110, 0, 0b100, 0b010, 0b001}

    def test_duplicate_rows_full_agree_set(self):
        schema = Schema.of_width(2)
        relation = Relation.from_rows(schema, [(1, 2), (1, 2)])
        naive, couples, identifiers = all_three(relation)
        assert naive == couples == identifiers == {0b11}


class TestEmptyAgreeSetDetection:
    def test_empty_present_when_some_pair_disagrees_everywhere(self):
        schema = Schema.of_width(2)
        relation = Relation.from_rows(schema, [(1, 1), (1, 2), (9, 9)])
        for result in all_three(relation):
            assert 0 in result

    def test_empty_absent_when_every_pair_agrees_somewhere(self):
        schema = Schema.of_width(2)
        relation = Relation.from_rows(schema, [(1, 1), (1, 2), (1, 3)])
        # Every pair agrees on A, so no pair disagrees everywhere.
        for result in all_three(relation):
            assert 0 not in result

    def test_single_row_relation_has_no_agree_sets(self):
        schema = Schema.of_width(2)
        relation = Relation.from_rows(schema, [(1, 2)])
        for result in all_three(relation):
            assert result == set()

    def test_empty_relation(self):
        schema = Schema.of_width(2)
        relation = Relation.from_rows(schema, [])
        for result in all_three(relation):
            assert result == set()


class TestChunking:
    @pytest.mark.parametrize("max_couples", [1, 2, 3, 7, 1000])
    def test_chunked_runs_match_unchunked(self, max_couples, paper_relation):
        spdb = spdb_of(paper_relation)
        full = agree_sets_from_couples(spdb)
        chunked = agree_sets_from_couples(spdb, max_couples=max_couples)
        assert chunked == full

    def test_rejects_nonpositive_threshold(self, paper_relation):
        spdb = spdb_of(paper_relation)
        with pytest.raises(ReproError, match="positive"):
            agree_sets_from_couples(spdb, max_couples=0)


class TestDispatcher:
    def test_named_algorithms(self, paper_relation):
        spdb = spdb_of(paper_relation)
        assert agree_sets(spdb, "couples") == agree_sets(spdb, "identifiers")

    def test_unknown_name(self, paper_relation):
        spdb = spdb_of(paper_relation)
        with pytest.raises(ReproError, match="unknown agree-set algorithm"):
            agree_sets(spdb, "nope")

    def test_max_couples_rejected_for_identifiers(self, paper_relation):
        spdb = spdb_of(paper_relation)
        with pytest.raises(ReproError, match="max_couples"):
            agree_sets(spdb, "identifiers", max_couples=10)

    def test_max_couples_forwarded_for_couples(self, paper_relation):
        spdb = spdb_of(paper_relation)
        assert agree_sets(spdb, "couples", max_couples=2) == agree_sets(
            spdb, "couples"
        )


class TestOverlappingMaximalClasses:
    def test_couple_deduplication_across_classes(self):
        # Two attributes produce overlapping maximal classes sharing a
        # couple; the couple must be resolved exactly once and the agree
        # sets stay correct.
        schema = Schema.of_width(3)
        relation = Relation.from_rows(
            schema,
            [
                (1, "p", 0),
                (1, "p", 1),
                (1, "q", 0),
                (2, "q", 1),
            ],
        )
        naive, couples, identifiers = all_three(relation)
        assert naive == couples == identifiers

    def test_empty_detection_counts_distinct_couples_across_chunks(self):
        # Regression: the couple (0, 1) lives in two overlapping maximal
        # classes (A's {0,1,2} and B's {0,1,3}).  Counting per-chunk
        # visits instead of distinct couples would tally 6 = C(4,2) and
        # mask the empty agree set of the fully-disagreeing pair (2, 3).
        schema = Schema(["A", "B", "C"])
        relation = Relation.from_rows(
            schema,
            [
                ("x", "u", "p"),
                ("x", "u", "q"),
                ("x", "v", "r"),
                ("y", "u", "s"),
            ],
        )
        spdb = spdb_of(relation)
        expected = naive_agree_sets(relation)
        assert 0 in expected
        # One couple per chunk: every chunk boundary is exercised.
        for max_couples in (1, 2, 3, None):
            stats = {}
            result = agree_sets_from_couples(
                spdb, max_couples=max_couples, stats=stats
            )
            assert result == expected
            assert stats["num_couples"] == 5

    def test_distinct_couple_enumeration_is_deduplicated(self):
        from repro.core.agree_sets import iter_distinct_couples

        schema = Schema(["A", "B", "C"])
        relation = Relation.from_rows(
            schema,
            [
                ("x", "u", "p"),
                ("x", "u", "q"),
                ("x", "v", "r"),
                ("y", "u", "s"),
            ],
        )
        couples = list(iter_distinct_couples(spdb_of(relation)))
        assert len(couples) == len(set(couples)) == 5


def columnar_agree(relation):
    """``ag(r)`` through the columnar backend's vectorized agree step."""
    from repro.columnar.agree import columnar_agree_sets
    from repro.columnar.encode import encode_relation
    from repro.columnar.grouping import class_matrix

    return columnar_agree_sets(class_matrix(encode_relation(relation)))


class TestVectorized:
    """The vectorized agree step is the columnar backend's
    (``columnar_agree_sets``, the distinct-partition sweep); the
    row-wise dispatcher offers only the paper's two algorithms."""

    def test_dispatcher_rejects_vectorized(self, paper_relation):
        spdb = spdb_of(paper_relation)
        with pytest.raises(ReproError, match="unknown agree-set algorithm"):
            agree_sets(spdb, "vectorized")

    def test_matches_naive_on_structured_data(self):
        schema = Schema.of_width(3)
        relation = Relation.from_rows(
            schema,
            [(1, "p", 0), (1, "p", 1), (1, "q", 0), (2, "q", 1)],
        )
        assert columnar_agree(relation) == naive_agree_sets(relation)

    def test_wide_schema_multi_lane(self):
        import random

        rng = random.Random(0)
        schema = Schema.of_width(70)
        relation = Relation.from_rows(
            schema,
            [
                tuple(rng.randint(0, 1) for _ in range(70))
                for _ in range(10)
            ],
        )
        assert columnar_agree(relation) == naive_agree_sets(relation)

    def test_empty_and_single_row(self):
        schema = Schema.of_width(2)
        for rows in ([], [(1, 2)]):
            relation = Relation.from_rows(schema, rows)
            assert columnar_agree(relation) == set()

    def test_empty_agree_set_detected(self):
        schema = Schema.of_width(2)
        relation = Relation.from_rows(schema, [(1, 1), (1, 2), (9, 9)])
        assert 0 in columnar_agree(relation)

    def test_max_couples_rejected(self):
        from repro.core.depminer import DepMiner

        with pytest.raises(ReproError, match="max_couples"):
            DepMiner(backend="columnar", max_couples=5)

    def test_depminer_option(self, paper_relation):
        from repro.core.depminer import DepMiner, discover_fds

        fast = DepMiner(
            build_armstrong="none", backend="columnar"
        ).run(paper_relation)
        assert fast.fds == discover_fds(paper_relation)
        assert fast.stats["num_couples"] == 6
