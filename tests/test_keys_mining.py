"""Unit tests for instance-level candidate-key discovery."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.core.agree_sets import agree_sets
from repro.core.attributes import Schema
from repro.core.depminer import discover_fds
from repro.core.keys_mining import discover_keys, keys_from_agree_sets
from repro.core.relation import Relation
from repro.fd.keys import candidate_keys
from repro.partitions.database import StrippedPartitionDatabase
from tests.oracle import wide_lane_boundary_relation


def brute_force_keys(relation):
    """Oracle: minimal attribute sets that are instance superkeys."""
    schema = relation.schema
    width = len(schema)
    found = []
    for size in range(width + 1):
        for subset in combinations(range(width), size):
            mask = 0
            for attribute in subset:
                mask |= 1 << attribute
            if any(mask & kept == kept for kept in found):
                continue
            if relation.is_superkey(schema.from_mask(mask)):
                found.append(mask)
    return sorted(found)


def brute_force_sql_keys(relation):
    """Oracle under SQL nulls: minimal attribute sets on which no two
    tuples agree, a null agreeing with nothing (not even a null)."""
    rows = list(relation.rows())
    width = len(relation.schema)

    def unique(mask):
        indices = [a for a in range(width) if mask >> a & 1]
        return not any(
            all(left[a] is not None and left[a] == right[a]
                for a in indices)
            for left, right in combinations(rows, 2)
        )

    found = []
    for size in range(width + 1):
        for subset in combinations(range(width), size):
            mask = sum(1 << attribute for attribute in subset)
            if any(mask & kept == kept for kept in found):
                continue
            if unique(mask):
                found.append(mask)
    return sorted(found)


def random_relation(seed, null_value=None):
    """The random relations of the brute-force comparisons; with
    *null_value* set, that value is replaced by ``None``."""
    rng = random.Random(seed)
    width = rng.randint(1, 5)
    rows = [
        tuple(rng.randint(0, 3) for _ in range(width))
        for _ in range(rng.randint(0, 12))
    ]
    if null_value is not None:
        rows = [tuple(None if v == null_value else v for v in row)
                for row in rows]
    return Relation.from_rows(Schema.of_width(width), rows)


def keys_via_agree_sets(relation, nulls_equal=True):
    spdb = StrippedPartitionDatabase.from_relation(
        relation, nulls_equal=nulls_equal
    )
    return [k.mask for k in keys_from_agree_sets(agree_sets(spdb),
                                                 relation.schema)]


class TestDiscoverKeys:
    def test_paper_relation(self, paper_relation):
        keys = discover_keys(paper_relation)
        assert [k.mask for k in keys] == brute_force_keys(paper_relation)

    def test_simple_key_column(self):
        schema = Schema.of_width(3)
        relation = Relation.from_rows(
            schema, [(1, "x", 0), (2, "x", 0), (3, "y", 1)]
        )
        keys = discover_keys(relation)
        assert [k.compact() for k in keys] == ["A"]

    def test_composite_keys(self):
        schema = Schema.of_width(2)
        relation = Relation.from_rows(
            schema, [(1, "x"), (1, "y"), (2, "x"), (2, "y")]
        )
        keys = discover_keys(relation)
        assert [k.compact() for k in keys] == ["AB"]

    def test_duplicate_rows_mean_no_keys(self):
        schema = Schema.of_width(2)
        relation = Relation.from_rows(schema, [(1, "x"), (1, "x")])
        assert discover_keys(relation) == []

    def test_empty_relation_keyed_by_empty_set(self):
        schema = Schema.of_width(2)
        keys = discover_keys(Relation.from_rows(schema, []))
        assert [k.mask for k in keys] == [0]

    def test_single_tuple_keyed_by_empty_set(self):
        schema = Schema.of_width(2)
        keys = discover_keys(Relation.from_rows(schema, [(1, 2)]))
        assert [k.mask for k in keys] == [0]

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_brute_force_on_random_relations(self, seed):
        relation = random_relation(seed)
        assert [k.mask for k in discover_keys(relation)] == \
            brute_force_keys(relation)

    def test_agrees_with_fd_theoretic_keys(self, paper_relation):
        """Instance keys == candidate keys of the mined FD cover
        (whenever the relation has no duplicate tuples)."""
        mined = discover_fds(paper_relation)
        theoretic = candidate_keys(mined, paper_relation.schema)
        assert sorted(k.mask for k in discover_keys(paper_relation)) == \
            sorted(k.mask for k in theoretic)

    def test_method_dispatch(self, paper_relation):
        for method in ("levelwise", "berge", "kernel"):
            keys = discover_keys(paper_relation, method=method)
            assert [k.mask for k in keys] == brute_force_keys(paper_relation)

    def test_null_semantics(self):
        schema = Schema.of_width(1)
        relation = Relation.from_rows(schema, [(None,), (None,)])
        assert discover_keys(relation) == []  # duplicates by default
        sql_keys = discover_keys(relation, nulls_equal=False)
        assert [k.compact() for k in sql_keys] == ["A"]


class TestKeysFromAgreeSets:
    """Keys straight from ``ag(r)``: what a serve session holds."""

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_brute_force_on_random_relations(self, seed):
        relation = random_relation(seed)
        assert keys_via_agree_sets(relation) == brute_force_keys(relation)

    @pytest.mark.parametrize("seed", range(15))
    def test_sql_nulls_match_brute_force(self, seed):
        relation = random_relation(seed, null_value=3)
        assert keys_via_agree_sets(relation, nulls_equal=False) == \
            brute_force_sql_keys(relation)
        assert keys_via_agree_sets(relation) == brute_force_keys(relation)

    def test_duplicate_rows_mean_no_keys(self):
        schema = Schema.of_width(3)
        relation = Relation.from_rows(schema, [(1, "x", 0), (2, "y", 1),
                                               (1, "x", 0)])
        assert keys_via_agree_sets(relation) == []
        # the universe as an agree set is all it takes
        assert keys_from_agree_sets({0b001, 0b111}, schema) == []

    @pytest.mark.parametrize("rows", [[], [(1, 2)]],
                             ids=["empty", "single-tuple"])
    def test_no_couples_keyed_by_empty_set(self, rows):
        relation = Relation.from_rows(Schema.of_width(2), rows)
        for nulls_equal in (True, False):
            assert keys_via_agree_sets(relation, nulls_equal) == [0]

    def test_lane_boundary_relation_matches_levelwise(self):
        relation = wide_lane_boundary_relation()
        keys = [k.mask for k in keys_from_agree_sets(
            agree_sets(StrippedPartitionDatabase.from_relation(relation)),
            relation.schema,
        )]
        assert keys == [k.mask for k in discover_keys(relation,
                                                      method="levelwise")]
        assert any(mask >> 63 for mask in keys)
