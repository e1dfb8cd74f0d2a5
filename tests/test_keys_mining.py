"""Unit tests for instance-level candidate-key discovery."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.core.attributes import Schema
from repro.core.depminer import discover_fds
from repro.core.keys_mining import discover_keys
from repro.core.relation import Relation
from repro.fd.keys import candidate_keys


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
        rng = random.Random(seed)
        width = rng.randint(1, 5)
        schema = Schema.of_width(width)
        relation = Relation.from_rows(
            schema,
            [
                tuple(rng.randint(0, 3) for _ in range(width))
                for _ in range(rng.randint(0, 12))
            ],
        )
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
        for method in ("levelwise", "berge"):
            keys = discover_keys(paper_relation, method=method)
            assert [k.mask for k in keys] == brute_force_keys(paper_relation)

    def test_null_semantics(self):
        schema = Schema.of_width(1)
        relation = Relation.from_rows(schema, [(None,), (None,)])
        assert discover_keys(relation) == []  # duplicates by default
        sql_keys = discover_keys(relation, nulls_equal=False)
        assert [k.compact() for k in sql_keys] == ["A"]
