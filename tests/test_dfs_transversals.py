"""Unit tests for the FastFDs-style DFS transversal search (a test oracle)."""

from __future__ import annotations

import random

import pytest

from repro.errors import ReproError
from repro.hypergraph.hypergraph import minimize_sets
from repro.hypergraph.transversals import (
    minimal_transversals,
    minimal_transversals_levelwise,
)
from tests.dfs import minimal_transversals_dfs


class TestDfs:
    def test_no_edges(self):
        assert minimal_transversals_dfs([], 4) == [0]

    def test_single_edge(self):
        assert minimal_transversals_dfs([0b110], 3) == [0b010, 0b100]

    def test_paper_example_attribute_A(self):
        ac, abd = 0b00101, 0b01011
        a, bc, cd = 0b00001, 0b00110, 0b01100
        assert minimal_transversals_dfs([ac, abd], 5) == sorted([a, bc, cd])

    def test_rejects_empty_edge(self):
        with pytest.raises(ReproError):
            minimal_transversals_dfs([0b1, 0], 2)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_levelwise_on_random_hypergraphs(self, seed):
        rng = random.Random(seed)
        num_vertices = rng.randint(1, 8)
        universe = (1 << num_vertices) - 1
        edges = minimize_sets(
            rng.randint(1, universe) for _ in range(rng.randint(0, 7))
        )
        assert minimal_transversals_dfs(edges, num_vertices) == \
            minimal_transversals_levelwise(edges, num_vertices)

    def test_not_offered_by_dispatcher(self):
        with pytest.raises(ReproError, match="unknown transversal method"):
            minimal_transversals([0b011, 0b101], 3, method="dfs")


class TestDfsInDepMiner:
    def test_full_pipeline_with_dfs_method(self, paper_relation):
        from repro.core.depminer import DepMiner

        levelwise = DepMiner(transversal_algorithm="levelwise").run(
            paper_relation
        )
        width = len(paper_relation.schema)
        dfs = {
            attribute: minimal_transversals_dfs(edges, width)
            for attribute, edges in levelwise.cmax_sets.items()
        }
        assert dfs == levelwise.lhs_sets
