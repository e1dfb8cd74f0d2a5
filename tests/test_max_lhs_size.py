"""Unit tests for the lhs-size cap (wide-schema mitigation)."""

from __future__ import annotations

import time

import pytest

from repro.core.depminer import DepMiner, discover_fds
from repro.datagen.synthetic import generate_relation
from repro.errors import ReproError
from repro.hypergraph.transversals import minimal_transversals_levelwise


class TestTransversalCap:
    def test_cap_returns_the_small_transversals_only(self):
        # Edges over 4 vertices with transversals of sizes 1 and 2.
        edges = [0b0011, 0b0101, 0b1001]
        full = minimal_transversals_levelwise(edges, 4)
        capped = minimal_transversals_levelwise(edges, 4, max_size=1)
        assert capped == [t for t in full if bin(t).count("1") <= 1]
        assert capped == [0b0001]

    def test_cap_equal_to_max_size_is_complete(self):
        edges = [0b0011, 0b1100]
        full = minimal_transversals_levelwise(edges, 4)
        assert minimal_transversals_levelwise(edges, 4, max_size=2) == full

    def test_invalid_cap(self):
        with pytest.raises(ReproError):
            minimal_transversals_levelwise([0b1], 1, max_size=0)


class TestDepMinerCap:
    def test_capped_fds_are_a_subset_and_all_small(self, paper_relation):
        full = discover_fds(paper_relation)
        capped = DepMiner(
            build_armstrong="none", max_lhs_size=1
        ).run(paper_relation).fds
        assert set(capped) <= set(full)
        assert all(len(fd.lhs) <= 1 for fd in capped)
        # Exactly the full cover's single-attribute FDs (5 of the 14).
        assert capped == [fd for fd in full if len(fd.lhs) <= 1]
        assert len(capped) == 5

    def test_cap_two_recovers_everything_here(self, paper_relation):
        # Every minimal FD of the worked example has |lhs| <= 2.
        full = discover_fds(paper_relation)
        capped = DepMiner(
            build_armstrong="none", max_lhs_size=2
        ).run(paper_relation).fds
        assert capped == full

    def test_cap_requires_levelwise(self):
        with pytest.raises(ReproError, match="levelwise"):
            DepMiner(
                build_armstrong="none", transversal_algorithm="berge",
                max_lhs_size=2,
            )

    def test_wide_schema_completes_quickly_with_cap(self):
        """The uncapped 70-attribute correlated case explodes at deep
        levels; a cap of 2 keeps it interactive."""
        relation = generate_relation(70, 40, correlation=0.5, seed=0)
        start = time.perf_counter()
        result = DepMiner(
            build_armstrong="none", max_lhs_size=2
        ).run(relation)
        elapsed = time.perf_counter() - start
        assert elapsed < 30
        assert all(len(fd.lhs) <= 2 for fd in result.fds)
        for fd in result.fds:
            assert fd.holds_in(relation)
