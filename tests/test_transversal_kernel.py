"""The layered transversal kernel: property suite, edge cases, wiring.

The central contract: the kernel (with or without the reduction pass)
is extensionally identical to the paper's levelwise Algorithm 5,
Berge's sequential method and the FastFDs-style DFS test oracle
(:mod:`tests.dfs`) — on arbitrary simple hypergraphs, under
``max_size`` truncation, and end-to-end through ``DepMiner`` at any
``jobs`` value.  The kernel runs no edge minimization, so raw families
with duplicate, superset and singleton edges must also come out as the
levelwise search of their minimized core.  ``"vectorized"``, the name
of the deleted NumPy lane backend, is an alias of ``"kernel"``
wherever a method name is accepted.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.depminer import DepMiner
from repro.core.lhs import left_hand_sides
from repro.datagen.synthetic import generate_relation
from repro.errors import ReproError
from repro.hypergraph.hypergraph import minimize_sets
from repro.hypergraph.kernel import (
    minimal_transversals_kernel,
    reduce_hypergraph,
)
from repro.hypergraph.transversals import (
    minimal_transversals,
    minimal_transversals_berge,
    minimal_transversals_levelwise,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.parallel import ShardedExecutor, parallel_cmax_lhs
from tests.dfs import minimal_transversals_dfs


@st.composite
def simple_hypergraphs(draw, max_vertices=7, max_edges=8):
    """A random simple hypergraph as ``(edges, num_vertices)``."""
    num_vertices = draw(st.integers(min_value=1, max_value=max_vertices))
    universe = (1 << num_vertices) - 1
    raw = draw(st.lists(
        st.integers(min_value=1, max_value=universe), max_size=max_edges
    ))
    return minimize_sets(raw), num_vertices


@st.composite
def raw_hypergraphs(draw, max_vertices=7, max_edges=10):
    """A random edge family that need not be simple: duplicates,
    supersets and singletons, as ``(edges, num_vertices)``."""
    num_vertices = draw(st.integers(min_value=1, max_value=max_vertices))
    universe = (1 << num_vertices) - 1
    # Room for the two singletons, the superset and the duplicate.
    edges = draw(st.lists(
        st.integers(min_value=1, max_value=universe),
        max_size=max_edges - 4,
    ))
    singletons = draw(st.lists(
        st.integers(min_value=0, max_value=num_vertices - 1), max_size=2
    ))
    edges += [1 << vertex for vertex in singletons]
    if edges:
        # A superset and a duplicate of an edge already drawn.
        base = draw(st.sampled_from(edges))
        extra = draw(st.integers(min_value=0, max_value=universe))
        edges += [base | extra, base]
    return draw(st.permutations(edges)), num_vertices


class TestAlgorithmEquivalence:
    @given(simple_hypergraphs())
    @settings(max_examples=80, deadline=None)
    def test_all_algorithms_agree(self, hypergraph):
        edges, num_vertices = hypergraph
        expected = minimal_transversals_levelwise(edges, num_vertices)
        assert minimal_transversals_kernel(edges, num_vertices) == expected
        assert minimal_transversals_berge(edges, num_vertices) == expected
        assert minimal_transversals_dfs(edges, num_vertices) == expected

    @given(simple_hypergraphs(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_max_size_matches_levelwise_truncation(self, hypergraph, cap):
        edges, num_vertices = hypergraph
        expected = minimal_transversals_levelwise(
            edges, num_vertices, max_size=cap
        )
        assert minimal_transversals_kernel(
            edges, num_vertices, max_size=cap
        ) == expected

    @given(raw_hypergraphs(),
           st.one_of(st.none(), st.integers(min_value=1, max_value=4)))
    @settings(max_examples=120, deadline=None)
    def test_non_simple_families_match_the_minimized_search(
        self, hypergraph, cap
    ):
        # No minimization step: the kernel must search a family with
        # duplicate, superset and singleton edges exactly as its
        # inclusion-minimal core.
        edges, num_vertices = hypergraph
        expected = minimal_transversals_levelwise(
            minimize_sets(edges), num_vertices, max_size=cap
        )
        assert minimal_transversals_kernel(
            edges, num_vertices, max_size=cap
        ) == expected
        assert minimal_transversals_kernel(
            edges, num_vertices, max_size=cap, reductions=False
        ) == expected

    @given(simple_hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_reduction_pass_is_an_optimization_not_a_semantic(self, hypergraph):
        edges, num_vertices = hypergraph
        assert minimal_transversals_kernel(
            edges, num_vertices, reductions=False
        ) == minimal_transversals_kernel(edges, num_vertices)

    @given(simple_hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_dispatcher_names(self, hypergraph):
        edges, num_vertices = hypergraph
        expected = minimal_transversals(edges, num_vertices,
                                        method="levelwise")
        assert minimal_transversals(
            edges, num_vertices, method="kernel"
        ) == expected
        assert minimal_transversals(
            edges, num_vertices, method="vectorized"
        ) == expected


class TestDirectedEdgeCases:
    def test_empty_hypergraph(self):
        assert minimal_transversals_kernel([], 4) == [0]

    def test_singleton_edges_are_committed_as_essential(self):
        # {0} and {1} force both vertices; {2,3} branches.
        edges = [0b0001, 0b0010, 0b1100]
        assert minimal_transversals_kernel(edges, 4) == \
            sorted([0b0111, 0b1011])

    def test_only_singleton_edges(self):
        assert minimal_transversals_kernel([0b01, 0b10], 2) == [0b11]

    def test_duplicated_incidence_vertices_expand_by_substitution(self):
        # Vertices 0,1 share all edges, as do 2,3: one search over the
        # two representatives, four expanded transversals.
        edges = [0b0011, 0b1100]
        assert minimal_transversals_kernel(edges, 4) == \
            minimal_transversals_levelwise(edges, 4)

    def test_disconnected_components_cross_product(self):
        # {0,1} and {2,3} are independent: 2 x 2 transversals.
        edges = [0b0011, 0b1100]
        result = minimal_transversals_kernel(edges, 4)
        assert len(result) == 4
        # Three components, sizes 2/2/1.
        edges = [0b000011, 0b001100, 0b010000]
        result = minimal_transversals_kernel(edges, 6)
        assert result == minimal_transversals_levelwise(edges, 6)
        assert len(result) == 4

    def test_max_size_below_the_essential_commit_is_empty(self):
        # Both vertices are essential, so no transversal has size <= 1.
        assert minimal_transversals_kernel(
            [0b01, 0b10], 2, max_size=1
        ) == []
        assert minimal_transversals_kernel(
            [0b01, 0b10], 2, max_size=2
        ) == [0b11]

    def test_max_size_exhausted_by_essentials_with_edges_left(self):
        # Essential vertex 0 uses the whole budget; edge {1,2} unmet.
        assert minimal_transversals_kernel(
            [0b001, 0b110], 3, max_size=1
        ) == []

    def test_max_size_truncates_a_component(self):
        # Component {2,3},{2,4},{3,4} needs 2 vertices; with the {0,1}
        # component's 1 the minimum is 3, so max_size=2 finds nothing.
        edges = [0b00011, 0b01100, 0b10100, 0b11000]
        assert minimal_transversals_kernel(edges, 5, max_size=2) == []
        assert minimal_transversals_kernel(edges, 5, max_size=3) == \
            minimal_transversals_levelwise(edges, 5, max_size=3)

    def test_rejects_empty_edge(self):
        with pytest.raises(ReproError, match="non-empty"):
            minimal_transversals_kernel([0b01, 0], 2)

    def test_rejects_invalid_max_size(self):
        with pytest.raises(ReproError, match="max_size"):
            minimal_transversals_kernel([0b1], 1, max_size=0)

    def test_superset_edges_are_dropped(self):
        # Committing the essential vertex 0 satisfies both supersets.
        reduction = reduce_hypergraph([0b001, 0b011, 0b101])
        assert reduction.essential == 0b001
        assert reduction.components == []


class TestReductionObservability:
    #: One singleton (essential), one merged pair per component, two
    #: components — every reduction fires.
    EDGES = [0b00001, 0b00110, 0b11000]
    WIDTH = 5

    def test_counters_fire(self):
        metrics = MetricsRegistry()
        result = minimal_transversals_kernel(
            self.EDGES, self.WIDTH, metrics=metrics
        )
        assert result == minimal_transversals_levelwise(
            self.EDGES, self.WIDTH
        )
        snapshot = metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["transversal.essential_committed"] == 1
        assert counters["transversal.vertices_merged"] == 2
        assert counters["transversal.components"] == 2
        assert counters["lhs.candidates_generated"] >= 2
        assert "transversal.level_size" in snapshot["histograms"]

    def test_reduce_span_records_the_outcome(self):
        tracer = Tracer()
        minimal_transversals_kernel(self.EDGES, self.WIDTH, tracer=tracer)
        spans = tracer.find("transversal.reduce")
        assert len(spans) == 1
        attrs = spans[0].attrs
        assert attrs["essential"] == 1
        assert attrs["merged"] == 2
        assert attrs["components"] == 2

    def test_disabled_tracer_is_inert(self):
        tracer = Tracer(enabled=False)
        minimal_transversals_kernel(self.EDGES, self.WIDTH, tracer=tracer)
        assert tracer.find("transversal.reduce") == []
        # The shared null-span attrs dict must stay empty.
        from repro.obs.tracer import _NULL_SPAN

        assert _NULL_SPAN.attrs == {}


class TestDepMinerWiring:
    ALGORITHMS = ("kernel", "vectorized", "levelwise", "berge")

    @pytest.fixture(scope="class")
    def relation(self):
        return generate_relation(8, 150, correlation=0.6, seed=3)

    def _cover(self, result):
        return [(fd.lhs.mask, fd.rhs_index) for fd in result.fds]

    def test_default_algorithm_is_the_kernel(self):
        assert DepMiner().transversal_algorithm == "kernel"

    def test_identical_covers_across_all_algorithms(self, relation):
        covers = {
            name: self._cover(
                DepMiner(build_armstrong="none",
                         transversal_algorithm=name, jobs=1).run(relation)
            )
            for name in self.ALGORITHMS
        }
        reference = covers["levelwise"]
        assert reference  # non-trivial workload
        for name, cover in covers.items():
            assert cover == reference, f"{name} diverged"

    @pytest.mark.parametrize("algorithm", ["kernel", "vectorized"])
    def test_jobs_differential_with_the_kernel(self, relation, algorithm):
        serial = DepMiner(build_armstrong="none",
                          transversal_algorithm=algorithm, jobs=1)
        sharded = DepMiner(build_armstrong="none",
                           transversal_algorithm=algorithm, jobs=2)
        assert self._cover(serial.run(relation)) == \
            self._cover(sharded.run(relation))

    def test_max_lhs_size_through_the_kernel(self, relation):
        full = DepMiner(build_armstrong="none",
                        transversal_algorithm="kernel", jobs=1).run(relation)
        capped = DepMiner(build_armstrong="none",
                          transversal_algorithm="kernel",
                          max_lhs_size=2, jobs=1).run(relation)
        expected = [fd for fd in full.fds if len(fd.lhs) <= 2]
        assert capped.fds == expected

    def test_reduction_counters_reach_the_miner_metrics(self, relation):
        metrics = MetricsRegistry()
        DepMiner(build_armstrong="none", transversal_algorithm="kernel",
                 metrics=metrics, jobs=1).run(relation)
        counters = metrics.snapshot()["counters"]
        assert counters.get("transversal.components", 0) >= 1


class TestVectorizedAlias:
    """``"vectorized"`` named the deleted NumPy lane backend; it is now
    an alias of ``"kernel"`` wherever a method name is accepted, and
    every entry point keeps its errors."""

    @pytest.fixture(scope="class")
    def mined(self):
        relation = generate_relation(8, 150, correlation=0.6, seed=3)
        return DepMiner(build_armstrong="none").run(relation)

    def test_minimal_transversals(self, mined):
        width = len(mined.schema)
        for edges in mined.cmax_sets.values():
            for cap in (None, 2):
                assert minimal_transversals(
                    edges, width, "vectorized", max_size=cap
                ) == minimal_transversals(edges, width, "kernel",
                                          max_size=cap)

    def test_left_hand_sides(self, mined):
        results = {}
        for method in ("kernel", "vectorized"):
            metrics = MetricsRegistry()
            lhs = left_hand_sides(mined.cmax_sets, mined.schema,
                                  method=method, metrics=metrics)
            results[method] = (lhs, metrics.snapshot()["counters"])
        assert results["vectorized"] == results["kernel"]
        assert results["kernel"][0] == mined.lhs_sets

    def test_parallel_cmax_lhs_at_two_jobs(self, mined):
        outputs = {}
        for method in ("kernel", "vectorized"):
            executor = ShardedExecutor(jobs=2)
            try:
                outputs[method] = parallel_cmax_lhs(
                    sorted(mined.agree_sets), mined.schema, executor,
                    method=method,
                )
            finally:
                executor.close()
        assert outputs["vectorized"] == outputs["kernel"]
        assert outputs["kernel"][2] == mined.lhs_sets

    def test_depminer_stores_the_canonical_name(self, mined):
        miner = DepMiner(transversal_algorithm="vectorized")
        assert miner.transversal_algorithm == "kernel"
        # ... so the alias shares the kernel's cached covers.
        keys, _ = miner.stage_keys("k", mined.schema, 1)
        kernel_keys, _ = DepMiner().stage_keys("k", mined.schema, 1)
        assert keys.cover == kernel_keys.cover

    def test_cli_rejects_the_name(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["discover", str(tmp_path / "r.csv"),
                  "--transversal", "vectorized"])
        assert exited.value.code == 2
        assert "invalid choice: 'vectorized'" in capsys.readouterr().err

    @pytest.mark.parametrize("method,max_size,message", [
        ("wrong", None, "unknown transversal method 'wrong'"),
        ("berge", 2, "max_size is only supported by the levelwise"),
    ], ids=["unknown-method", "berge-max-size"])
    def test_errors_on_every_entry_point(self, mined, method, max_size,
                                         message):
        with pytest.raises(ReproError, match=message):
            DepMiner(transversal_algorithm=method, max_lhs_size=max_size)
        with pytest.raises(ReproError, match=message):
            left_hand_sides(mined.cmax_sets, mined.schema, method=method,
                            max_size=max_size)
        with pytest.raises(ReproError, match=message):
            parallel_cmax_lhs([], mined.schema, ShardedExecutor(jobs=2),
                              method=method, max_size=max_size)
