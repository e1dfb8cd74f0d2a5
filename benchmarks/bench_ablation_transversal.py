"""Ablation: transversal search strategies on real cmax hypergraphs.

The paper's levelwise algorithm (Algorithm 5) prunes supersets of found
transversals via Apriori-gen; Berge's sequential method is the
classical alternative; the layered kernel
(:mod:`repro.hypergraph.kernel`) adds a reduction pass and incremental
edge-coverage masks on top of the levelwise shape.  The extra arms
isolate the kernel's layers:

- ``kernel`` — the full pipeline (reductions + incremental coverage);
- ``kernel_no_reductions`` — incremental coverage only (``reductions=
  False``), i.e. the value of the coverage masks alone;
- ``kernel_vectorized`` — the NumPy lane-packed batch backend.

Benchmarked on the actual cmax hypergraphs produced by mining a
correlated synthetic relation (not on synthetic hypergraphs), so the
edge-size distribution is the one Dep-Miner really sees.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import cached_relation
from repro.core.depminer import DepMiner
from repro.hypergraph.kernel import minimal_transversals_kernel
from repro.hypergraph.transversals import (
    minimal_transversals_berge,
    minimal_transversals_levelwise,
)

CORRELATION = 0.50
ATTRS = 10
ROWS = 500


@pytest.fixture(scope="module")
def cmax_families():
    relation = cached_relation(ATTRS, ROWS, CORRELATION)
    result = DepMiner(build_armstrong="none").run(relation)
    return list(result.cmax_sets.values())


def run_all(families, algorithm):
    for edges in families:
        algorithm(edges, ATTRS)


@pytest.mark.benchmark(group="ablation-transversal")
def test_transversal_levelwise(benchmark, cmax_families):
    benchmark(run_all, cmax_families, minimal_transversals_levelwise)


@pytest.mark.benchmark(group="ablation-transversal")
def test_transversal_berge(benchmark, cmax_families):
    benchmark(run_all, cmax_families, minimal_transversals_berge)


@pytest.mark.benchmark(group="ablation-transversal")
def test_transversal_kernel(benchmark, cmax_families):
    benchmark(run_all, cmax_families, minimal_transversals_kernel)


@pytest.mark.benchmark(group="ablation-transversal")
def test_transversal_kernel_no_reductions(benchmark, cmax_families):
    def search(edges, width):
        return minimal_transversals_kernel(edges, width, reductions=False)

    benchmark(run_all, cmax_families, search)


@pytest.mark.benchmark(group="ablation-transversal")
def test_transversal_kernel_vectorized(benchmark, cmax_families):
    def search(edges, width):
        return minimal_transversals_kernel(edges, width,
                                           backend="vectorized")

    benchmark(run_all, cmax_families, search)
