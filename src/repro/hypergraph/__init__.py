"""Simple hypergraphs and minimal transversals (sections 2 and 3.3)."""

from repro.hypergraph.hypergraph import (
    SimpleHypergraph,
    maximize_sets,
    minimize_sets,
)
from repro.hypergraph.kernel import (
    HypergraphReduction,
    minimal_transversals_kernel,
    reduce_hypergraph,
)
from repro.hypergraph.transversals import (
    apriori_gen,
    minimal_transversals,
    minimal_transversals_berge,
    minimal_transversals_levelwise,
)

__all__ = [
    "SimpleHypergraph",
    "minimize_sets",
    "maximize_sets",
    "minimal_transversals",
    "minimal_transversals_levelwise",
    "minimal_transversals_berge",
    "minimal_transversals_kernel",
    "reduce_hypergraph",
    "HypergraphReduction",
    "apriori_gen",
]
