"""Ablation: agree-set algorithms (naive vs Algorithm 2 vs Algorithm 3).

The core claim of section 3.1: computing agree sets from the maximal
equivalence classes of a stripped partition database beats the naive
all-pairs scan, and the identifier-set variant (Algorithm 3) trades a
per-couple win for an indexing cost.  The naive baseline is benchmarked
at a smaller row count — it is O(n * p^2) and exists to show the gap.
The columnar arm times the NumPy agree step (``columnar_agree_sets``,
the distinct-partition sweep) on the class-id matrix of the same
relation.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import cached_relation
from repro.core.agree_sets import (
    agree_sets_from_couples,
    agree_sets_from_identifiers,
    naive_agree_sets,
)
from repro.partitions.database import StrippedPartitionDatabase

CORRELATION = 0.50
ATTRS = 8
ROWS = 500


@pytest.fixture(scope="module")
def spdb():
    relation = cached_relation(ATTRS, ROWS, CORRELATION)
    return StrippedPartitionDatabase.from_relation(relation)


@pytest.mark.benchmark(group="ablation-agree-sets")
def test_agree_naive(benchmark):
    relation = cached_relation(ATTRS, ROWS, CORRELATION)
    benchmark(naive_agree_sets, relation)


@pytest.mark.benchmark(group="ablation-agree-sets")
def test_agree_couples_algorithm2(benchmark, spdb):
    benchmark(agree_sets_from_couples, spdb)


@pytest.mark.benchmark(group="ablation-agree-sets")
def test_agree_identifiers_algorithm3(benchmark, spdb):
    benchmark(agree_sets_from_identifiers, spdb)


@pytest.mark.benchmark(group="ablation-agree-sets")
def test_agree_columnar(benchmark):
    from repro.columnar.agree import columnar_agree_sets
    from repro.columnar.encode import encode_relation
    from repro.columnar.grouping import class_matrix

    relation = cached_relation(ATTRS, ROWS, CORRELATION)
    benchmark(columnar_agree_sets, class_matrix(encode_relation(relation)))
