"""Property tests for the columnar primitives (`repro.columnar`).

Each columnar stage is pinned against the pure-Python implementation it
replaces, on hypothesis-generated inputs plus the boundary shapes that
matter to the mathematics:

* **factorization round-trip** — ``uniques[codes[row]] == values[row]``
  for every row, under both null semantics (``nulls_equal=False`` must
  give each ``None`` its own fresh code);
* **grouping ≡ stripped partitions** — the lexsort-grouped
  :func:`~repro.columnar.grouping.to_stripped_partition` equals
  :func:`~repro.partitions.partition.stripped_partition_of_column`,
  again under both null semantics;
* **batch intersection ≡ agree sets** —
  :func:`~repro.columnar.agree.columnar_agree_sets` equals
  :func:`~repro.core.agree_sets.naive_agree_sets`, including the
  all-distinct, all-equal, single-row and ``∅``-membership edge cases,
  at every couple budget and over copied, renamed, constant and key
  columns (more than 63 distinct partitions included), with a bounded
  heap on a near-constant column and no copy of a tall ``ec`` matrix;
* **packed cmax ≡ maximal sets** —
  :func:`~repro.columnar.cmax.maximal_sets_packed` equals
  :func:`~repro.core.maximal_sets.maximal_sets` +
  :func:`~repro.core.maximal_sets.complement_maximal_sets`;
* the **NumPy-absent fallback**: ``DepMiner(backend="columnar")``
  degrades to the python backend with a logged warning instead of
  failing, and the columnar package raises the typed
  :class:`~repro.columnar.ColumnarUnavailableError`.

The whole module skips on the NumPy-free CI lane (except the fallback
tests, which *simulate* that lane and so run everywhere NumPy exists —
they monkeypatch availability rather than the import machinery).
"""

from __future__ import annotations

import logging
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import repro.columnar as columnar_pkg
from repro.columnar import ColumnarUnavailableError, numpy_available
from repro.core.agree_sets import naive_agree_sets
from repro.core.attributes import Schema
from repro.core.depminer import DepMiner
from repro.core.maximal_sets import complement_maximal_sets, maximal_sets
from repro.core.relation import Relation
from repro.errors import ReproError
from repro.partitions.partition import stripped_partition_of_column
from tests.oracle import wide_lane_boundary_relation

pytestmark = pytest.mark.skipif(
    not numpy_available(),
    reason="columnar primitives need NumPy (fallback tests cover the "
           "NumPy-free path separately)",
)

if numpy_available():
    import numpy as np

    from repro.columnar import (
        candidate_couples,
        class_matrix,
        columnar_agree_sets,
        encode_column,
        encode_relation,
        maximal_sets_packed,
        resolve_couples,
        to_stripped_partition,
    )
    from repro.columnar.agree import _Partitions


# -- strategies --------------------------------------------------------------

#: Column cells: small ints, short strings, and None (exercising both
#: null semantics), mixed within one column.
cells = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["x", "y"]),
    st.none(),
)

columns = st.lists(cells, min_size=0, max_size=14)


@st.composite
def relations(draw, max_width=4, max_rows=12, max_value=3,
              allow_none=False):
    width = draw(st.integers(min_value=1, max_value=max_width))
    num_rows = draw(st.integers(min_value=0, max_value=max_rows))
    cell = st.integers(min_value=0, max_value=max_value)
    if allow_none:
        cell = st.one_of(cell, st.none())
    rows = [
        tuple(draw(cell) for _ in range(width))
        for _ in range(num_rows)
    ]
    return Relation.from_rows(Schema.of_width(width), rows)


#: Column shapes of :func:`sweep_relations`: each one a way for two
#: attributes to share a stripped partition, or for one to have none.
COLUMN_KINDS = ("random", "copy", "renamed", "constant", "key")


@st.composite
def sweep_relations(draw):
    """Relations shaped for the agree sweep: copied and renamed columns
    (one partition, several attributes), constant columns, all-distinct
    keys (no partition), ``None`` cells and — in the wide branch, whose
    first 64 columns are random — more than 63 distinct partitions."""
    num_rows = draw(st.integers(min_value=0, max_value=12))
    wide = draw(st.booleans())
    width = draw(st.integers(min_value=66, max_value=72) if wide
                 else st.integers(min_value=1, max_value=8))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=width,
                          max_size=width))
    if wide:
        kinds[:64] = ["random"] * 64
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    columns = []
    for kind in kinds:
        if kind == "copy" and columns:
            column = list(rng.choice(columns))
        elif kind == "renamed" and columns:
            column = [None if value is None else ("r", value)
                      for value in rng.choice(columns)]
        elif kind == "constant":
            column = [7] * num_rows
        elif kind == "key":
            column = list(range(num_rows))
        else:
            column = [None if rng.random() < 0.1 else rng.randint(0, 2)
                      for _ in range(num_rows)]
        columns.append(column)
    return Relation.from_columns(Schema.of_width(width), columns)


def reference_agree_sets(relation, nulls_equal):
    """``naive_agree_sets`` under either null semantics: with SQL nulls
    every ``None`` cell becomes a globally fresh value first."""
    if nulls_equal:
        return naive_agree_sets(relation)
    fresh = iter(range(-1, -1_000_000, -1))
    rows = [
        tuple(next(fresh) if cell is None else cell for cell in row)
        for row in relation.rows()
    ]
    return naive_agree_sets(Relation.from_rows(relation.schema, rows))


@st.composite
def agree_families(draw, max_width=8, max_masks=10):
    width = draw(st.integers(min_value=1, max_value=max_width))
    universe = (1 << width) - 1
    masks = draw(st.lists(
        st.integers(min_value=0, max_value=universe), max_size=max_masks,
    ))
    return width, set(masks)


# -- factorization -----------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(columns, st.booleans())
def test_factorization_round_trip(values, nulls_equal):
    codes, uniques = encode_column(values, nulls_equal=nulls_equal)
    assert codes.shape == (len(values),)
    for row, value in enumerate(values):
        assert uniques[codes[row]] == value
    # Codes are dense and first-occurrence ordered.
    if len(values):
        assert codes.max() == len(uniques) - 1
        assert codes[0] == 0


@settings(max_examples=60, deadline=None)
@given(columns)
def test_unequal_nulls_get_fresh_codes(values):
    codes, uniques = encode_column(values, nulls_equal=False)
    null_codes = [int(codes[row]) for row, value in enumerate(values)
                  if value is None]
    assert len(null_codes) == len(set(null_codes)), (
        "each None cell must factorize to its own code under "
        "nulls_equal=False"
    )
    non_null = [int(codes[row]) for row, value in enumerate(values)
                if value is not None]
    assert not set(null_codes) & set(non_null)
    assert all(uniques[code] is None for code in null_codes)


# -- grouping ----------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(columns, st.booleans())
def test_grouping_equals_stripped_partition(values, nulls_equal):
    codes, _ = encode_column(values, nulls_equal=nulls_equal)
    assert to_stripped_partition(codes) == stripped_partition_of_column(
        values, nulls_equal=nulls_equal
    )


def test_grouping_edge_cases():
    for values in ([], [7], [7, 7, 7], [1, 2, 3, 4]):
        codes, _ = encode_column(values)
        assert to_stripped_partition(codes) == (
            stripped_partition_of_column(values)
        )


# -- agree sets --------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(relations(allow_none=True), st.booleans())
def test_columnar_agree_sets_equal_core(relation, nulls_equal):
    ec = encode_relation(relation, nulls_equal=nulls_equal)
    # naive_agree_sets is nulls_equal=True semantics; route through a
    # miner-free reference for the False case: re-encode None cells as
    # globally fresh values and compare on that relation.
    if nulls_equal:
        reference = naive_agree_sets(relation)
    else:
        fresh = iter(range(-1, -10_000, -1))
        rows = [
            tuple(next(fresh) if cell is None else cell for cell in row)
            for row in relation.rows()
        ]
        reference = naive_agree_sets(
            Relation.from_rows(relation.schema, rows)
        )
    assert columnar_agree_sets(ec) == reference


def test_agree_set_edge_cases():
    schema = Schema.of_width(3)
    single = Relation.from_rows(schema, [(1, 2, 3)])
    all_equal = Relation.from_rows(schema, [(1, 2, 3)] * 4)
    all_distinct = Relation.from_rows(
        schema, [(i, -i, i * i) for i in range(5)]
    )
    # One row: no couples, no agree sets — not even ∅.
    assert columnar_agree_sets(encode_relation(single)) == set()
    # Every couple agrees everywhere: ag(r) = {R}, ∅ absent.
    assert columnar_agree_sets(encode_relation(all_equal)) == {0b111}
    # No couple agrees anywhere: ag(r) = {∅} via the couple-count test.
    assert columnar_agree_sets(encode_relation(all_distinct)) == {0}
    for relation in (single, all_equal, all_distinct):
        assert columnar_agree_sets(
            encode_relation(relation)
        ) == naive_agree_sets(relation)


def test_empty_agree_set_membership_requires_missing_couples():
    # Two rows agreeing on A only: the single couple is enumerated, so
    # ∅ must NOT be added; on three rows with one all-distinct pair it
    # must be.
    schema = Schema.of_width(2)
    two = Relation.from_rows(schema, [(1, 1), (1, 2)])
    assert columnar_agree_sets(encode_relation(two)) == {0b01}
    three = Relation.from_rows(schema, [(1, 1), (1, 2), (9, 9)])
    assert columnar_agree_sets(encode_relation(three)) == (
        naive_agree_sets(three)
    )
    assert 0 in columnar_agree_sets(encode_relation(three))


@settings(max_examples=40, deadline=None)
@given(relations())
def test_candidate_couples_are_distinct_and_ordered(relation):
    ec = encode_relation(relation)
    left, right = candidate_couples(ec)
    assert left.shape == right.shape
    assert bool((left < right).all())
    keys = left * max(len(relation), 1) + right
    assert len(np.unique(keys)) == len(keys), "couples must be distinct"


def test_wide_relation_masks_cross_the_lane_boundary():
    relation = wide_lane_boundary_relation()
    ec = encode_relation(relation)
    agree = columnar_agree_sets(ec)
    assert agree == naive_agree_sets(relation)
    assert any(mask >> 63 for mask in agree)


# -- the agree sweep ---------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(sweep_relations(), st.booleans())
def test_sweep_equals_oracle_at_every_budget(relation, nulls_equal):
    ec = class_matrix(encode_relation(relation, nulls_equal=nulls_equal))
    reference = reference_agree_sets(relation, nulls_equal)
    num_rows = len(relation)
    num_couples = len(candidate_couples(ec)[0])
    assert num_couples == sum(
        1 for left in range(num_rows) for right in range(left + 1, num_rows)
        if ((ec[:, left] >= 0) & (ec[:, left] == ec[:, right])).any()
    )
    for max_couples in (1, 2, 3, 7, None):
        stats = {}
        assert columnar_agree_sets(
            ec, max_couples=max_couples, stats=stats
        ) == reference
        assert stats["couples"] == num_couples
        assert stats["distinct_partitions"] <= len(relation.schema)
        if max_couples is not None:
            # A batch is cut at row boundaries: it may overshoot the
            # budget by fewer than |r| couples, never more.
            for left, _, _ in _Partitions(ec).batches(max_couples):
                assert len(left) < max_couples + max(num_rows, 1)


def test_sweep_over_more_than_63_distinct_partitions():
    rng = random.Random(3)
    columns = [[rng.randint(0, 2) for _ in range(12)] for _ in range(70)]
    columns += [list(column) for column in columns[:5]]
    relation = Relation.from_columns(Schema.of_width(75), columns)
    ec = class_matrix(encode_relation(relation))
    stats = {}
    assert columnar_agree_sets(ec, max_couples=5, stats=stats) == (
        naive_agree_sets(relation)
    )
    assert stats["distinct_partitions"] > 63
    assert stats["couples"] == len(candidate_couples(ec)[0])


def test_class_matrix_ids_depend_only_on_the_partition():
    # Attributes 0 and 1 share the partition {0, 2} {1, 3} {4} under
    # values in different orders; a class is numbered by its smallest
    # row.
    codes = np.array([
        [3, 1, 3, 1, 0],
        [0, 2, 0, 2, 1],
        [7, 7, 5, 6, 4],
    ], dtype=np.int64)
    ec = class_matrix(codes)
    assert ec[0].tobytes() == ec[1].tobytes()
    assert ec[0].tolist() == [0, 1, 0, 1, -1]
    assert ec[2].tolist() == [0, 0, -1, -1, -1]


def test_sweep_heap_stays_bounded_on_a_near_constant_column():
    # One column holds a single value in 2997 of 3000 rows (~4.5M
    # couples); a global couple dedup needs ~200 MiB here.
    from repro.datagen.synthetic import SyntheticSpec, generate_columns

    num_rows = 3000
    constant = [num_rows + row if row % 1000 == 7 else 0
                for row in range(num_rows)]
    others = generate_columns(SyntheticSpec(11, num_rows, 0.5, seed=0))
    ec = class_matrix(encode_relation(Relation.from_columns(
        Schema.of_width(12), [constant] + others,
    )))
    stats = {}
    tracemalloc.start()
    try:
        columnar_agree_sets(ec, stats=stats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert stats["couples"] > num_rows * (num_rows - 1) // 2 * 0.99
    assert stats["batches"] > 1


def test_sweep_holds_no_copy_of_a_tall_class_matrix():
    # 32 high-cardinality columns over 100,000 rows (~50k couples): the
    # sweep's heap is a few row-sized arrays plus one batch, never a
    # second copy of the 24 MiB ec(t) matrix.
    num_rows = 100_000
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 16 * num_rows, size=(32, num_rows))
    codes[16:] = codes[:16]  # every partition twice ...
    codes[0] = np.arange(num_rows)  # ... and one key column
    ec = class_matrix(codes)
    left, right = candidate_couples(ec)
    stats = {}
    for step in (lambda: columnar_agree_sets(ec, stats=stats),
                 lambda: candidate_couples(ec),
                 lambda: resolve_couples(ec, left, right)):
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ec.nbytes // 4
    assert stats["distinct_partitions"] == 16
    assert stats["couples"] == len(left)


def test_sweep_span_reports_distinct_partitions():
    from repro.obs import Tracer

    relation = wide_lane_boundary_relation()
    tracer = Tracer()
    result = DepMiner(backend="columnar", build_armstrong="none",
                      tracer=tracer).run(relation)
    (span,) = tracer.find("columnar.sweep")
    assert span.attrs["distinct_partitions"] < len(relation.schema)
    assert span.attrs["couples"] == result.stats["num_couples"]
    assert span.attrs["pairs"] >= span.attrs["couples"]
    assert span.attrs["batches"] >= 1
    assert not tracer.find("columnar.couples")


# -- cmax --------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(agree_families())
def test_maximal_sets_packed_equals_core(family):
    width, agree = family
    schema = Schema.of_width(width)
    expected_max = maximal_sets(agree, schema)
    expected_cmax = complement_maximal_sets(expected_max, schema)
    max_sets, cmax_sets = maximal_sets_packed(agree, schema)
    assert {a: sorted(v) for a, v in max_sets.items()} == (
        {a: sorted(v) for a, v in expected_max.items()}
    )
    assert cmax_sets == expected_cmax


def test_maximal_sets_packed_empty_family():
    schema = Schema.of_width(3)
    max_sets, cmax_sets = maximal_sets_packed(set(), schema)
    assert max_sets == {0: [], 1: [], 2: []}
    assert cmax_sets == {0: [], 1: [], 2: []}


# -- NumPy-absent fallback ---------------------------------------------------

class TestNumpyFallback:
    def test_miner_degrades_to_python_with_a_warning(self, monkeypatch,
                                                     caplog):
        # DepMiner imports numpy_available from the package at call
        # time, so patching the package attribute simulates the
        # NumPy-free environment.
        monkeypatch.setattr(columnar_pkg, "numpy_available",
                            lambda: False)
        with caplog.at_level(logging.WARNING):
            miner = DepMiner(backend="columnar", build_armstrong="none")
        assert miner.backend == "python"
        assert any("falling back" in message
                   for message in caplog.messages)
        relation = Relation.from_rows(
            Schema.of_width(2), [(1, 1), (1, 2)]
        )
        assert miner.run(relation).fds  # still mines

    def test_require_numpy_raises_the_typed_error(self, monkeypatch):
        monkeypatch.setattr(columnar_pkg, "numpy_available",
                            lambda: False)
        with pytest.raises(ColumnarUnavailableError) as excinfo:
            columnar_pkg.require_numpy()
        assert isinstance(excinfo.value, ReproError)

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ReproError):
            DepMiner(backend="gpu")
