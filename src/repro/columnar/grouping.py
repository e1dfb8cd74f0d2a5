"""Stripped partitions as arrays, via stable lexsort grouping.

A stripped partition ``π̂A`` (section 3.1 of the paper) drops singleton
classes.  Columnar representation: one stable argsort per coded column
yields the rows grouped by value as contiguous *runs* of the sort
order; runs of length 1 are the stripped singletons.  Two array forms
are derived from the runs:

- :func:`class_ids` — the per-tuple equivalence-class identifier array
  (``-1`` for stripped rows, each class numbered by its smallest row),
  i.e. one row of the paper's ``ec(t)`` table; :func:`class_matrix`
  stacks them into the full tuples×attributes identifier matrix the
  agree-set stage intersects;
- :func:`to_stripped_partition` — the classic
  :class:`~repro.partitions.partition.StrippedPartition` object, used
  by the property tests to hold the grouping equal to
  :func:`repro.partitions.partition.stripped_partition_of_column`.

The stable sort keeps row indices ascending within each run, which the
canonical class ids and the couple enumeration in
:mod:`repro.columnar.agree` rely on (it emits ``left < right`` pairs
without any extra sorting).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.partitions.partition import StrippedPartition

__all__ = [
    "grouped_runs",
    "class_ids",
    "class_matrix",
    "num_stripped_classes",
    "to_stripped_partition",
]


def grouped_runs(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
    """Group one coded column: ``(order, starts, lengths)``.

    ``order`` is the stable argsort of *codes*; equal codes form
    contiguous runs of ``order`` described by the parallel ``starts``
    (first-occurrence offset into ``order``) and ``lengths`` arrays.
    """
    num_rows = int(codes.shape[0])
    order = np.argsort(codes, kind="stable")
    if num_rows == 0:
        empty = np.empty(0, dtype=np.int64)
        return order, empty, empty
    sorted_codes = codes[order]
    boundary = np.empty(num_rows, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    lengths = np.diff(np.append(starts, num_rows))
    return order, starts, lengths


def class_ids(codes: np.ndarray) -> np.ndarray:
    """``row → stripped class id`` for one column (``-1`` = singleton).

    Each surviving (length > 1) class is numbered by its smallest row,
    so the ids depend only on the partition, not on the values: two
    columns with the same stripped partition get byte-identical arrays
    (the agree sweep keeps each distinct partition once).
    """
    order, starts, lengths = grouped_runs(codes)
    ids = np.full(codes.shape[0], -1, dtype=np.int64)
    keep = lengths > 1
    if keep.any():
        member_run = np.repeat(
            np.arange(starts.shape[0], dtype=np.int64), lengths
        )
        kept_positions = keep[member_run]
        # The stable sort leaves each run's smallest row at its start.
        ids[order[kept_positions]] = order[starts][member_run[kept_positions]]
    return ids


def class_matrix(codes: np.ndarray) -> np.ndarray:
    """The ``ec(t)`` table: a ``(width, num_rows)`` class-id matrix.

    Row ``a`` holds the stripped class identifier of every tuple under
    attribute ``a`` (``-1`` for stripped singletons) — the columnar form
    of :meth:`StrippedPartitionDatabase.equivalence_class_identifiers`.
    """
    width, num_rows = codes.shape
    if width == 0:
        return np.empty((0, num_rows), dtype=np.int64)
    return np.vstack([class_ids(codes[a]) for a in range(width)])


def num_stripped_classes(ec: np.ndarray) -> int:
    """Total ``|π̂A|`` over all attributes of a class-id matrix."""
    total = 0
    for attribute in range(ec.shape[0]):
        ids = ec[attribute]
        ids = ids[ids >= 0]
        total += int(np.unique(ids).shape[0]) if ids.shape[0] else 0
    return total


def to_stripped_partition(codes: np.ndarray) -> StrippedPartition:
    """The :class:`StrippedPartition` of one coded column.

    Equivalence helper for the property tests; the pipeline itself never
    materialises class tuples.
    """
    order, starts, lengths = grouped_runs(codes)
    classes = [
        tuple(order[start:start + length].tolist())
        for start, length in zip(starts.tolist(), lengths.tolist())
        if length > 1
    ]
    return StrippedPartition(classes, int(codes.shape[0]))
