"""Agree sets by vectorized batch intersection of ``ec(t)`` arrays.

Algorithm 2 computes ``ag(t1, t2)`` couple by couple; here the whole
couple population is resolved in one array sweep per attribute:

1. :func:`candidate_couples` enumerates, per attribute, all row pairs
   sharing a stripped class (runs batched by class size, one
   ``np.triu_indices`` per size), then collapses the cross-attribute
   duplicates with a single ``np.unique`` over ``left·n + right`` keys —
   the same deduplicate-before-counting contract the parallel couples
   path honours (the distinct-couple count feeds the ``∅ ∈ ag(r)``
   test);
2. :func:`resolve_couples` intersects the per-tuple class-identifier
   arrays: per attribute, one vectorized comparison marks the agreeing
   couples and ORs the attribute's bit into ``uint64`` lane
   accumulators (63 usable bits per lane, same layout as the
   transversal kernel);
3. one ``np.unique`` collapses the per-couple lane rows into the
   distinct agree-set masks.

:func:`columnar_agree_sets` chains the two and adds ``∅`` when some row
pair shares no stripped class at all (distinct couples < ``n(n−1)/2``).
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

import numpy as np

__all__ = [
    "candidate_couples",
    "resolve_couples",
    "masks_from_lanes",
    "columnar_agree_sets",
]

#: Usable bits per ``uint64`` lane — matches ``repro.hypergraph.kernel``
#: (kept clear of sign pitfalls in int ↔ uint64 conversions).
_BITS_PER_LANE = 63


def candidate_couples(ec: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The deduplicated candidate couples of a class-id matrix.

    Returns parallel ``(left, right)`` index arrays with ``left <
    right``, sorted by ``(left, right)``; each couple appears exactly
    once even when it co-occurs in classes of several attributes.
    """
    from repro.columnar.grouping import grouped_runs

    width, num_rows = ec.shape
    n = np.int64(max(num_rows, 1))
    key_parts = []
    for attribute in range(width):
        order, starts, lengths = grouped_runs(ec[attribute])
        if starts.shape[0] == 0:
            continue
        sorted_ids = ec[attribute][order]
        keep = (lengths > 1) & (sorted_ids[starts] >= 0)
        kept_starts = starts[keep]
        kept_lengths = lengths[keep]
        for size in np.unique(kept_lengths).tolist():
            size_starts = kept_starts[kept_lengths == size]
            # (k, size) member matrix; rows ascend within each run, so
            # the triu pairs are already left < right.
            members = order[size_starts[:, None]
                            + np.arange(size, dtype=np.int64)]
            i, j = np.triu_indices(int(size), k=1)
            left = members[:, i].ravel()
            right = members[:, j].ravel()
            key_parts.append(left * n + right)
    if not key_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    keys = np.unique(np.concatenate(key_parts))
    return keys // n, keys % n


def masks_from_lanes(lanes: np.ndarray) -> Set[int]:
    """Distinct Python-int masks from a ``(num_lanes, count)`` array."""
    num_lanes = lanes.shape[0]
    if num_lanes == 1:
        return {int(value) for value in np.unique(lanes[0])}
    result: Set[int] = set()
    for row in np.unique(lanes.T, axis=0):
        mask = 0
        for lane in range(num_lanes):
            mask |= int(row[lane]) << (lane * _BITS_PER_LANE)
        result.add(mask)
    return result


def resolve_couples(ec: np.ndarray, left: np.ndarray,
                    right: np.ndarray) -> Set[int]:
    """The distinct agree-set masks of the given couples.

    One vectorized pass per attribute over the class-identifier matrix;
    the result is independent of couple order and therefore of how a
    sharded run slices the couple arrays.
    """
    width = ec.shape[0]
    count = int(left.shape[0])
    if not count:
        return set()
    num_lanes = (width + _BITS_PER_LANE - 1) // _BITS_PER_LANE
    lanes = np.zeros((max(num_lanes, 1), count), dtype=np.uint64)
    for attribute in range(width):
        ids = ec[attribute]
        left_ids = ids[left]
        agree = (left_ids >= 0) & (left_ids == ids[right])
        lane, bit = divmod(attribute, _BITS_PER_LANE)
        lanes[lane, agree] |= np.uint64(1 << bit)
    return masks_from_lanes(lanes)


def columnar_agree_sets(ec: np.ndarray,
                        left: Optional[np.ndarray] = None,
                        right: Optional[np.ndarray] = None) -> Set[int]:
    """``ag(r)`` from a class-id matrix — same output as ``agree_sets``.

    Enumerates (or reuses the supplied) candidate couples, resolves
    them, and adds ``∅`` when the distinct couples do not exhaust every
    row pair (Algorithm 2's emptiness criterion).
    """
    if left is None or right is None:
        left, right = candidate_couples(ec)
    result = resolve_couples(ec, left, right)
    num_rows = int(ec.shape[1])
    if int(left.shape[0]) < num_rows * (num_rows - 1) // 2:
        result.add(0)
    return result
