"""Agree sets by one streamed sweep over the distinct stripped partitions.

Algorithm 2 enumerates each couple once, from the maximal classes of
Lemma 1, and bounds its memory with a couple threshold (section 3.1).
The columnar step does the same over the ``ec(t)`` class-id matrix:

1. **Distinct partitions.**  :func:`~repro.columnar.grouping.class_ids`
   numbers each stripped class by its smallest row, so attributes with
   the same stripped partition have byte-identical ``ec`` rows.  Each
   non-empty partition is kept once, as a view of its first ``ec`` row,
   with the attributes that share it; all-singleton (key) columns drop
   out.
2. **Pairs.**  The within-class pairs of one distinct partition are
   built by a vectorized repeat/cumsum over its class runs, in batches
   of at most ``max_couples`` couples (:data:`BATCH_COUPLES` by
   default, the pipeline's setting).  Batches are cut at row
   boundaries, so one may overshoot by fewer than ``|r|`` couples.
   Beside ``ec`` itself the sweep holds a few row-sized arrays and one
   batch: nothing grows with ``Σ class²`` or copies ``ec``.
3. **Resolution.**  One pass per distinct partition marks the couples
   of a batch that agree on it, as bits of ``uint64`` lanes.  A couple
   is kept only in the batch of its *lowest* agreeing partition, so each
   couple counts once without a global ``np.unique``: the kept count is
   the distinct-couple count of Algorithm 2's ``∅ ∈ ag(r)`` test, exact
   at any batch size.  The distinct lane rows are finally expanded,
   partition bit → member attributes, into the agree-set masks.

:func:`columnar_agree_sets` is the sweep.  :func:`candidate_couples` and
:func:`resolve_couples` expose its two halves on their own (the
deduplicated couples, and the masks of given couples) over the same
enumeration and resolution.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.columnar.grouping import grouped_runs

__all__ = [
    "BATCH_COUPLES",
    "candidate_couples",
    "resolve_couples",
    "columnar_agree_sets",
]

#: Couples per batch when no ``max_couples`` is given: the sweep's
#: working set is a few arrays of this length (measured choice).
BATCH_COUPLES = 1 << 16


class _Partitions:
    """The distinct non-empty stripped partitions of a class-id matrix.

    ``rows[q]`` is partition ``q``'s ``ec`` row — a view, never a copy,
    so the sweep holds no second class-id matrix; ``members[q]`` lists
    the attributes that share the partition, in order of first
    attribute.  Rows are grouped by the hash of their bytes (one row
    copied at a time), confirmed with ``np.array_equal``.
    """

    __slots__ = ("width", "members", "rows")

    def __init__(self, ec: np.ndarray):
        self.width, num_rows = ec.shape
        self.rows: List[np.ndarray] = []
        self.members: List[List[int]] = []
        if not num_rows:
            return
        by_hash: Dict[int, List[int]] = {}
        for attribute in range(self.width):
            row = ec[attribute]
            if row.max() < 0:  # all singletons: no couple agrees here
                continue
            candidates = by_hash.setdefault(hash(row.tobytes()), [])
            for index in candidates:
                if np.array_equal(self.rows[index], row):
                    break
            else:
                index = len(self.rows)
                candidates.append(index)
                self.rows.append(row)
                self.members.append([])
            self.members[index].append(attribute)

    @property
    def num_lanes(self) -> int:
        return max((len(self.rows) + 63) // 64, 1)

    def lanes(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """``(num_lanes, count)`` ``uint64``: bit ``q % 64`` of lane
        ``q // 64`` is set where a couple agrees on partition ``q``,
        i.e. both rows carry the same non-singleton class id."""
        count = int(left.shape[0])
        lanes = np.zeros((self.num_lanes, count), dtype=np.uint64)
        agree = np.empty(count, dtype=bool)
        stripped = np.empty(count, dtype=bool)
        for index, ids in enumerate(self.rows):
            lane, bit = divmod(index, 64)
            first = ids[left]
            np.equal(first, ids[right], out=agree)
            np.greater_equal(first, 0, out=stripped)
            agree &= stripped
            np.bitwise_or(lanes[lane], np.uint64(1 << bit), out=lanes[lane],
                          where=agree)
        return lanes

    def batches(self, limit: int) -> Iterator[Tuple[np.ndarray, np.ndarray,
                                                    np.ndarray]]:
        """Yield ``(left, right, low)`` couple batches of at most *limit*
        couples (plus fewer than ``|r|`` when one row's pairs exceed it).

        Couples come partition by partition, ``left < right``;
        ``low[i]`` is the lane mask of the partitions below the one that
        generated couple ``i`` — the couple is a repeat if it agrees on
        any of them.
        """
        lefts: List[np.ndarray] = []
        rights: List[np.ndarray] = []
        segments: List[Tuple[int, int]] = []
        room = limit
        for index, ids in enumerate(self.rows):
            members, later = _class_runs(ids)
            ends = np.cumsum(later)
            total = int(ends[-1]) if ends.shape[0] else 0
            start = done = 0
            while done < total:
                stop = int(np.searchsorted(ends, done + room, side="right"))
                if stop == start:
                    if segments:
                        yield self._flush(lefts, rights, segments)
                        room = limit
                        continue
                    stop = start + 1  # one row's pairs exceed the limit
                counts = later[start:stop]
                size = int(ends[stop - 1]) - done
                shift = np.arange(start + 1, stop + 1) - (
                    ends[start:stop] - counts - done
                )
                lefts.append(np.repeat(members[start:stop], counts))
                rights.append(members[np.arange(size)
                                      + np.repeat(shift, counts)])
                segments.append((index, size))
                room -= size
                done += size
                start = stop
                if room <= 0:
                    yield self._flush(lefts, rights, segments)
                    room = limit
        if segments:
            yield self._flush(lefts, rights, segments)

    def _flush(self, lefts, rights, segments):
        left = lefts[0] if len(lefts) == 1 else np.concatenate(lefts)
        right = rights[0] if len(rights) == 1 else np.concatenate(rights)
        below = np.zeros((self.num_lanes, len(segments)), dtype=np.uint64)
        for position, (index, _) in enumerate(segments):
            lane, bit = divmod(index, 64)
            below[:lane, position] = np.uint64(2 ** 64 - 1)
            below[lane, position] = np.uint64((1 << bit) - 1)
        low = np.repeat(below, [size for _, size in segments], axis=1)
        lefts.clear()
        rights.clear()
        segments.clear()
        return left, right, low

    def sweep(self, limit: int) -> Iterator[Tuple[np.ndarray, np.ndarray,
                                                  np.ndarray, np.ndarray]]:
        """Yield ``(left, right, lanes, keep)`` per batch, *keep* marking
        the couples generated by their lowest agreeing partition."""
        for left, right, low in self.batches(limit):
            lanes = self.lanes(left, right)
            yield left, right, lanes, ~(lanes & low).any(axis=0)

    def expand(self, lanes: np.ndarray) -> Set[int]:
        """Attribute masks of distinct partition lane columns.

        Each partition bit becomes the bits of its member attributes;
        the members are disjoint, so distinct columns give distinct
        masks.
        """
        count = int(lanes.shape[1])
        if not count:
            return set()
        rows = np.ascontiguousarray(lanes.T, dtype="<u8")
        bits = np.unpackbits(
            rows.view(np.uint8).reshape(count, -1), axis=1,
            bitorder="little",
        )
        attribute_bits = np.zeros((count, self.width), dtype=np.uint8)
        for index, members in enumerate(self.members):
            attribute_bits[:, members] = bits[:, index:index + 1]
        packed = np.packbits(attribute_bits, axis=1, bitorder="little")
        data = packed.tobytes()
        step = packed.shape[1]
        return {
            int.from_bytes(data[offset:offset + step], "little")
            for offset in range(0, len(data), step)
        }


def _class_runs(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One partition's class members and, per member, its later mates.

    The stripped rows come grouped by class, ascending within each
    class; ``later[i]`` counts the rows after ``members[i]`` in its
    class, i.e. the couples it is the left row of.
    """
    rows = np.flatnonzero(ids >= 0)
    order, starts, lengths = grouped_runs(ids[rows])
    later = (np.repeat(starts + lengths, lengths)
             - np.arange(rows.shape[0], dtype=np.int64) - 1)
    return rows[order], later


def _distinct(lanes: np.ndarray) -> np.ndarray:
    """The distinct columns of a ``(num_lanes, count)`` lane array."""
    if lanes.shape[0] > 1:
        return np.unique(lanes.T, axis=0).T
    # Sort and compare neighbours: 1-D np.unique is 3-5x slower on these
    # uint64 arrays (NumPy 2.4, 4k-200k values).
    values = np.sort(lanes[0])
    fresh = np.empty(values.shape[0], dtype=bool)
    fresh[:1] = True
    np.not_equal(values[1:], values[:-1], out=fresh[1:])
    return values[fresh][None, :]


def columnar_agree_sets(ec: np.ndarray, max_couples: Optional[int] = None,
                        stats: Optional[Dict[str, int]] = None) -> Set[int]:
    """``ag(r)`` from a class-id matrix — same output as ``agree_sets``.

    One streamed sweep in batches of at most *max_couples* couples
    (:data:`BATCH_COUPLES` when ``None``); ``∅`` is added when the
    distinct couples do not exhaust every row pair (Algorithm 2's
    emptiness criterion).  *stats* receives ``distinct_partitions``,
    ``pairs`` (enumerated), ``couples`` (kept: the distinct couples) and
    ``batches``.
    """
    limit = BATCH_COUPLES if max_couples is None else max_couples
    partitions = _Partitions(ec)
    pairs = couples = batches = 0
    seen = np.empty((partitions.num_lanes, 0), dtype=np.uint64)
    for _, _, lanes, keep in partitions.sweep(limit):
        kept = lanes[:, keep]
        pairs += int(keep.shape[0])
        couples += int(kept.shape[1])
        batches += 1
        seen = _distinct(np.concatenate([seen, kept], axis=1))
    result = partitions.expand(seen)
    num_rows = int(ec.shape[1])
    if couples < num_rows * (num_rows - 1) // 2:
        result.add(0)
    if stats is not None:
        stats.update(distinct_partitions=len(partitions.rows),
                     pairs=pairs, couples=couples, batches=batches)
    return result


def candidate_couples(ec: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The deduplicated candidate couples of a class-id matrix.

    Returns parallel ``(left, right)`` index arrays with ``left <
    right``, sorted by ``(left, right)``; each couple appears exactly
    once even when it co-occurs in classes of several attributes (the
    sweep's lowest-partition rule, not a global ``np.unique``).
    """
    partitions = _Partitions(ec)
    n = np.int64(max(int(ec.shape[1]), 1))
    keys = [left[keep] * n + right[keep]
            for left, right, _, keep in partitions.sweep(BATCH_COUPLES)]
    if not keys:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    ordered = np.sort(np.concatenate(keys))
    return ordered // n, ordered % n


def resolve_couples(ec: np.ndarray, left: np.ndarray,
                    right: np.ndarray) -> Set[int]:
    """The distinct agree-set masks of the given couples.

    The sweep's resolution on caller-supplied couples, in
    :data:`BATCH_COUPLES`-sized slices; the result is independent of
    couple order and of repeats.
    """
    count = int(left.shape[0])
    if not count:
        return set()
    partitions = _Partitions(ec)
    seen = np.empty((partitions.num_lanes, 0), dtype=np.uint64)
    for offset in range(0, count, BATCH_COUPLES):
        lanes = partitions.lanes(left[offset:offset + BATCH_COUPLES],
                                 right[offset:offset + BATCH_COUPLES])
        seen = _distinct(np.concatenate([seen, lanes], axis=1))
    return partitions.expand(seen)
