"""Agree-set computation (section 3.1 of the paper).

Three algorithms, all returning ``ag(r)`` as a set of attribute bitmasks:

- :func:`naive_agree_sets` — the O(n·p²) all-pairs baseline the paper
  opens with; impractical for large ``p`` but the obvious correctness
  oracle.
- :func:`agree_sets_from_couples` — the paper's Algorithm 2
  (``AGREE_SET``): enumerate tuple couples inside the maximal equivalence
  classes ``MC`` (Lemma 1), then sweep the stripped partitions attribute
  by attribute, adding attribute ``A`` to ``ag(t, t')`` whenever the
  couple lies in a common class of ``π̂A``.  The membership test "t ∈ c
  and t' ∈ c" is evaluated through a row → class-index table per
  attribute, which is exactly the bit-vector trick of the original C++
  implementation.  A ``max_couples`` threshold bounds how many couples
  are materialised at once: when it is reached, the current chunk is
  resolved into agree sets and discarded before the enumeration resumes
  (the memory safeguard described at the end of section 3.1).
- :func:`agree_sets_from_identifiers` — Algorithm 3 (``AGREE_SET_2``):
  store ``ec(t)``, the equivalence-class identifiers of each tuple, and
  obtain ``ag(t, t')`` by intersecting identifier sets (Lemma 2).  Cheaper
  when classes are large, because the per-couple cost is proportional to
  the number of attributes where the tuples sit in *some* stripped class
  rather than to |R|.

``ag(r)`` contains the empty set exactly when two tuples disagree on
every attribute.  The couple enumeration never visits such a pair (they
share no class), so both algorithms detect the situation by comparing the
number of distinct couples visited with ``p·(p−1)/2`` — if some pair was
never visited, ``∅ ∈ ag(r)``.  This matters for correctness of the
maximal-set derivation on relations where an attribute's only "failing"
witness is a fully-disagreeing pair.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.relation import Relation
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressCallback, emit_progress
from repro.partitions.database import StrippedPartitionDatabase

__all__ = [
    "naive_agree_sets",
    "agree_sets_from_couples",
    "agree_sets_from_identifiers",
    "agree_sets",
    "AGREE_SET_ALGORITHMS",
    "check_agree_options",
    "build_class_index_tables",
    "resolve_couples_with_tables",
    "resolve_couples_with_identifiers",
    "empty_agree_set_present",
    "iter_distinct_couples",
]

# Couples between progress-callback invocations in the enumeration loops.
PROGRESS_INTERVAL = 1024


def naive_agree_sets(relation: Relation) -> Set[int]:
    """All-pairs ``ag(r)`` in O(n·p²) — the baseline of section 3.1.

    Includes ``∅`` when two tuples disagree everywhere (and also when the
    relation has duplicate rows the full mask ``R``, like the other
    algorithms: duplicates agree on every attribute).
    """
    num_rows = len(relation)
    columns = [relation.column(i) for i in range(len(relation.schema))]
    result: Set[int] = set()
    for i in range(num_rows):
        for j in range(i + 1, num_rows):
            mask = 0
            for a, column in enumerate(columns):
                if column[i] == column[j]:
                    mask |= 1 << a
            result.add(mask)
    return result


def _couples_of_maximal_classes(
    spdb: StrippedPartitionDatabase,
    mc: Optional[List[Tuple[int, ...]]] = None,
) -> Iterator[Tuple[int, int]]:
    """Yield each candidate couple once, from the classes of ``MC``.

    Couples are deduplicated across overlapping maximal classes so each
    (t, t′) is resolved — and, crucially, *counted* — exactly once.
    The deduplication must happen on the stream, before any chunking:
    a couple shared by two maximal classes could otherwise land in two
    different chunks (or shards of the parallel execution layer), get
    double-counted, and defeat the distinct-couple comparison of
    :func:`empty_agree_set_present`.  *mc* may carry a precomputed
    maximal-class list (the orchestrator reuses it for statistics).
    """
    seen: Set[Tuple[int, int]] = set()
    for cls in (spdb.maximal_classes() if mc is None else mc):
        for couple in combinations(cls, 2):
            if couple not in seen:
                seen.add(couple)
                yield couple


def empty_agree_set_present(spdb: StrippedPartitionDatabase,
                            num_distinct_couples: int) -> bool:
    """Was some pair of tuples never inside a common class?

    Such a pair disagrees on every attribute, hence ``∅ ∈ ag(r)``.
    *num_distinct_couples* must count each visited couple once (see
    :func:`_couples_of_maximal_classes`); a count inflated by re-visits
    across chunk or shard boundaries could reach ``p·(p−1)/2`` and mask
    the empty agree set.
    """
    num_rows = spdb.num_rows
    total_pairs = num_rows * (num_rows - 1) // 2
    return num_distinct_couples < total_pairs


# Backwards-compatible private alias (pre-parallel-layer name).
_empty_agree_set_present = empty_agree_set_present


def iter_distinct_couples(
    spdb: StrippedPartitionDatabase,
    mc: Optional[List[Tuple[int, ...]]] = None,
) -> Iterator[Tuple[int, int]]:
    """The deduplicated candidate-couple stream (each couple once).

    Public entry point for the parallel execution layer, which chunks
    this stream into shards; the deduplication-before-chunking contract
    of :func:`_couples_of_maximal_classes` is what keeps the distinct
    count (and thus the ∅ detection) correct across shard boundaries.
    """
    return _couples_of_maximal_classes(spdb, mc)


def build_class_index_tables(
    spdb: StrippedPartitionDatabase,
) -> List[Dict[int, int]]:
    """Row → class-index table per attribute (Algorithm 2's bit vectors).

    One dict per attribute, mapping each row to the index of its
    stripped class under that attribute (rows in singleton classes are
    absent).  This is the read-only structure both the serial couples
    algorithm and the sharded workers resolve couples against.
    """
    class_of: List[Dict[int, int]] = []
    for _attribute, partition in spdb:
        table: Dict[int, int] = {}
        for class_index, cls in enumerate(partition):
            for row in cls:
                table[row] = class_index
        class_of.append(table)
    return class_of


def resolve_couples_with_tables(
    couples: Iterable[Tuple[int, int]],
    class_of: List[Dict[int, int]],
) -> Set[int]:
    """Agree-set masks of *couples* via the class-index tables.

    The single shared implementation of Algorithm 2's lines 12–16: the
    serial path and every shard of the parallel execution layer call
    exactly this function, which is what makes ``--jobs N`` bit-for-bit
    identical to the serial run.
    """
    result: Set[int] = set()
    for t, t_prime in couples:
        mask = 0
        for attribute, table in enumerate(class_of):
            left = table.get(t)
            if left is not None and left == table.get(t_prime):
                mask |= 1 << attribute
        result.add(mask)
    return result


def resolve_couples_with_identifiers(
    couples: Iterable[Tuple[int, int]],
    identifiers: Dict[int, Dict[int, int]],
) -> Set[int]:
    """Agree-set masks of *couples* via identifier-set intersection.

    The shared implementation of Algorithm 3's Lemma 2 step (serial and
    sharded paths alike).
    """
    empty: Dict[int, int] = {}
    result: Set[int] = set()
    for t, t_prime in couples:
        ec_left = identifiers.get(t, empty)
        ec_right = identifiers.get(t_prime, empty)
        if len(ec_right) < len(ec_left):
            ec_left, ec_right = ec_right, ec_left
        mask = 0
        for attribute, class_index in ec_left.items():
            if ec_right.get(attribute) == class_index:
                mask |= 1 << attribute
        result.add(mask)
    return result


def agree_sets_from_couples(spdb: StrippedPartitionDatabase,
                            max_couples: Optional[int] = None,
                            mc: Optional[List[Tuple[int, ...]]] = None,
                            stats: Optional[Dict[str, int]] = None,
                            metrics: Optional[MetricsRegistry] = None,
                            progress: Optional[ProgressCallback] = None) -> Set[int]:
    """Algorithm 2 (``AGREE_SET``) — couples from ``MC`` + partition sweep.

    *max_couples* bounds the number of couples held in memory at once
    (``None`` = unbounded); the paper processes couples in chunks for the
    same reason.  *stats*, when given, receives the counters
    ``num_couples`` and ``num_chunks``.  *metrics* receives the
    ``agree.couples_enumerated`` counter; *progress* is called every
    :data:`PROGRESS_INTERVAL` couples (stage ``"agree_sets.couples"``)
    and may abort the enumeration by returning ``False``.
    """
    if max_couples is not None and max_couples < 1:
        raise ReproError("max_couples must be a positive integer or None")
    class_of = build_class_index_tables(spdb)

    result: Set[int] = set()
    chunk: List[Tuple[int, int]] = []
    # ``visited`` counts *distinct* couples: the enumeration dedups the
    # stream before chunking, so a couple shared by two maximal classes
    # cannot be double-counted across a chunk boundary (which would
    # break the ∅-detection below).
    visited = 0

    chunks = 0
    for couple in _couples_of_maximal_classes(spdb, mc):
        visited += 1
        chunk.append(couple)
        if max_couples is not None and len(chunk) >= max_couples:
            result |= resolve_couples_with_tables(chunk, class_of)
            chunk = []
            chunks += 1
        if progress is not None and visited % PROGRESS_INTERVAL == 0:
            emit_progress(progress, "agree_sets.couples", visited)
    result |= resolve_couples_with_tables(chunk, class_of)
    if chunk:
        chunks += 1
    if progress is not None and visited:
        emit_progress(progress, "agree_sets.couples", visited, visited)

    if metrics is not None:
        metrics.inc("agree.couples_enumerated", visited)
    if stats is not None:
        stats["num_couples"] = visited
        stats["num_chunks"] = max(chunks, 1 if visited else 0)
    if empty_agree_set_present(spdb, visited):
        result.add(0)
    return result


def agree_sets_from_identifiers(spdb: StrippedPartitionDatabase,
                                mc: Optional[List[Tuple[int, ...]]] = None,
                                stats: Optional[Dict[str, int]] = None,
                                metrics: Optional[MetricsRegistry] = None,
                                progress: Optional[ProgressCallback] = None) -> Set[int]:
    """Algorithm 3 (``AGREE_SET_2``) — identifier-set intersection.

    ``ec(t)`` is the map ``attribute → class index`` of the stripped
    classes containing ``t`` (Lemma 2); the agree set of a couple is the
    set of attributes where both maps give the same class.  *metrics*
    and *progress* behave as in :func:`agree_sets_from_couples`.
    """
    identifiers = spdb.equivalence_class_identifiers()
    result: Set[int] = set()
    visited = 0
    batch: List[Tuple[int, int]] = []
    for couple in _couples_of_maximal_classes(spdb, mc):
        visited += 1
        batch.append(couple)
        if len(batch) >= PROGRESS_INTERVAL:
            result |= resolve_couples_with_identifiers(batch, identifiers)
            batch = []
            if progress is not None:
                emit_progress(progress, "agree_sets.couples", visited)
    result |= resolve_couples_with_identifiers(batch, identifiers)
    if progress is not None and visited:
        emit_progress(progress, "agree_sets.couples", visited, visited)
    if metrics is not None:
        metrics.inc("agree.couples_enumerated", visited)
    if stats is not None:
        stats["num_couples"] = visited
    if empty_agree_set_present(spdb, visited):
        result.add(0)
    return result


AGREE_SET_ALGORITHMS = {
    "couples": agree_sets_from_couples,
    "identifiers": agree_sets_from_identifiers,
}


def check_agree_options(algorithm: str, max_couples: Optional[int]) -> None:
    """Raise the :class:`ReproError` :func:`agree_sets` would raise for
    this configuration (``DepMiner`` checks it at construction)."""
    if algorithm not in AGREE_SET_ALGORITHMS:
        raise ReproError(
            f"unknown agree-set algorithm {algorithm!r}; "
            f"choose from {sorted(AGREE_SET_ALGORITHMS)}"
        )
    if max_couples is not None:
        if algorithm != "couples":
            raise ReproError(
                "max_couples only applies to the 'couples' algorithm"
            )
        if max_couples < 1:
            raise ReproError(
                "max_couples must be a positive integer or None"
            )


def agree_sets(spdb: StrippedPartitionDatabase, algorithm: str = "couples",
               max_couples: Optional[int] = None,
               mc: Optional[List[Tuple[int, ...]]] = None,
               stats: Optional[Dict[str, int]] = None,
               metrics: Optional[MetricsRegistry] = None,
               progress: Optional[ProgressCallback] = None) -> Set[int]:
    """Compute ``ag(r)`` with the chosen algorithm.

    *algorithm* is ``"couples"`` (Algorithm 2, the Dep-Miner default) or
    ``"identifiers"`` (Algorithm 3, Dep-Miner 2).  *max_couples* only
    applies to the couples algorithm.  *metrics*/*progress* are the
    optional observability hooks (see :mod:`repro.obs`).
    """
    check_agree_options(algorithm, max_couples)
    if algorithm == "identifiers":
        return agree_sets_from_identifiers(
            spdb, mc=mc, stats=stats, metrics=metrics, progress=progress
        )
    return agree_sets_from_couples(
        spdb, max_couples=max_couples, mc=mc, stats=stats,
        metrics=metrics, progress=progress,
    )
