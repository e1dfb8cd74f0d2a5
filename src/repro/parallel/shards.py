"""The Dep-Miner integrations of the sharded executor.

**Agree-set sharding** (:func:`parallel_agree_sets`) — the parent
enumerates the deduplicated couple stream of the maximal equivalence
classes (exactly once per couple, *before* chunking: see
:func:`repro.core.agree_sets.iter_distinct_couples` for why the distinct
count matters to the ``∅ ∈ ag(r)`` test), splits it into
``max_couples``-sized chunks, and ships each chunk to a worker.  Workers
resolve their chunk against the shared read-only row → class-index
tables (Algorithm 2) or identifier maps (Algorithm 3) — the *same*
resolution functions the serial algorithms call — and the parent unions
the partial ``ag(r)`` fragments.  Set union is commutative, so the
result is independent of completion order.

**Per-RHS-attribute lhs fan-out** (:func:`parallel_cmax_lhs`) — each
attribute's ``max(dep(r), A)`` derivation, complementation and minimal
transversal search touch only ``ag(r)`` and the attribute index, so the
whole ``CMAX_SET`` + ``LEFT_HAND_SIDE`` tail of the pipeline shards by
RHS attribute.  Workers return ``(attribute, max, cmax, lhs)`` tuples
that the parent reassembles into the usual per-attribute dicts, in
schema order.

Both orchestrators are deterministic by construction: shard payloads are
built from sorted inputs, every shard runs the serial code path, and
reassembly is keyed (by shard index / attribute index), never by
completion order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.agree_sets import (
    build_class_index_tables,
    check_agree_options,
    empty_agree_set_present,
    iter_distinct_couples,
    resolve_couples_with_identifiers,
    resolve_couples_with_tables,
)
from repro.core.attributes import Schema
from repro.core.maximal_sets import maximal_sets_for_attribute
from repro.hypergraph.transversals import (
    minimal_transversals,
    resolve_transversal,
)
from repro.obs import get_logger
from repro.parallel import shm
from repro.parallel.executor import ShardedExecutor, register_shard_kind
from repro.partitions.database import StrippedPartitionDatabase

__all__ = [
    "parallel_agree_sets",
    "parallel_cmax_lhs",
]

logger = get_logger(__name__)

#: Auto shard granularity: aim for this many chunks per worker, so the
#: pool stays busy without drowning in tiny pickled payloads.
CHUNKS_PER_WORKER = 4

#: Never split below this many couples per shard (pickling a couple
#: costs more than resolving it).
MIN_CHUNK_COUPLES = 256

#: Only pack agree masks into a shared uint64 matrix above this count;
#: smaller lists pickle faster than they pack.
PACK_MIN_MASKS = 256


# -- worker functions (run in the pool; shared context via initializer) -----

@register_shard_kind("agree.couples")
def _agree_couples_shard(shared, payload, metrics) -> Set[int]:
    """Resolve one couple chunk against the row → class-index tables."""
    metrics.inc("agree.couples_enumerated", len(payload))
    return resolve_couples_with_tables(payload, shared["class_of"])


@register_shard_kind("agree.identifiers")
def _agree_identifiers_shard(shared, payload, metrics) -> Set[int]:
    """Resolve one couple chunk by identifier-set intersection."""
    metrics.inc("agree.couples_enumerated", len(payload))
    return resolve_couples_with_identifiers(payload, shared["identifiers"])


@register_shard_kind("lhs.attribute")
def _lhs_attribute_shard(shared, payload, metrics):
    """``CMAX_SET`` + transversal search for one RHS attribute.

    The shard-local *metrics* registry goes straight into the search,
    so its candidate counters, ``transversal.level_size`` histogram and
    reduction counters flow back to the parent exactly as in a serial
    run.
    """
    attribute = payload
    agree: Optional[List[int]] = shared.get("agree")
    if agree is None:
        # The parent shipped the agree masks as a packed uint64 matrix
        # through the shared-memory arena; unpack once per worker per
        # map generation and cache the list back into the (per-process)
        # decoded context so sibling shards reuse it.
        from repro.parallel.shm import unpack_masks

        agree = unpack_masks(shared["agree_packed"])
        shared["agree"] = agree
    max_masks = maximal_sets_for_attribute(agree, attribute)
    cmax = sorted(shared["universe"] & ~mask for mask in max_masks)
    lhs = minimal_transversals(
        cmax, shared["width"], shared["method"],
        max_size=shared["max_size"], metrics=metrics,
    )
    return attribute, max_masks, cmax, lhs


# -- orchestrators (run in the parent) --------------------------------------

def _chunk_size(num_couples: int, jobs: int,
                max_couples: Optional[int]) -> int:
    """Couples per shard: the explicit memory bound, or an auto split."""
    if max_couples is not None:
        return max_couples
    auto = -(-num_couples // max(jobs * CHUNKS_PER_WORKER, 1))
    return max(auto, min(MIN_CHUNK_COUPLES, num_couples) or 1)


def parallel_agree_sets(spdb: StrippedPartitionDatabase,
                        executor: ShardedExecutor,
                        algorithm: str = "couples",
                        max_couples: Optional[int] = None,
                        mc: Optional[List[Tuple[int, ...]]] = None,
                        stats: Optional[Dict[str, int]] = None) -> Set[int]:
    """``ag(r)`` by sharding the couple stream over *executor*.

    Bit-for-bit identical to the serial algorithms: the couples are
    deduplicated before chunking (so ``num_couples`` counts each couple
    once and the ``∅`` detection stays sound), every chunk is resolved
    by the shared serial resolution function, and the union of partial
    results is order-independent.  *algorithm* is ``"couples"``
    (Algorithm 2; workers get the row → class-index tables) or
    ``"identifiers"`` (Algorithm 3; workers get the identifier maps).
    """
    check_agree_options(algorithm, max_couples)
    if algorithm == "couples":
        kind = "agree.couples"
        shared = {"class_of": build_class_index_tables(spdb)}
    else:
        kind = "agree.identifiers"
        shared = {"identifiers": spdb.equivalence_class_identifiers()}

    couples = list(iter_distinct_couples(spdb, mc))
    visited = len(couples)
    size = _chunk_size(visited, executor.jobs, max_couples)
    chunks = [
        tuple(couples[offset:offset + size])
        for offset in range(0, visited, size)
    ]
    logger.debug(
        "sharded agree sets: %d couples into %d chunks of <=%d (%s, %s)",
        visited, len(chunks), size, algorithm, executor,
    )
    result: Set[int] = set()
    for partial in executor.map(kind, chunks, shared=shared,
                                stage="agree_sets.shards"):
        result |= partial
    if stats is not None:
        stats["num_couples"] = visited
        stats["num_chunks"] = len(chunks)
    if empty_agree_set_present(spdb, visited):
        result.add(0)
    return result


def parallel_cmax_lhs(agree, schema: Schema,
                      executor: ShardedExecutor,
                      method: str = "levelwise",
                      max_size: Optional[int] = None):
    """Fan ``CMAX_SET`` + the transversal search out per RHS attribute.

    Returns ``(max_sets, cmax_sets, lhs_sets)`` — the same three
    per-attribute dicts the serial pipeline builds in its cmax and lhs
    phases, reassembled in schema order regardless of which worker
    finished first.
    """
    agree_sorted = sorted(agree)
    shared = {
        "width": len(schema),
        "universe": schema.universe_mask,
        "method": resolve_transversal(method, max_size),
        "max_size": max_size,
    }
    if (len(agree_sorted) >= PACK_MIN_MASKS
            and getattr(executor, "shm_active", False)
            and shm.numpy_available()):
        # Zero-copy variant: the agree bitsets travel as one packed
        # uint64 matrix through the arena instead of a pickled list of
        # arbitrary-precision ints.  Workers unpack lazily (once per
        # map generation) — unpack(pack(x)) is exact at any width, so
        # the search sees the very same masks.
        shared["agree_packed"] = shm.pack_masks(agree_sorted, len(schema))
    else:
        shared["agree"] = agree_sorted
    attributes = list(range(len(schema)))
    outcomes = executor.map(
        "lhs.attribute", attributes, shared=shared, stage="lhs.shards"
    )
    max_sets: Dict[int, List[int]] = {}
    cmax_sets: Dict[int, List[int]] = {}
    lhs_sets: Dict[int, List[int]] = {}
    for attribute, max_masks, cmax, lhs in outcomes:
        max_sets[attribute] = max_masks
        cmax_sets[attribute] = cmax
        lhs_sets[attribute] = lhs
    return max_sets, cmax_sets, lhs_sets
