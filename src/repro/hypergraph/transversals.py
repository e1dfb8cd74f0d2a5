"""Minimal transversals of simple hypergraphs, and the one dispatcher.

:func:`minimal_transversals` is the only place a method name becomes a
search.  Besides the layered kernel of :mod:`repro.hypergraph.kernel`
(the production default of :class:`~repro.core.depminer.DepMiner`), it
offers the legacy algorithms, kept as differential oracles and ablation
baselines:

- :func:`minimal_transversals_levelwise` — the paper's Algorithm 5
  (``LEFT_HAND_SIDE``), a levelwise search that adapts the Apriori-gen
  candidate generation of [AS94]: level ``i`` holds the candidate vertex
  sets of size ``i``; the transversals found at a level are removed before
  the next level is generated, so every superset of a found transversal is
  pruned (it could not be minimal).

- :func:`minimal_transversals_berge` — Berge's sequential method, used as
  a correctness oracle and ablation baseline: fold edges one at a time,
  maintaining the minimal transversals of the prefix.

Both operate on bitmask edges and return bitmask transversals.  The empty
hypergraph (no edges) has the single minimal transversal ``∅``, which is
what makes constant columns come out as ``∅ → A`` in Dep-Miner.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.attributes import iter_bits, popcount
from repro.errors import ReproError
from repro.hypergraph.hypergraph import minimize_sets
from repro.hypergraph.kernel import minimal_transversals_kernel
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressCallback, emit_progress

__all__ = [
    "resolve_transversal",
    "minimal_transversals",
    "minimal_transversals_levelwise",
    "minimal_transversals_berge",
    "apriori_gen",
]


def apriori_gen(level: Sequence[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Apriori-gen candidate generation [AS94], on sorted index tuples.

    Joins pairs of size-``i`` sets sharing their first ``i − 1`` elements,
    then prunes any candidate with a size-``i`` subset not present in
    *level*.

    >>> apriori_gen([(0, 1), (0, 2), (1, 2), (1, 3)])
    [(0, 1, 2)]
    """
    if not level:
        return []
    size = len(level[0])
    ordered = sorted(level)
    present = set(ordered)
    candidates: List[Tuple[int, ...]] = []
    for i, left in enumerate(ordered):
        prefix = left[:-1]
        for right in ordered[i + 1:]:
            if right[:-1] != prefix:
                break
            candidate = left + (right[-1],)
            if all(
                candidate[:k] + candidate[k + 1:] in present
                for k in range(size + 1)
            ):
                candidates.append(candidate)
    return candidates


def minimal_transversals_levelwise(edges: Sequence[int],
                                   num_vertices: int,
                                   max_size: Optional[int] = None,
                                   metrics: Optional[MetricsRegistry] = None,
                                   progress: Optional[ProgressCallback] = None) -> List[int]:
    """Algorithm 5 of the paper: levelwise minimal-transversal search.

    ``L1`` is initialised with the vertices appearing in some edge; at
    each level the candidates hitting every edge are reported as minimal
    transversals and removed, and Apriori-gen builds the next level from
    the survivors.

    *max_size* optionally stops the search after that level: the result
    is then every minimal transversal of size ≤ *max_size* (sound but
    incomplete) — the standard mitigation for wide schemas, where the
    candidate space ``C(|R|, k)`` explodes with the level ``k``.

    *metrics* receives one ``transversal.level_size`` histogram sample
    and one ``lhs.candidates_generated`` increment per level; *progress*
    is called once per level (stage ``"transversal.candidates"``, with
    the cumulative candidate count) and may abort by returning ``False``.
    """
    if any(edge == 0 for edge in edges):
        raise ReproError("hypergraph edges must be non-empty")
    if max_size is not None and max_size < 1:
        raise ReproError("max_size must be a positive integer or None")
    if not edges:
        return [0]
    # Test small edges first: `all(mask & edge ...)` short-circuits on
    # the first edge a candidate misses, and a low-popcount edge is the
    # likeliest miss.  Transversality is order-independent and the
    # result is sorted below, so the output is unchanged.
    edges = sorted(edges, key=popcount)
    support = 0
    for edge in edges:
        support |= edge
    level: List[Tuple[int, ...]] = [
        (vertex,) for vertex in iter_bits(support)
    ]
    # Vertex masks are carried alongside the sorted index tuples: a
    # child's mask is its join parent's mask OR the new vertex's bit,
    # never rebuilt with a per-vertex shift loop inside the level scan.
    masks: Dict[Tuple[int, ...], int] = {
        candidate: 1 << candidate[0] for candidate in level
    }
    found: List[int] = []
    size = 1
    candidates_seen = 0
    while level:
        if metrics is not None:
            metrics.observe("transversal.level_size", len(level))
            metrics.inc("lhs.candidates_generated", len(level))
        candidates_seen += len(level)
        if progress is not None:
            emit_progress(progress, "transversal.candidates", candidates_seen)
        survivors: List[Tuple[int, ...]] = []
        for candidate in level:
            mask = masks[candidate]
            if all(mask & edge for edge in edges):
                found.append(mask)
            else:
                survivors.append(candidate)
        if max_size is not None and size >= max_size:
            break
        level = apriori_gen(survivors)
        # Apriori-gen's subset prune guarantees candidate[:-1] survived
        # the previous level, so its mask is present to extend.
        masks = {
            candidate: masks[candidate[:-1]] | (1 << candidate[-1])
            for candidate in level
        }
        size += 1
    return sorted(found)


def minimal_transversals_berge(edges: Sequence[int],
                               num_vertices: int) -> List[int]:
    """Berge's sequential algorithm (correctness oracle / ablation).

    Maintains ``Tr(H_k)`` for the prefix of the first ``k`` edges: a
    transversal already hitting the next edge is kept as-is; otherwise it
    is extended by every vertex of the new edge, and the result is
    minimized under inclusion.
    """
    if any(edge == 0 for edge in edges):
        raise ReproError("hypergraph edges must be non-empty")
    current: List[int] = [0]
    for edge in edges:
        extended: List[int] = []
        for transversal in current:
            if transversal & edge:
                extended.append(transversal)
            else:
                for vertex in iter_bits(edge):
                    extended.append(transversal | (1 << vertex))
        current = minimize_sets(extended)
    return sorted(current)


#: The searches :func:`minimal_transversals` maps a method name to.
METHODS = ("kernel", "levelwise", "berge")


def resolve_transversal(method: str, max_size: Optional[int] = None) -> str:
    """The canonical name of *method*, checked together with *max_size*.

    Raises the typed :class:`ReproError` a search would raise for this
    configuration: an unknown name, a *max_size* below 1, or a
    *max_size* with ``"berge"``, which enumerates complete families
    only.  ``"vectorized"`` resolves to ``"kernel"``.  ``DepMiner``
    calls it at construction and
    :func:`~repro.parallel.shards.parallel_cmax_lhs` before it ships
    the name to its workers.
    """
    if method == "vectorized":
        # The name of the kernel's deleted NumPy lane backend, kept only
        # because perfbench/layers.py:217 and :295 still pass it; the
        # benchmark change of ROADMAP item 1 drops it.
        method = "kernel"
    if method not in METHODS:
        raise ReproError(
            f"unknown transversal method {method!r}; "
            f"choose from {sorted(METHODS)}"
        )
    if max_size is not None:
        if method == "berge":
            raise ReproError(
                "max_size is only supported by the levelwise and kernel "
                "methods"
            )
        if max_size < 1:
            raise ReproError("max_size must be a positive integer or None")
    return method


def minimal_transversals(edges: Sequence[int], num_vertices: int,
                         method: str = "levelwise",
                         max_size: Optional[int] = None,
                         metrics: Optional[MetricsRegistry] = None,
                         progress: Optional[ProgressCallback] = None,
                         tracer=None) -> List[int]:
    """The minimal transversals of *edges* by the search named *method*.

    The one place a method name becomes a search: ``"levelwise"`` (the
    paper's Algorithm 5, the default), ``"kernel"`` (the reduction +
    incremental-coverage kernel of :mod:`repro.hypergraph.kernel`,
    ``DepMiner``'s default) or ``"berge"`` (the sequential oracle).
    Every method returns the same sorted family.

    *max_size* keeps the transversals of at most that many vertices
    (levelwise and kernel only; see :func:`resolve_transversal`).
    *metrics* and *progress* reach the levelwise and kernel searches
    (the ``transversal.level_size`` / ``lhs.candidates_generated``
    series, plus the kernel's reduction counters); *tracer* wraps the
    kernel's reduction pass in a ``transversal.reduce`` span.  Berge
    takes none of them.
    """
    method = resolve_transversal(method, max_size)
    if method == "kernel":
        return minimal_transversals_kernel(
            edges, num_vertices, max_size=max_size, metrics=metrics,
            progress=progress, tracer=tracer,
        )
    if method == "levelwise":
        return minimal_transversals_levelwise(
            edges, num_vertices, max_size=max_size, metrics=metrics,
            progress=progress,
        )
    return minimal_transversals_berge(edges, num_vertices)
