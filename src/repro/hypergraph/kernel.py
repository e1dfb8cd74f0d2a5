"""Layered minimal-transversal kernel (reductions + incremental coverage).

The paper's levelwise ``LEFT_HAND_SIDE`` (Algorithm 5) re-tests every
candidate against every edge at every level: ``O(|edges|)`` rescans per
candidate, with the candidate's vertex mask rebuilt from scratch each
time.  On wide schemas — exactly the regime of the paper's scale-up
experiments (Figures 5-7) — that phase dominates Dep-Miner's runtime.
This module rebuilds the search as three layers:

1. **Reduction pass** (:func:`reduce_hypergraph`), run once before any
   search:

   - *edge minimization* — an edge that contains another edge is hit
     whenever the smaller one is, so only the inclusion-minimal edges
     constrain the transversals;
   - *essential vertices* — a singleton edge ``{v}`` forces ``v`` into
     every transversal; ``v`` is committed immediately and the edges it
     hits are dropped (in a simple hypergraph that is exactly the
     singleton itself);
   - *vertex merging* — vertices with identical edge incidence are
     interchangeable: no minimal transversal contains two of them, and
     swapping one for another maps minimal transversals to minimal
     transversals.  Each incidence class is collapsed to one
     representative and expanded back by substitution at the end;
   - *connected components* — edges sharing no vertex constrain
     disjoint parts of a transversal, so the hypergraph splits into
     components whose transversal families combine by cross product
     (sum of sizes, never product, is searched).

2. **Incremental-coverage levelwise core** (:func:`_search_component`):
   each candidate carries an *edge-coverage bitmask* built per level
   from its join parent's mask OR-ed with the new vertex's incidence
   column.  The transversality test becomes a single integer equality
   against the full-coverage mask instead of an ``O(|edges|)`` rescan,
   and candidate vertex masks are carried instead of rebuilt.

3. **Vectorized batch backend** (optional, NumPy): a whole level's
   coverage masks live in lane-packed ``uint64`` arrays (mirroring
   ``repro.columnar.agree``); the per-level transversality test is one
   vectorized compare-and-reduce.  Selected with ``backend="vectorized"``
   and falling back to the pure-Python core (with a logged warning) when
   NumPy is not installed — ``pip install 'repro[fast]'`` provides it.

The kernel is extensionally identical to ``minimal_transversals_levelwise``
— the paper's algorithm, kept as the ablation baseline — and to the
Berge / DFS oracles (``tests/test_transversal_kernel.py`` holds all of
them equal on random simple hypergraphs, with and without ``max_size``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.attributes import popcount
from repro.errors import ReproError
from repro.hypergraph.hypergraph import minimize_sets
from repro.obs.logsetup import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressCallback, emit_progress

try:  # pragma: no cover - exercised via tests monkeypatching `np`
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

__all__ = [
    "HypergraphReduction",
    "reduce_hypergraph",
    "minimal_transversals_kernel",
]

logger = get_logger(__name__)

#: uint64 lanes keep one bit headroom, exactly like ``columnar.agree``:
#: conversions from Python ints never touch the sign bit.
_BITS_PER_LANE = 63

_warned_numpy_missing = False


# -- layer 1: the reduction pass ---------------------------------------------

@dataclass
class HypergraphReduction:
    """Outcome of the preprocessing pass over one edge family.

    *essential* is the mask of vertices committed into every transversal
    (from singleton edges); *components* holds, per connected component,
    the list of remaining edges (masks over representative vertices);
    *groups* maps each representative vertex to the full list of
    vertices sharing its edge incidence (length 1 when nothing merged).
    """

    essential: int = 0
    components: List[List[int]] = field(default_factory=list)
    groups: Dict[int, List[int]] = field(default_factory=dict)
    edges_dropped: int = 0
    vertices_merged: int = 0

    @property
    def num_components(self) -> int:
        return len(self.components)


def reduce_hypergraph(edges: Sequence[int],
                      metrics: Optional[MetricsRegistry] = None
                      ) -> HypergraphReduction:
    """The preprocessing pass: minimize, commit essentials, merge, split.

    Accepts any family of non-empty edges (supersets of other edges are
    dropped first, so the input need not be a simple hypergraph) and
    returns a :class:`HypergraphReduction` whose components jointly have
    the same minimal-transversal family as the input, after adding the
    essential vertices and expanding the merged ones.
    """
    reduction = HypergraphReduction()
    minimal = minimize_sets(edges)
    reduction.edges_dropped = len(edges) - len(minimal)

    # Essential vertices: a singleton edge {v} is hit only by v.  In the
    # minimized (simple) family no other edge contains v, so committing
    # v drops exactly the singletons; the generic filter also covers
    # callers that disabled minimization upstream.
    essential = 0
    for edge in minimal:
        if edge & (edge - 1) == 0:  # exactly one bit set
            essential |= edge
    reduction.essential = essential
    remaining = [edge for edge in minimal if not edge & essential]

    if metrics is not None:
        if reduction.edges_dropped:
            metrics.inc("transversal.edges_dropped", reduction.edges_dropped)
        metrics.inc("transversal.essential_committed", popcount(essential))

    if not remaining:
        return reduction

    # Vertex merging: group the support vertices by their edge-incidence
    # bitmask (bit i of incidence[v] <-> v ∈ remaining[i]).  The bit
    # loop is inlined — this transpose is the hottest part of the pass.
    incidence: Dict[int, int] = {}
    get = incidence.get
    for index, edge in enumerate(remaining):
        bit = 1 << index
        while edge:
            low = edge & -edge
            vertex = low.bit_length() - 1
            incidence[vertex] = get(vertex, 0) | bit
            edge ^= low
    by_incidence: Dict[int, List[int]] = {}
    for vertex in sorted(incidence):
        by_incidence.setdefault(incidence[vertex], []).append(vertex)
    for members in by_incidence.values():
        reduction.groups[members[0]] = members
        reduction.vertices_merged += len(members) - 1
    if metrics is not None:
        metrics.inc("transversal.vertices_merged", reduction.vertices_merged)

    # Rebuild the edges over the representatives by transposing the
    # representatives' incidence columns back (every class member shares
    # the column, so the representatives alone reconstruct each edge).
    rebuilt = [0] * len(remaining)
    for representative in reduction.groups:
        bit = 1 << representative
        column = incidence[representative]
        while column:
            low = column & -column
            rebuilt[low.bit_length() - 1] |= bit
            column ^= low
    reduced_edges = sorted(set(rebuilt))

    # Connected components by support-mask clustering: each edge merges
    # every cluster whose support it overlaps, else it founds a new one.
    # O(|edges| x |clusters|) single-int intersections — no per-vertex
    # union-find walk.
    clusters: List[Tuple[int, List[int]]] = []
    for edge in reduced_edges:
        support = edge
        members = [edge]
        disjoint: List[Tuple[int, List[int]]] = []
        for cluster_support, cluster_edges in clusters:
            if cluster_support & support:
                support |= cluster_support
                members.extend(cluster_edges)
            else:
                disjoint.append((cluster_support, cluster_edges))
        disjoint.append((support, members))
        clusters = disjoint
    reduction.components = [
        sorted(members) for _, members in sorted(clusters)
    ]
    if metrics is not None:
        metrics.inc("transversal.components", len(reduction.components))
    return reduction


# -- layer 2: the incremental-coverage levelwise core ------------------------

class _LevelBudget:
    """Shared per-call observability state across component searches."""

    __slots__ = ("metrics", "progress", "candidates_seen")

    def __init__(self, metrics, progress):
        self.metrics = metrics
        self.progress = progress
        self.candidates_seen = 0

    def level(self, size: int) -> None:
        if self.metrics is not None:
            self.metrics.observe("transversal.level_size", size)
            self.metrics.inc("lhs.candidates_generated", size)
        self.candidates_seen += size
        if self.progress is not None:
            emit_progress(
                self.progress, "transversal.candidates", self.candidates_seen
            )

    def pruned(self, count: int) -> None:
        if count and self.metrics is not None:
            self.metrics.inc("transversal.candidates_pruned", count)


def _join_level(level: List[Tuple[int, ...]], covers: List[int],
                incidence: Dict[int, int],
                budget: _LevelBudget) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """Apriori join carrying coverage masks alongside the index tuples.

    Joins pairs sharing their first ``i - 1`` vertices, prunes candidates
    with an absent size-``i`` subset, and builds each child's coverage as
    ``parent_coverage | incidence[new_vertex]`` — no per-edge rescan.
    """
    present = set(level)
    size = len(level[0])
    next_level: List[Tuple[int, ...]] = []
    next_covers: List[int] = []
    pruned = 0
    for i, left in enumerate(level):
        prefix = left[:-1]
        left_cover = covers[i]
        for j in range(i + 1, len(level)):
            right = level[j]
            if right[:-1] != prefix:
                break
            candidate = left + (right[-1],)
            # Dropping position size gives *left*, position size-1 gives
            # *right* — both present by construction, so only the other
            # size-1 subsets need the Apriori membership test.
            if all(
                candidate[:k] + candidate[k + 1:] in present
                for k in range(size - 1)
            ):
                next_level.append(candidate)
                next_covers.append(left_cover | incidence[candidate[-1]])
            else:
                pruned += 1
    budget.pruned(pruned)
    return next_level, next_covers


def _search_component(edges: List[int], max_size: Optional[int],
                      budget: _LevelBudget, vectorized: bool) -> List[int]:
    """Minimal transversals (≤ *max_size*) of one connected component."""
    incidence: Dict[int, int] = {}
    get = incidence.get
    for index, edge in enumerate(edges):
        bit = 1 << index
        while edge:
            low = edge & -edge
            vertex = low.bit_length() - 1
            incidence[vertex] = get(vertex, 0) | bit
            edge ^= low
    full = (1 << len(edges)) - 1
    if vectorized and np is not None:
        return _search_component_lanes(incidence, full, len(edges),
                                       max_size, budget)

    level: List[Tuple[int, ...]] = [
        (vertex,) for vertex in sorted(incidence)
    ]
    covers: List[int] = [incidence[candidate[0]] for candidate in level]
    found: List[int] = []
    size = 1
    while level:
        budget.level(len(level))
        survivors: List[Tuple[int, ...]] = []
        survivor_covers: List[int] = []
        for candidate, cover in zip(level, covers):
            if cover == full:
                mask = 0
                for vertex in candidate:
                    mask |= 1 << vertex
                found.append(mask)
            else:
                survivors.append(candidate)
                survivor_covers.append(cover)
        if not survivors or (max_size is not None and size >= max_size):
            break
        level, covers = _join_level(survivors, survivor_covers,
                                    incidence, budget)
        size += 1
    return found


# -- layer 3: the lane-packed batch backend ----------------------------------

def _pack_lanes(mask: int, num_lanes: int):
    """One coverage bitmask -> its uint64 lane row."""
    row = np.empty(num_lanes, dtype=np.uint64)
    lane_mask = (1 << _BITS_PER_LANE) - 1
    for lane in range(num_lanes):
        row[lane] = (mask >> (lane * _BITS_PER_LANE)) & lane_mask
    return row


def _search_component_lanes(incidence: Dict[int, int], full: int,
                            num_edges: int, max_size: Optional[int],
                            budget: _LevelBudget) -> List[int]:
    """The NumPy backend: evaluate a whole level's coverage at once.

    Candidate tuples and the Apriori join stay in Python (they are
    data-dependent and cheap); the coverage accumulation and the
    transversality test — the ``O(level × edges)`` part — run as
    vectorized uint64 lane operations over the entire level.
    """
    num_lanes = (num_edges + _BITS_PER_LANE - 1) // _BITS_PER_LANE
    vertices = sorted(incidence)
    vertex_row = {vertex: row for row, vertex in enumerate(vertices)}
    incidence_lanes = np.stack([
        _pack_lanes(incidence[vertex], num_lanes) for vertex in vertices
    ])
    full_lanes = _pack_lanes(full, num_lanes)

    level: List[Tuple[int, ...]] = [(vertex,) for vertex in vertices]
    covers = incidence_lanes.copy()
    found: List[int] = []
    size = 1
    while level:
        budget.level(len(level))
        complete = (covers == full_lanes).all(axis=1)
        for index in np.flatnonzero(complete):
            mask = 0
            for vertex in level[int(index)]:
                mask |= 1 << vertex
            found.append(mask)
        if complete.all() or (max_size is not None and size >= max_size):
            break
        keep = np.flatnonzero(~complete)
        survivors = [level[int(index)] for index in keep]
        covers = covers[keep]

        # The join emits (parent row, new vertex) pairs; the children's
        # coverage is one vectorized gather + OR over the whole level.
        present = set(survivors)
        next_level: List[Tuple[int, ...]] = []
        parent_rows: List[int] = []
        new_rows: List[int] = []
        pruned = 0
        for i, left in enumerate(survivors):
            prefix = left[:-1]
            for j in range(i + 1, len(survivors)):
                right = survivors[j]
                if right[:-1] != prefix:
                    break
                candidate = left + (right[-1],)
                # As in _join_level: left/right are the two trailing
                # subsets, present by construction.
                if all(
                    candidate[:k] + candidate[k + 1:] in present
                    for k in range(size - 1)
                ):
                    next_level.append(candidate)
                    parent_rows.append(i)
                    new_rows.append(vertex_row[candidate[-1]])
                else:
                    pruned += 1
        budget.pruned(pruned)
        if not next_level:
            break
        covers = covers[np.asarray(parent_rows, dtype=np.intp)] | \
            incidence_lanes[np.asarray(new_rows, dtype=np.intp)]
        level = next_level
        size += 1
    return found


# -- the public kernel -------------------------------------------------------

def _resolve_backend(backend: str) -> bool:
    global _warned_numpy_missing
    if backend == "python":
        return False
    if backend != "vectorized":
        raise ReproError(
            f"unknown kernel backend {backend!r}; "
            f"choose 'python' or 'vectorized'"
        )
    if np is None:
        if not _warned_numpy_missing:
            logger.warning(
                "transversal backend 'vectorized' needs NumPy, which is "
                "not installed; falling back to the pure-Python kernel "
                "(pip install 'repro[fast]' to enable it)"
            )
            _warned_numpy_missing = True
        return False
    return True


def minimal_transversals_kernel(edges: Sequence[int], num_vertices: int = 0,
                                max_size: Optional[int] = None,
                                metrics: Optional[MetricsRegistry] = None,
                                progress: Optional[ProgressCallback] = None,
                                backend: str = "python",
                                reductions: bool = True,
                                tracer=None) -> List[int]:
    """All minimal transversals (of size ≤ *max_size*) via the kernel.

    Extensionally identical to
    :func:`~repro.hypergraph.transversals.minimal_transversals_levelwise`
    — same inputs, same sorted bitmask output, same ``max_size``
    semantics (sound but incomplete truncation) — but runs the layered
    pipeline documented in the module docstring.  *backend* selects the
    coverage evaluator (``"python"`` big-int masks or ``"vectorized"``
    NumPy lanes; the latter silently degrades to the former when NumPy
    is missing).  *reductions* = ``False`` skips the preprocessing pass
    (ablation only — the incremental-coverage core still runs).

    *metrics* receives the same ``transversal.level_size`` /
    ``lhs.candidates_generated`` series as the levelwise search plus the
    reduction counters (``transversal.essential_committed``,
    ``transversal.vertices_merged``, ``transversal.components``,
    ``transversal.edges_dropped``, ``transversal.candidates_pruned``);
    *progress* sees the cumulative ``"transversal.candidates"`` stage;
    *tracer* optionally wraps the reduction pass in a
    ``transversal.reduce`` span carrying the reduction outcome as
    attributes.
    """
    if any(edge == 0 for edge in edges):
        raise ReproError("hypergraph edges must be non-empty")
    if max_size is not None and max_size < 1:
        raise ReproError("max_size must be a positive integer or None")
    vectorized = _resolve_backend(backend)
    if not edges:
        return [0]

    budget = _LevelBudget(metrics, progress)
    if reductions:
        if tracer is not None:
            with tracer.span("transversal.reduce",
                             edges=len(edges)) as span:
                reduction = reduce_hypergraph(edges, metrics=metrics)
                if span.attrs:  # a disabled tracer yields an inert span
                    span.attrs.update(
                        essential=popcount(reduction.essential),
                        merged=reduction.vertices_merged,
                        components=reduction.num_components,
                        edges_dropped=reduction.edges_dropped,
                    )
        else:
            reduction = reduce_hypergraph(edges, metrics=metrics)
    else:
        reduction = HypergraphReduction(
            components=[minimize_sets(edges)] if edges else [],
        )
        if metrics is not None:
            metrics.inc("transversal.components", len(reduction.components))

    remaining_budget = None
    if max_size is not None:
        remaining_budget = max_size - popcount(reduction.essential)
        if remaining_budget < 0:
            return []
        if remaining_budget == 0:
            return [] if reduction.components else [reduction.essential]

    families: List[List[int]] = []
    for component in reduction.components:
        family = _search_component(component, remaining_budget, budget,
                                   vectorized)
        if not family:
            # max_size truncated this component away: every global
            # transversal needs a part from each component, so none fits.
            return []
        families.append(family)

    combos = [reduction.essential]
    for family in families:
        merged = []
        for base in combos:
            for transversal in family:
                combined = base | transversal
                if max_size is None or popcount(combined) <= max_size:
                    merged.append(combined)
        combos = merged
        if not combos:
            return []

    if reduction.groups and any(
        len(members) > 1 for members in reduction.groups.values()
    ):
        expanded: List[int] = []
        for combo in combos:
            expanded.extend(_expand_merged(combo, reduction.groups))
        combos = expanded
    return sorted(combos)


def _expand_merged(mask: int, groups: Dict[int, List[int]]) -> List[int]:
    """Substitute each merged representative by every class member."""
    results = [mask]
    for representative, members in groups.items():
        if len(members) == 1:
            continue
        bit = 1 << representative
        expanded: List[int] = []
        for current in results:
            if current & bit:
                base = current ^ bit
                for member in members:
                    expanded.append(base | (1 << member))
            else:
                expanded.append(current)
        results = expanded
    return results
