"""Layered minimal-transversal kernel (reductions + incremental coverage).

The paper's levelwise ``LEFT_HAND_SIDE`` (Algorithm 5) re-tests every
candidate against every edge at every level: ``O(|edges|)`` rescans per
candidate, with the candidate's vertex mask rebuilt from scratch each
time.  On wide schemas — exactly the regime of the paper's scale-up
experiments (Figures 5-7) — that phase dominates Dep-Miner's runtime.
This module rebuilds the search as three layers, all on Python ints
used as bitmasks, over one *incidence transpose* per call: each vertex
mapped to its *column*, the bitmask of the (deduplicated) edges it
lies in.  The transpose is built once and shared by every reduction
step and by the search.

1. **Reduction pass** (:func:`reduce_hypergraph`), run once before any
   search:

   - *essential vertices* — a singleton edge ``{v}`` forces ``v`` into
     every transversal; ``v`` is committed immediately and every edge
     it hits leaves the columns of the others;
   - *vertex merging* — vertices with identical columns are
     interchangeable: no minimal transversal contains two of them, and
     swapping one for another maps minimal transversals to minimal
     transversals.  Each class is collapsed to one representative and
     expanded back by substitution at the end;
   - *connected components* — vertices whose columns share no edge
     constrain disjoint parts of a transversal, so the hypergraph
     splits into components whose transversal families combine by
     cross product (sum of sizes, never product, is searched).

   There is no edge minimization.  Every caller passes a simple family:
   ``cmax(dep(r), A)`` and the key hypergraph are complements of
   antichains (see
   :func:`~repro.core.maximal_sets.complement_maximal_sets`), so an
   ``O(k²)`` subset sweep finds nothing to drop.  The search is exact
   on any family anyway — a superset edge is covered whenever its
   subset is, so it never changes which candidates are transversals;
   on a non-simple family the reductions only find less to merge or
   split.

2. **Levelwise core over** ``{vertex mask: coverage}``
   (:func:`_search_component`): each candidate carries the bitmask of
   the edges it covers, and is a transversal when that mask is full —
   one integer equality instead of an ``O(|edges|)`` rescan.  The
   Apriori join groups a level's survivors by ``mask ^ highest bit``
   (the pairs the sorted-tuple join forms), prunes a child unless
   ``child ^ v`` survived for every prefix bit ``v``, and builds the
   child's coverage as its parent's coverage OR the new vertex's
   column.

3. **Vectorized batch backend** (optional, NumPy): a whole level's
   coverage masks live in lane-packed ``uint64`` arrays (mirroring
   ``repro.columnar.agree``); the per-level transversality test is one
   vectorized compare-and-reduce.  It runs only when a caller names
   ``backend="vectorized"`` — on every measured cmax family it is
   slower than the mask core — and falls back to that core (with a
   logged warning) when NumPy is not installed.

The kernel is extensionally identical to ``minimal_transversals_levelwise``
— the paper's algorithm, kept as the ablation baseline — and to the
Berge / DFS oracles (``tests/test_transversal_kernel.py`` holds all of
them equal on random simple hypergraphs, with and without ``max_size``,
and the kernel equal to the levelwise search of the minimized family on
raw families with duplicate, superset and singleton edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.attributes import popcount
from repro.errors import ReproError
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
    the incidence columns of its representative vertices (``{vertex:
    column}``, bit ``i`` of a column set iff the vertex lies in edge
    ``i`` of the deduplicated family); *groups* maps each representative
    vertex to the full list of vertices sharing its column (length 1
    when nothing merged).
    """

    essential: int = 0
    components: List[Dict[int, int]] = field(default_factory=list)
    groups: Dict[int, List[int]] = field(default_factory=dict)
    vertices_merged: int = 0

    @property
    def num_components(self) -> int:
        return len(self.components)


def _incidence(edges: Sequence[int]) -> Dict[int, int]:
    """The incidence transpose: vertex -> bitmask of the edges it lies in,
    in ascending vertex order.

    Transposed as a matrix of binary strings — one ``format`` per edge
    and one ``int(..., 2)`` per vertex — so no Python-level loop runs
    per (edge, vertex) bit; cmax edges are complements of small maximal
    sets, so they are dense and that loop dominated the pass.
    """
    if not edges:
        return {}
    width = max(edges).bit_length()
    # Row i is edge k-1-i, lowest vertex first: column v, read top to
    # bottom, is vertex v's incidence with edge k-1 as its leading bit.
    rows = [format(edge, f"0{width}b")[::-1] for edge in reversed(edges)]
    incidence: Dict[int, int] = {}
    for vertex, bits in enumerate(zip(*rows)):
        column = int("".join(bits), 2)
        if column:
            incidence[vertex] = column
    return incidence


def reduce_hypergraph(edges: Sequence[int],
                      metrics: Optional[MetricsRegistry] = None
                      ) -> HypergraphReduction:
    """The preprocessing pass: commit essentials, merge, split.

    Accepts any family of non-empty edges and returns a
    :class:`HypergraphReduction` whose components jointly have the same
    minimal-transversal family as the input, after adding the essential
    vertices and expanding the merged ones.  Duplicate edges collapse;
    an edge containing another stays (see the module docstring), which
    only leaves the merge and split steps less to find.
    """
    reduction = HypergraphReduction()
    unique = sorted(set(edges))
    incidence = _incidence(unique)

    # Essential vertices: a singleton edge {v} is hit only by v.
    essential = 0
    for edge in unique:
        if edge & (edge - 1) == 0:  # exactly one bit set
            essential |= edge
    reduction.essential = essential
    if metrics is not None:
        metrics.inc("transversal.essential_committed", popcount(essential))

    # Committing them satisfies every edge they hit: those edge bits
    # leave every column, and a vertex with no edge left drops out.
    satisfied = 0
    rest = essential
    while rest:
        low = rest & -rest
        satisfied |= incidence[low.bit_length() - 1]
        rest ^= low

    # Vertex merging: vertices with identical columns are one class,
    # searched through its lowest member.
    by_column: Dict[int, List[int]] = {}
    for vertex, column in incidence.items():
        column &= ~satisfied
        if column:
            by_column.setdefault(column, []).append(vertex)
    if not by_column:
        return reduction
    pending: Dict[int, int] = {}
    for column, members in by_column.items():
        reduction.groups[members[0]] = members
        reduction.vertices_merged += len(members) - 1
        pending[members[0]] = column
    if metrics is not None:
        metrics.inc("transversal.vertices_merged", reduction.vertices_merged)

    # Connected components: grow each from its lowest pending vertex,
    # sweeping the pending columns until none meets the grown edge
    # support.  They are searched in order of their vertex masks (a
    # max_size search stops at the first one that comes back empty).
    clusters: List[Tuple[int, Dict[int, int]]] = []
    while pending:
        seed = next(iter(pending))
        support = pending.pop(seed)
        component = {seed: support}
        vertices = 1 << seed
        grown = True
        while grown:
            grown = False
            unreached: Dict[int, int] = {}
            for vertex, column in pending.items():
                if column & support:
                    support |= column
                    component[vertex] = column
                    vertices |= 1 << vertex
                    grown = True
                else:
                    unreached[vertex] = column
            pending = unreached
        clusters.append((vertices, component))
    clusters.sort(key=lambda entry: entry[0])
    reduction.components = [component for _, component in clusters]
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


def _join_masks(survivors: Dict[int, int], columns: Dict[int, int],
                budget: _LevelBudget) -> Dict[int, int]:
    """Apriori join over ``{vertex mask: coverage}``.

    Survivors sharing all but their highest vertex (the same pairs the
    sorted-tuple join forms) are joined; a child is pruned unless
    ``child ^ v`` survived for every prefix bit ``v`` (dropping either
    highest vertex gives a parent, present by construction).  A child's
    coverage is its left parent's OR the column of the right parent's
    highest bit (*columns* is keyed by vertex bit) — no per-edge rescan.
    """
    groups: Dict[int, List[int]] = {}
    for mask in survivors:
        prefix = mask ^ (1 << (mask.bit_length() - 1))
        group = groups.get(prefix)
        if group is None:
            groups[prefix] = [mask]
        else:
            group.append(mask)
    children: Dict[int, int] = {}
    pruned = 0
    for prefix, members in groups.items():
        if len(members) < 2:
            continue
        prefix_bits = []
        rest = prefix
        while rest:
            low = rest & -rest
            prefix_bits.append(low)
            rest ^= low
        for i, left in enumerate(members):
            left_cover = survivors[left]
            for right in members[i + 1:]:
                child = left | right
                for bit in prefix_bits:
                    if child ^ bit not in survivors:
                        pruned += 1
                        break
                else:
                    children[child] = left_cover | columns[right ^ prefix]
    budget.pruned(pruned)
    return children


def _search_component(columns: Dict[int, int], max_size: Optional[int],
                      budget: _LevelBudget) -> List[int]:
    """Minimal transversals (≤ *max_size*) of one connected component.

    *columns* maps each vertex to its incidence column; a level maps
    each candidate's vertex mask to the edges it covers, and a
    candidate is a transversal when that coverage is full.
    """
    by_bit: Dict[int, int] = {}
    full = 0
    for vertex, column in columns.items():
        by_bit[1 << vertex] = column
        full |= column
    level = dict(by_bit)
    found: List[int] = []
    size = 1
    while level:
        budget.level(len(level))
        # Transversals leave the level in place instead of the rest
        # being copied out: one more large dict per level grew the
        # process heap (glibc keeps freed large blocks on the heap).
        complete = [mask for mask, cover in level.items() if cover == full]
        found.extend(complete)
        for mask in complete:
            del level[mask]
        if not level or (max_size is not None and size >= max_size):
            break
        level = _join_masks(level, by_bit, budget)
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


def _search_component_lanes(columns: Dict[int, int],
                            max_size: Optional[int],
                            budget: _LevelBudget) -> List[int]:
    """The NumPy backend: evaluate a whole level's coverage at once.

    Candidate tuples and the Apriori join stay in Python; the coverage
    accumulation and the transversality test — the ``O(level × edges)``
    part — run as vectorized uint64 lane operations over the entire
    level.  Only a caller naming ``"vectorized"`` runs it: on every
    measured cmax family it is slower than the mask core above.
    """
    full = 0
    for column in columns.values():
        full |= column
    num_lanes = (full.bit_length() + _BITS_PER_LANE - 1) // _BITS_PER_LANE
    vertices = sorted(columns)
    vertex_row = {vertex: row for row, vertex in enumerate(vertices)}
    incidence_lanes = np.stack([
        _pack_lanes(columns[vertex], num_lanes) for vertex in vertices
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
                # Dropping either trailing vertex gives left or right,
                # present by construction.
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
    ``transversal.candidates_pruned``);
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
                    )
        else:
            reduction = reduce_hypergraph(edges, metrics=metrics)
    else:
        reduction = HypergraphReduction(
            components=[_incidence(sorted(set(edges)))],
        )
        if metrics is not None:
            metrics.inc("transversal.components", 1)

    remaining_budget = None
    if max_size is not None:
        remaining_budget = max_size - popcount(reduction.essential)
        if remaining_budget < 0:
            return []
        if remaining_budget == 0:
            return [] if reduction.components else [reduction.essential]

    search = _search_component_lanes if vectorized else _search_component
    families: List[List[int]] = []
    for component in reduction.components:
        family = search(component, remaining_budget, budget)
        if not family:
            # max_size truncated this component away: every global
            # transversal needs a part from each component, so none fits.
            return []
        families.append(family)

    combos = [reduction.essential]
    for family in families:
        combos = [base | transversal
                  for base in combos for transversal in family]
        if max_size is not None:
            combos = [combo for combo in combos
                      if popcount(combo) <= max_size]
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
