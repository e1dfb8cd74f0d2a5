"""Depth-first minimal-transversal search (FastFDs-style), a test oracle.

The year after Dep-Miner, FastFDs [Wyss, Giannella, Robertson 2001]
replaced the levelwise transversal computation with an ordered
depth-first search over *difference sets* (exactly the ``cmax`` edges of
this paper).  It is not part of the paper's pipeline, so it lives with
the tests: an independent search strategy the transversal kernel, the
levelwise search and Berge's method are checked against.

Sketch: at each node, order the still-usable vertices by how many
uncovered edges they hit (descending, ties by vertex index); branch on
each vertex in order, allowing deeper levels to use only vertices that
come *after* the branching vertex in the current ordering.  This visits
every cover at most once; non-minimal covers are filtered by a final
witness check (every chosen vertex must hit some edge no other chosen
vertex hits).
"""

from __future__ import annotations

from typing import List, Sequence, Set

from repro.core.attributes import iter_bits
from repro.errors import ReproError

__all__ = ["minimal_transversals_dfs"]


def minimal_transversals_dfs(edges: Sequence[int],
                             num_vertices: int) -> List[int]:
    """All minimal transversals of a simple hypergraph, by ordered DFS."""
    if any(edge == 0 for edge in edges):
        raise ReproError("hypergraph edges must be non-empty")
    if not edges:
        return [0]
    edges = list(edges)
    results: Set[int] = set()

    def is_minimal(chosen_mask: int) -> bool:
        for vertex_bit in _bits(chosen_mask):
            rest = chosen_mask ^ vertex_bit
            if all(edge & rest for edge in edges):
                return False
        return True

    def recurse(uncovered: List[int], chosen_mask: int,
                allowed: List[int]) -> None:
        if not uncovered:
            if is_minimal(chosen_mask):
                results.add(chosen_mask)
            return
        coverage = []
        for vertex in allowed:
            bit = 1 << vertex
            count = sum(1 for edge in uncovered if edge & bit)
            if count:
                coverage.append((count, vertex))
        if not coverage:
            return  # dead branch: uncovered edges, no usable vertex
        coverage.sort(key=lambda pair: (-pair[0], pair[1]))
        ordered = [vertex for _count, vertex in coverage]
        for position, vertex in enumerate(ordered):
            bit = 1 << vertex
            remaining = [edge for edge in uncovered if not edge & bit]
            recurse(remaining, chosen_mask | bit, ordered[position + 1:])

    support = 0
    for edge in edges:
        support |= edge
    recurse(edges, 0, list(iter_bits(support)))
    return sorted(results)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low
