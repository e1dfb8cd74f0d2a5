"""Candidate-key discovery from data (unique column combinations).

A set ``X`` is a key of the *instance* ``r`` exactly when no two tuples
agree on all of ``X`` — i.e. ``X`` is contained in no agree set.  The
minimal such sets are therefore the minimal transversals of the
complements of the *maximal agree sets*:

    ``keys(r) = Tr({R \\ X : X ∈ Max⊆ ag(r)})``

which drops straight out of the same machinery Dep-Miner uses for FD
left-hand sides (it is the ``A = "every attribute"`` analogue of
section 3.3).  This is the instance-level counterpart of
:func:`repro.fd.keys.candidate_keys`, which works from a declared FD
set; the two agree on any relation whose FDs were mined from the data,
and the tests assert that.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.core.agree_sets import agree_sets
from repro.core.attributes import AttributeSet, Schema
from repro.core.relation import Relation
from repro.hypergraph.hypergraph import maximize_sets
from repro.hypergraph.transversals import minimal_transversals
from repro.partitions.database import StrippedPartitionDatabase

__all__ = ["discover_keys", "keys_from_agree_sets"]


def keys_from_agree_sets(agree: Iterable[int], schema: Schema,
                         method: str = "kernel") -> List[AttributeSet]:
    """The minimal keys of a relation whose ``ag(r)`` is *agree*.

    ``Tr({R \\ X : X ∈ Max⊆ ag(r)})``, sorted by mask.  An agree set
    equal to the universe means duplicate tuples: nothing distinguishes
    them, so no attribute set is unique and the result is empty.  No
    agree set at all (an empty or single-tuple relation) leaves the
    empty hypergraph, keyed by the empty set.  *method* picks the
    transversal algorithm; every method returns the same list.
    """
    universe = schema.universe_mask
    maximal_agree = maximize_sets(agree)
    if universe in maximal_agree:
        return []  # duplicate tuples: no attribute set is unique
    edges = [universe & ~mask for mask in maximal_agree]
    return [
        AttributeSet(schema, mask)
        for mask in minimal_transversals(edges, len(schema), method=method)
    ]


def discover_keys(relation: Relation, method: str = "kernel",
                  nulls_equal: bool = True) -> List[AttributeSet]:
    """All minimal unique column combinations of *relation*.

    Strips the relation, sweeps its agree sets and hands them to
    :func:`keys_from_agree_sets`: duplicate tuples make the result
    empty, an empty or single-tuple relation is keyed by the empty set.
    *method* picks the transversal algorithm.
    """
    spdb = StrippedPartitionDatabase.from_relation(
        relation, nulls_equal=nulls_equal
    )
    return keys_from_agree_sets(agree_sets(spdb), relation.schema,
                                method=method)
