"""Maximal sets and their complements (section 3.2, algorithm ``CMAX_SET``).

For an attribute ``A``, ``max(dep(r), A)`` is the family of maximal
attribute sets *not* determining ``A``.  Lemma 3 characterises it directly
from the agree sets:

    ``max(dep(r), A) = Max⊆ { X ∈ ag(r) : A ∉ X }``

The empty agree set participates like any other candidate: it is the
maximal non-determining set for ``A`` precisely when ``A`` is not constant
yet no non-empty agree set avoids ``A`` (e.g. two tuples disagreeing on
everything).  When *no* candidate exists at all, ``A`` is constant in the
relation and ``max(dep(r), A) = ∅``, which downstream yields the FD
``∅ → A``.

``cmax(dep(r), A)`` is the edge-wise complement ``{R \\ X}``; it is a
simple hypergraph whose minimal transversals are the lhs of the minimal
FDs with rhs ``A`` (section 2).

Read incrementally, the same lemma says which families an append can
move: a new agree set ``Y`` changes ``max(dep(r), A)`` only when
``A ∉ Y`` and no current maximal set of ``A`` covers ``Y``
(:func:`grow_maximal_sets`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.core.attributes import Schema
from repro.hypergraph.hypergraph import maximize_sets

__all__ = [
    "maximal_sets",
    "maximal_sets_for_attribute",
    "grow_maximal_sets",
    "complement_maximal_sets",
    "max_set_union",
    "disagree_sets",
    "cmax_from_disagree_sets",
]


def maximal_sets_for_attribute(agree: Iterable[int],
                               attribute: int) -> List[int]:
    """``max(dep(r), A)`` for one attribute, from ``ag(r)`` bitmasks.

    The independent per-attribute unit of Lemma 3; :func:`maximal_sets`
    is this helper over every attribute, and the parallel execution
    layer fans exactly this computation out per RHS attribute.
    """
    bit = 1 << attribute
    candidates = [mask for mask in agree if not mask & bit]
    return maximize_sets(candidates)


def maximal_sets(agree: Iterable[int], schema: Schema) -> Dict[int, List[int]]:
    """``max(dep(r), A)`` for every attribute, from ``ag(r)`` bitmasks.

    Returns a mapping ``attribute index → sorted list of maximal masks``.
    An attribute mapped to an empty list is constant in the relation.
    """
    agree = list(agree)
    return {
        attribute: maximal_sets_for_attribute(agree, attribute)
        for attribute in range(len(schema))
    }


def grow_maximal_sets(max_sets: Dict[int, List[int]],
                      added: Iterable[int]) -> Tuple[Dict[int, List[int]],
                                                     List[int]]:
    """``max(dep(r), A)`` per attribute after ``ag(r)`` gained *added*.

    *max_sets* are the families over the old ``ag(r)``; the result is
    ``(families over ag(r) ∪ added, the attributes whose family
    changed)``.  Per attribute, the added masks without ``A`` that no
    current maximal set covers join the family, which is maximized
    again — ``Max(Max(S) ∪ T) = Max(S ∪ T)``.  So ``R`` never joins
    (it holds ``A``), and ``∅`` joins only an empty family: an append
    that breaks a constant column.  An unchanged attribute keeps its
    list object; *max_sets* itself is not modified.

    >>> grow_maximal_sets({0: [0b010], 1: [0b001]}, [0b110, 0b001])
    ({0: [6], 1: [1]}, [0])
    """
    added = list(added)
    grown: Dict[int, List[int]] = {}
    changed: List[int] = []
    for attribute, masks in max_sets.items():
        bit = 1 << attribute
        fresh = [
            mask for mask in added
            if not mask & bit
            and not any(mask & kept == mask for kept in masks)
        ]
        if fresh:
            grown[attribute] = maximize_sets(masks + fresh)
            changed.append(attribute)
        else:
            grown[attribute] = masks
    return grown, changed


def complement_maximal_sets(max_sets: Dict[int, List[int]],
                            schema: Schema) -> Dict[int, List[int]]:
    """``cmax(dep(r), A) = {R \\ X : X ∈ max(dep(r), A)}`` per attribute.

    The complement of an antichain of maximal sets is an antichain of
    minimal sets, i.e. a simple hypergraph — no extra minimisation is
    needed.  Note every edge contains ``A`` itself (since ``A ∉ X``).
    """
    universe = schema.universe_mask
    return {
        attribute: sorted(universe & ~mask for mask in masks)
        for attribute, masks in max_sets.items()
    }


def disagree_sets(agree: Iterable[int], schema: Schema) -> List[int]:
    """``d(r) = {R \\ X : X ∈ ag(r)}`` — the complements of the agree sets.

    Figure 1 of the paper shows this alternative route (the upper
    branch): agree sets → complement/R → disagree sets → complements of
    maximal sets.  Footnote 3 credits [MR94a] with the corresponding
    characterisation.
    """
    universe = schema.universe_mask
    return sorted({universe & ~mask for mask in agree})


def cmax_from_disagree_sets(disagree: Iterable[int],
                            schema: Schema) -> Dict[int, List[int]]:
    """``cmax(dep(r), A) = Min⊆ {D ∈ d(r) : A ∈ D}`` per attribute.

    The dual of Lemma 3: complementation maps the *maximal* agree sets
    avoiding ``A`` to the *minimal* disagree sets containing ``A``.
    Extensionally equal to composing :func:`maximal_sets` with
    :func:`complement_maximal_sets` (asserted by the tests); provided so
    both branches of the paper's Figure 1 exist in code.
    """
    from repro.hypergraph.hypergraph import minimize_sets

    disagree = list(disagree)
    result: Dict[int, List[int]] = {}
    for attribute in range(len(schema)):
        bit = 1 << attribute
        candidates = [mask for mask in disagree if mask & bit]
        result[attribute] = minimize_sets(candidates)
    return result


def max_set_union(max_sets: Dict[int, List[int]]) -> List[int]:
    """``MAX(dep(r)) = ⋃_A max(dep(r), A)`` with duplicates removed.

    The same maximal set is typically maximal for several attributes; the
    union keeps it once.  Sorted for determinism.  ``MAX(dep(r))`` equals
    ``GEN(dep(r))``, the intersection generators of the closed-set family
    [MR86, MR94b], which is what the Armstrong construction consumes.
    """
    union: Set[int] = set()
    for masks in max_sets.values():
        union.update(masks)
    return sorted(union)
