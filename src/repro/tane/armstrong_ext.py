"""TANE extended with Armstrong-relation generation (section 5.1).

TANE produces left-hand sides, not maximal sets — so unlike Dep-Miner it
cannot emit Armstrong relations "for free".  The paper observes that for
a simple hypergraph ``H``, ``Tr(Tr(H)) = H`` (Berge's nihilpotence), and
since ``Tr(cmax(dep(r), A)) = lhs(dep(r), A)``, the complements of the
maximal sets can be recovered *from* the lhs families:

    ``cmax(dep(r), A) = Tr(lhs(dep(r), A))``

From there the maximal sets are edge-wise complements, their union is
``MAX(dep(r))``, and the constructions of section 4 apply.  This module
implements exactly that extension — it is the "adapted algorithm" the
paper argues is necessarily slower than Dep-Miner because the transversal
computation happens *after* FD discovery instead of alongside it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.core.armstrong import (
    classical_armstrong,
    real_world_armstrong,
    real_world_armstrong_exists,
)
from repro.core.relation import Relation
from repro.hypergraph.transversals import minimal_transversals
from repro.tane.tane import Tane, TaneResult

__all__ = ["TaneArmstrongResult", "tane_with_armstrong", "cmax_from_lhs"]


class TaneArmstrongResult:
    """TANE output augmented with maximal sets and Armstrong relations."""

    def __init__(self, tane_result: TaneResult,
                 cmax_sets: Dict[int, List[int]],
                 max_sets: Dict[int, List[int]],
                 max_union: List[int],
                 armstrong: Optional[Relation],
                 classical: Relation,
                 extension_seconds: float):
        self.tane_result = tane_result
        self.cmax_sets = cmax_sets
        self.max_sets = max_sets
        self.max_union = max_union
        self.armstrong = armstrong
        self.classical_armstrong = classical
        self.extension_seconds = extension_seconds

    @property
    def fds(self):
        return self.tane_result.fds

    @property
    def total_seconds(self) -> float:
        return self.tane_result.total_seconds + self.extension_seconds


def cmax_from_lhs(lhs_sets: Dict[int, List[int]], width: int,
                  method: str = "levelwise") -> Dict[int, List[int]]:
    """``cmax(dep(r), A) = Tr(lhs(dep(r), A))`` per attribute.

    An attribute whose lhs family is ``{∅}`` (constant column) has no
    cmax edge — ``Tr({∅})`` does not exist as a simple hypergraph, and
    indeed ``max(dep(r), A) = ∅`` in that case.
    """
    cmax: Dict[int, List[int]] = {}
    for attribute, masks in lhs_sets.items():
        if 0 in masks:
            cmax[attribute] = []
        else:
            cmax[attribute] = minimal_transversals(masks, width, method=method)
    return cmax


def tane_with_armstrong(relation: Relation, epsilon: float = 0.0,
                        tracer=None, metrics=None,
                        progress=None) -> TaneArmstrongResult:
    """Run TANE, then derive maximal sets and build Armstrong relations.

    ``cmax`` comes back from the lhs families through the levelwise
    transversal search.  The real-world relation is built when
    Proposition 1 allows it (``armstrong`` is ``None`` otherwise); the
    classical integer-valued relation is always built.
    *tracer*/*metrics*/*progress* are forwarded to
    :class:`~repro.tane.tane.Tane`; the extension itself runs inside a
    ``tane.armstrong_extension`` span.
    """
    from repro.obs import NULL_TRACER

    tane_result = Tane(
        epsilon=epsilon, tracer=tracer, metrics=metrics, progress=progress
    ).run(relation)
    span_tracer = tracer if tracer is not None else NULL_TRACER
    start = time.perf_counter()
    with span_tracer.span("tane.armstrong_extension"):
        schema = tane_result.schema
        universe = schema.universe_mask
        lhs_sets = tane_result.lhs_sets()
        cmax = cmax_from_lhs(lhs_sets, len(schema))
        max_sets = {
            attribute: sorted(universe & ~edge for edge in edges)
            for attribute, edges in cmax.items()
        }
        union = sorted({mask for masks in max_sets.values() for mask in masks})
        classical = classical_armstrong(schema, union)
        armstrong = None
        if real_world_armstrong_exists(relation, union):
            armstrong = real_world_armstrong(relation, union)
    extension_seconds = time.perf_counter() - start
    return TaneArmstrongResult(
        tane_result=tane_result,
        cmax_sets=cmax,
        max_sets=max_sets,
        max_union=union,
        armstrong=armstrong,
        classical=classical,
        extension_seconds=extension_seconds,
    )
