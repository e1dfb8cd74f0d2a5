"""Left-hand sides of minimal FDs (section 3.3, algorithm ``LEFT_HAND_SIDE``).

``lhs(dep(r), A)`` — the minimal attribute sets determining ``A`` — equals
the set of minimal transversals of the simple hypergraph
``cmax(dep(r), A)`` (section 2).  The paper computes them with a levelwise
algorithm adapting Apriori-gen; that algorithm lives in
:mod:`repro.hypergraph.transversals` and is shared with the TANE→Armstrong
extension (which needs the inverse direction ``Tr(lhs) = cmax``).

Corner cases, both exercised by the tests:

- ``cmax(dep(r), A) = ∅`` (no edge): ``A`` is constant, the only minimal
  transversal is ``∅`` and the minimal FD is ``∅ → A``.
- ``{A}`` itself always appears in ``lhs(dep(r), A)`` when ``A`` is not
  constant (every edge of ``cmax`` contains ``A``); ``FD_OUTPUT`` filters
  the trivial ``A → A`` (Algorithm 6).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.attributes import AttributeSet, Schema, popcount
from repro.fd.fd import FD
from repro.hypergraph.transversals import minimal_transversals
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressCallback, emit_progress

__all__ = [
    "left_hand_sides",
    "fd_output",
]


def left_hand_sides(cmax: Dict[int, List[int]], schema: Schema,
                    method: str = "levelwise",
                    max_size: Optional[int] = None,
                    metrics: Optional[MetricsRegistry] = None,
                    progress: Optional[ProgressCallback] = None,
                    tracer=None) -> Dict[int, List[int]]:
    """``lhs(dep(r), A)`` for every attribute, as bitmask lists.

    *cmax* maps each attribute index to the edges of ``cmax(dep(r), A)``;
    each family goes through
    :func:`~repro.hypergraph.transversals.minimal_transversals` with
    *method* (``"kernel"`` is the reduction + incremental-coverage
    kernel DepMiner defaults to, ``"levelwise"`` the paper's
    Algorithm 5, ``"berge"`` the sequential baseline).  *max_size*
    bounds the lhs size (levelwise and kernel only): the result is
    then every minimal lhs of at most that many attributes (sound but
    incomplete — the usual wide-schema trade-off).

    *metrics* receives ``transversal.level_size`` /
    ``lhs.candidates_generated`` from the levelwise searches (plus the
    ``transversal.*`` reduction counters from the kernel); *progress*
    reports one ``"lhs.attributes"`` step per attribute (any method) and
    per-level steps inside the levelwise searches.  *tracer* optionally
    wraps each attribute's kernel reduction in a ``transversal.reduce``
    span.
    """
    width = len(schema)
    result: Dict[int, List[int]] = {}
    for done, (attribute, edges) in enumerate(cmax.items()):
        if progress is not None:
            emit_progress(progress, "lhs.attributes", done, len(cmax))
        result[attribute] = minimal_transversals(
            edges, width, method, max_size=max_size, metrics=metrics,
            progress=progress, tracer=tracer,
        )
    if progress is not None and cmax:
        emit_progress(progress, "lhs.attributes", len(cmax), len(cmax))
    return result


def fd_output(lhs_sets: Dict[int, List[int]], schema: Schema) -> List[FD]:
    """Algorithm 6 (``FD_OUTPUT``): minimal non-trivial FDs from lhs sets.

    Emits ``X → A`` for every ``X ∈ lhs(dep(r), A)`` except the trivial
    ``{A} → A``.  (Any other lhs containing ``A`` cannot occur: minimal
    transversals of ``cmax(dep(r), A)`` that contain ``A`` are exactly
    ``{A}``, because ``A`` alone already hits every edge.)  The FDs are
    built in :func:`~repro.fd.fd.sort_fds` order — by attribute, then
    by ``(|X|, X)`` — so no FD objects are sorted afterwards.  FDs with
    the same lhs share one immutable :class:`AttributeSet`.
    """
    fds: List[FD] = []
    lhs_of: Dict[int, AttributeSet] = {}
    for attribute in sorted(lhs_sets):
        bit = 1 << attribute
        for mask in sorted(lhs_sets[attribute],
                           key=lambda mask: (popcount(mask), mask)):
            if mask == bit:
                continue
            lhs = lhs_of.get(mask)
            if lhs is None:
                lhs = lhs_of[mask] = AttributeSet(schema, mask)
            fds.append(FD(lhs, attribute))
    return fds
