"""Pack/unpack pipeline artefacts to codec-representable payloads.

The store (:mod:`repro.cache.store`) only traffics in plain containers
of ints and strings; these helpers translate the pipeline's artefacts —
``ag(r)`` mask sets, the per-attribute cmax/lhs families and the FD
cover — into that shape and back.

Unpackers always build *fresh* containers (and re-validate through the
normal constructors), so artefacts coming out of the cache are never
aliased with the store's copy: mutating a returned result cannot poison
later hits.

Payload schemas (informal; ``docs/caching.md`` documents the on-disk
framing around them):

- ``agree``       ``{"agree": {mask…}, "stats": {...}}``;
- ``cover``       ``{"agree": {mask…}, "max": {attr: [mask…]},
  "cmax": …, "lhs": …, "fds": [(lhs_mask, rhs)…], "stats": {...}}``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro.core.attributes import AttributeSet, Schema
from repro.errors import CacheCodecError
from repro.fd.fd import FD

__all__ = [
    "pack_agree",
    "unpack_agree",
    "pack_cover",
    "unpack_cover",
]


def pack_agree(agree: Set[int], stats: Dict[str, int]) -> Dict[str, Any]:
    """``ag(r)`` plus the enumeration counters it was computed with."""
    return {"agree": set(agree), "stats": _int_stats(stats)}


def unpack_agree(payload: Dict[str, Any]) -> Tuple[Set[int], Dict[str, int]]:
    try:
        return set(payload["agree"]), dict(payload["stats"])
    except Exception as error:
        raise CacheCodecError(f"invalid agree payload: {error}") from error


def pack_cover(agree: Set[int],
               max_sets: Dict[int, List[int]],
               cmax_sets: Dict[int, List[int]],
               lhs_sets: Dict[int, List[int]],
               fds: List[FD],
               stats: Dict[str, int]) -> Dict[str, Any]:
    """The full derivation bundle behind one mined FD cover."""
    return {
        "agree": set(agree),
        "max": {attr: list(masks) for attr, masks in max_sets.items()},
        "cmax": {attr: list(masks) for attr, masks in cmax_sets.items()},
        "lhs": {attr: list(masks) for attr, masks in lhs_sets.items()},
        "fds": [(fd.lhs.mask, fd.rhs_index) for fd in fds],
        "stats": _int_stats(stats),
    }


def unpack_cover(payload: Dict[str, Any], schema: Schema):
    """``(agree, max_sets, cmax_sets, lhs_sets, fds, stats)`` — fresh
    containers, FDs rebuilt over *schema* (one :class:`AttributeSet`
    per distinct lhs, as :func:`repro.core.lhs.fd_output` builds
    them)."""
    try:
        agree = set(payload["agree"])
        max_sets = {
            attr: list(masks) for attr, masks in payload["max"].items()
        }
        cmax_sets = {
            attr: list(masks) for attr, masks in payload["cmax"].items()
        }
        lhs_sets = {
            attr: list(masks) for attr, masks in payload["lhs"].items()
        }
        lhs_of: Dict[int, AttributeSet] = {}
        fds = []
        for lhs_mask, rhs in payload["fds"]:
            lhs = lhs_of.get(lhs_mask)
            if lhs is None:
                lhs = lhs_of[lhs_mask] = AttributeSet(schema, lhs_mask)
            fds.append(FD(lhs, rhs))
        stats = dict(payload["stats"])
        return agree, max_sets, cmax_sets, lhs_sets, fds, stats
    except Exception as error:
        raise CacheCodecError(f"invalid cover payload: {error}") from error


def _int_stats(stats: Dict[str, int]) -> Dict[str, int]:
    return {name: value for name, value in stats.items()
            if isinstance(value, int)}
