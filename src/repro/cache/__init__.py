"""Content-addressed artifact cache and incremental re-mining.

The cache layer makes repeated and growing workloads cheap:

- :mod:`repro.cache.fingerprint` — row-order-insensitive relation
  fingerprints and per-stage content keys;
- :mod:`repro.cache.store` — the two-tier (memory LRU + disk)
  :class:`ArtifactStore` holding ``ag(r)`` and FD cover bundles;
- :mod:`repro.cache.codec` — the compact versioned binary format of the
  disk tier (corruption-safe: bad entries decode to cache misses);
- :mod:`repro.cache.incremental` — :class:`IncrementalMiner`, the
  append-only delta path of both backends: it reads the new couples'
  agree sets off per-attribute value groups and re-derives the tail.

Entry points: ``DepMiner(cache=ArtifactStore(...))`` for transparent
memoization, ``IncrementalMiner(relation, cache=...)`` for append
workloads, ``repro discover --cache-dir/--append`` on the CLI.  Design
and invalidation rules: ``docs/caching.md``.
"""

from repro.cache.codec import guard_digest
from repro.cache.fingerprint import (
    PipelineKeys,
    RelationFingerprint,
    fingerprint_relation,
    stage_key,
)
from repro.cache.incremental import IncrementalMiner
from repro.cache.store import ArtifactStore

__all__ = [
    "ArtifactStore",
    "IncrementalMiner",
    "PipelineKeys",
    "RelationFingerprint",
    "fingerprint_relation",
    "guard_digest",
    "stage_key",
]
