"""``repro.parallel`` — the sharded process-pool execution layer.

Dep-Miner's two dominant costs are embarrassingly parallel, and this
package is the ``--jobs N`` machinery that exploits it:

- :mod:`repro.parallel.executor` — :class:`ShardedExecutor`: a pool of
  forked workers with a guaranteed-identical serial fallback, picklable
  :class:`Shard` work descriptors (each task carries its map's
  read-only context), a bounded in-flight window, a per-shard timeout,
  cancellation through the progress-callback channel, and worker
  observability (seconds + counters) relayed back through the result
  queue.  Pooled maps run on a lazily-built :class:`PersistentPool`
  reused across maps, runs and service requests;
- :mod:`repro.parallel.shards` — the pipeline integrations:
  :func:`parallel_agree_sets` (couple chunks resolved against shared
  read-only row → class-index tables) and :func:`parallel_cmax_lhs`
  (``CMAX_SET`` + transversal search fanned out per RHS attribute).

``jobs=1`` — the default of every entry point — is *exactly* today's
serial pipeline; any ``jobs`` value yields bit-for-bit identical FD
covers, agree sets, cmax sets and Armstrong relations (held by the
differential suite in ``tests/test_parallel.py`` and the
backend × jobs × cache oracle grid).  Where the platform cannot fork,
``jobs > 1`` raises :class:`~repro.errors.ReproError` at construction.
See ``docs/parallel.md`` for the design notes.
"""

from __future__ import annotations

from repro.parallel.executor import (
    PersistentPool,
    Shard,
    ShardedExecutor,
    ShardError,
    ShardOutcome,
    ShardTimeoutError,
    register_shard_kind,
    resolve_jobs,
)
from repro.parallel.shards import parallel_agree_sets, parallel_cmax_lhs

__all__ = [
    "PersistentPool",
    "Shard",
    "ShardOutcome",
    "ShardError",
    "ShardTimeoutError",
    "ShardedExecutor",
    "register_shard_kind",
    "resolve_jobs",
    "parallel_agree_sets",
    "parallel_cmax_lhs",
]
