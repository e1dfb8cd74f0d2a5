"""``repro.parallel`` — the sharded process-pool execution layer.

Dep-Miner's two dominant costs are embarrassingly parallel, and this
package is the ``--jobs N`` machinery that exploits it:

- :mod:`repro.parallel.executor` — :class:`ShardedExecutor`: a process
  pool with a guaranteed-identical serial fallback, picklable
  :class:`Shard` work descriptors, a bounded in-flight window, a
  per-shard timeout, cancellation through the progress-callback
  channel, and worker observability (seconds + counters) relayed back
  through the result queue.  Pooled maps run on a lazily-built
  :class:`PersistentPool` reused across maps, runs and service
  requests;
- :mod:`repro.parallel.shm` — :class:`SharedArrayArena`: zero-copy
  publication of the heavy read-only shard context (packed agree
  bitsets, pickled-once blobs) through
  ``multiprocessing.shared_memory``, with graceful inline fallback
  when NumPy or shared memory is unavailable;
- :mod:`repro.parallel.shards` — the pipeline integrations:
  :func:`parallel_agree_sets` (couple chunks resolved against shared
  read-only row → class-index tables) and :func:`parallel_cmax_lhs`
  (``CMAX_SET`` + transversal search fanned out per RHS attribute).

``jobs=1`` — the default of every entry point — is *exactly* today's
serial pipeline; any ``jobs`` value yields bit-for-bit identical FD
covers, agree sets, cmax sets and Armstrong relations (held by the
differential suite in ``tests/test_parallel.py`` and the
backend × jobs × cache oracle grid, plus its shared-memory-off cell).  See
``docs/parallel.md`` for the design notes.
"""

from __future__ import annotations

from repro.parallel.executor import (
    MpContextError,
    PersistentPool,
    Shard,
    ShardedExecutor,
    ShardError,
    ShardOutcome,
    ShardTimeoutError,
    register_shard_kind,
    resolve_jobs,
    resolve_start_method,
)
from repro.parallel.shards import parallel_agree_sets, parallel_cmax_lhs
from repro.parallel.shm import SharedArrayArena, shm_available

__all__ = [
    "MpContextError",
    "PersistentPool",
    "Shard",
    "ShardOutcome",
    "ShardError",
    "ShardTimeoutError",
    "ShardedExecutor",
    "SharedArrayArena",
    "register_shard_kind",
    "resolve_jobs",
    "resolve_start_method",
    "shm_available",
    "parallel_agree_sets",
    "parallel_cmax_lhs",
]
