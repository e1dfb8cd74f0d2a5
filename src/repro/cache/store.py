"""The two-tier content-addressed artifact store.

``ArtifactStore`` memoizes pipeline artefacts under the stage keys of
:mod:`repro.cache.fingerprint`:

- an **in-memory LRU tier** holding the decoded payloads of the most
  recently used artefacts (cheap hits within one process — the warm
  re-mine path);
- an optional **on-disk tier** (``cache_dir``) persisting every artefact
  through the framed binary codec of :mod:`repro.cache.codec`, so warm
  hits survive process restarts and can be shared between workers.

Lookups are *corruption-safe*: a disk entry that fails to decode —
truncated file, bad checksum, foreign format version, kind or guard
mismatch — is deleted and reported as a miss, and the pipeline simply
recomputes the artefact.  Every lookup passes the caller's 16-byte
*guard* digest (schema + row count, :func:`repro.cache.codec.guard_digest`),
which both tiers verify before returning a payload: a fingerprint
collision between relations of different shape is rejected instead of
served.

The disk tier is additionally *quarantine-guarded*: real IO errors
(permission loss, a full or failing disk — anything ``OSError`` except
the ordinary missing-entry miss) are counted as ``cache.io_error``, and
after ``max_disk_failures`` of them the tier is disabled for the rest
of the session (``cache.quarantined``).  The store then behaves exactly
like a memory-only store — a sick disk degrades the cache, never the
miner.  The fault sites ``cache.disk_read`` / ``cache.disk_write``
(:mod:`repro.reliability.faults`) inject precisely these errors, plus
torn reads via byte truncation, so the quarantine and the atomic-write
crash window stay exercised by tests.

The store is *thread-safe*: one process-wide instance can serve any
number of concurrent sessions (the shape of ``repro serve``).  A single
:class:`threading.RLock` guards the memory-tier ``OrderedDict`` (whose
``get``/``move_to_end``/``popitem`` sequences are not atomic on their
own), the ``stats`` counters, and the IO-failure/quarantine state; disk
reads and writes deliberately run *outside* the lock (they are
per-entry atomic via ``os.replace`` and the decode-time guard check),
so a slow disk never serializes memory-tier hits.

The store only holds plain codec-representable payloads (ints, strings,
containers); the pack/unpack helpers of :mod:`repro.cache.artifacts`
translate between those and the pipeline's object types, building fresh
containers on every unpack so cached payloads are never aliased by
callers.

Observability: the store keeps lifetime totals in :attr:`stats` and
mirrors each event into the per-call :class:`~repro.obs.MetricsRegistry`
(counters ``cache.hit`` / ``cache.miss`` / ``cache.evict`` /
``cache.memory_hit`` / ``cache.disk_hit`` / ``cache.disk_corrupt`` /
``cache.guard_reject`` / ``cache.put``), so a traced run shows exactly
which artefacts were reused.
"""

from __future__ import annotations

import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.cache.codec import decode_artifact, encode_artifact
from repro.errors import CacheCodecError, CacheError
from repro.obs import NULL_METRICS, MetricsRegistry, get_logger
from repro.reliability.faults import fault_point, filter_bytes

__all__ = ["ArtifactStore", "DEFAULT_MEMORY_ENTRIES", "DEFAULT_DISK_FAILURES"]

logger = get_logger(__name__)

#: Default capacity of the in-memory LRU tier (artefact count, not bytes:
#: entries are a handful of mask lists, small next to the relation).
DEFAULT_MEMORY_ENTRIES = 64

#: Disk-tier IO errors tolerated before the tier is quarantined for the
#: session.  Small on purpose: one full disk produces an error per
#: artefact write, and three strikes is enough signal.
DEFAULT_DISK_FAILURES = 3

_COUNTER_NAMES = (
    "cache.hit", "cache.miss", "cache.evict", "cache.memory_hit",
    "cache.disk_hit", "cache.disk_corrupt", "cache.guard_reject",
    "cache.put", "cache.io_error", "cache.quarantined",
)


class ArtifactStore:
    """Two-tier (memory LRU + optional disk) content-addressed store.

    Parameters
    ----------
    cache_dir:
        Directory of the persistent tier; ``None`` keeps the store
        memory-only.  Created on first write if missing.
    max_memory_entries:
        LRU capacity of the in-memory tier; ``0`` disables it (every
        hit then decodes from disk).
    max_disk_failures:
        Disk IO errors (reads or writes, excluding ordinary missing-file
        misses) tolerated before the disk tier is quarantined for the
        rest of the session.
    """

    def __init__(self, cache_dir: Optional[os.PathLike] = None,
                 max_memory_entries: int = DEFAULT_MEMORY_ENTRIES,
                 max_disk_failures: int = DEFAULT_DISK_FAILURES):
        if max_memory_entries < 0:
            raise CacheError("max_memory_entries must be non-negative")
        if max_disk_failures < 1:
            raise CacheError("max_disk_failures must be at least 1")
        self._dir = Path(cache_dir) if cache_dir is not None else None
        self._max_memory = max_memory_entries
        self._max_disk_failures = max_disk_failures
        self._io_failures = 0
        self._quarantined = False
        self._memory: "OrderedDict[Tuple[str, str], Tuple[bytes, Any]]" = \
            OrderedDict()
        self.stats: Dict[str, int] = {name: 0 for name in _COUNTER_NAMES}
        # One reentrant lock for every shared mutable: the LRU dict, the
        # stats counters and the quarantine state.  Reentrant because
        # locked sections count events (_count) and log evictions.
        self._lock = threading.RLock()

    # -- helpers -------------------------------------------------------------

    def _count(self, name: str, metrics: MetricsRegistry) -> None:
        with self._lock:
            self.stats[name] += 1
        metrics.inc(name)

    def _note_io_failure(self, operation: str, error: BaseException,
                         metrics: MetricsRegistry) -> None:
        """Count a real disk IO error; quarantine the tier at threshold."""
        with self._lock:
            self._io_failures += 1
            failures = self._io_failures
            quarantine_now = (not self._quarantined
                              and failures >= self._max_disk_failures)
            if quarantine_now:
                self._quarantined = True
        self._count("cache.io_error", metrics)
        logger.warning(
            "cache disk %s failed (%d/%d before quarantine): %s",
            operation, failures, self._max_disk_failures, error,
        )
        if quarantine_now:
            self._count("cache.quarantined", metrics)
            logger.error(
                "cache disk tier quarantined after %d IO errors; "
                "continuing memory-only for this session (%s)",
                failures, self._dir,
            )

    def _path(self, kind: str, key: str) -> Path:
        # kind and key are both [a-z0-9.-]; flat layout keeps eviction
        # and inspection trivial (`ls cache_dir`).
        return self._dir / f"{kind}-{key}.rpc"

    # -- lookups -------------------------------------------------------------

    def get(self, kind: str, key: str, guard: bytes,
            metrics: MetricsRegistry = NULL_METRICS) -> Optional[Any]:
        """The payload stored under ``(kind, key)``, or ``None``.

        *guard* must match the digest recorded at :meth:`put` time; a
        mismatch counts as ``cache.guard_reject`` and misses.  Disk
        entries that fail to decode are deleted and miss
        (``cache.disk_corrupt``).
        """
        with self._lock:
            entry = self._memory.get((kind, key))
            if entry is not None:
                stored_guard, payload = entry
                if stored_guard != guard:
                    self._count("cache.guard_reject", metrics)
                    self._count("cache.miss", metrics)
                    return None
                # The lookup and the LRU promotion must be one atomic
                # step: a concurrent put() may evict this very entry
                # between them, and move_to_end would raise KeyError.
                self._memory.move_to_end((kind, key))
                self._count("cache.memory_hit", metrics)
                self._count("cache.hit", metrics)
                return payload

        if self.disk_enabled:
            payload = self._load_disk(kind, key, guard, metrics)
            if payload is not None:
                self._remember(kind, key, guard, payload, metrics)
                self._count("cache.disk_hit", metrics)
                self._count("cache.hit", metrics)
                return payload

        self._count("cache.miss", metrics)
        return None

    def _load_disk(self, kind: str, key: str, guard: bytes,
                   metrics: MetricsRegistry) -> Optional[Any]:
        path = self._path(kind, key)
        try:
            fault_point("cache.disk_read", metrics=metrics,
                        kind=kind, key=key)
            data = path.read_bytes()
        except FileNotFoundError:
            return None  # ordinary miss, not an IO failure
        except OSError as error:
            self._note_io_failure("read", error, metrics)
            return None
        data = filter_bytes("cache.disk_read", data, metrics=metrics,
                            kind=kind, key=key)
        try:
            return decode_artifact(data, kind, guard)
        except CacheCodecError as error:
            if "guard mismatch" in str(error):
                self._count("cache.guard_reject", metrics)
            else:
                self._count("cache.disk_corrupt", metrics)
            logger.warning(
                "dropping unusable cache entry %s: %s", path.name, error
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None

    # -- writes --------------------------------------------------------------

    def put(self, kind: str, key: str, guard: bytes, payload: Any,
            metrics: MetricsRegistry = NULL_METRICS) -> None:
        """Store *payload* under ``(kind, key)`` in both tiers.

        The payload must be codec-representable (the pack helpers of
        :mod:`repro.cache.artifacts` guarantee this).  Only the disk
        tier encodes it; the memory tier keeps the payload as given.
        Disk write failures are counted (and eventually quarantine the
        tier), never raised.
        """
        if self.disk_enabled:
            encoded = encode_artifact(kind, guard, payload)
            try:
                self._dir.mkdir(parents=True, exist_ok=True)
                # Atomic publish: no reader ever sees a half-written file.
                fd, temp_name = tempfile.mkstemp(
                    dir=str(self._dir), prefix=f".{kind}-", suffix=".tmp"
                )
                try:
                    with os.fdopen(fd, "wb") as handle:
                        handle.write(encoded)
                    # Crash window: the entry exists only as a temp file
                    # here; an injected fault proves a crash between
                    # write and publish leaves no partial entry behind.
                    fault_point("cache.disk_write", metrics=metrics,
                                kind=kind, key=key)
                    os.replace(temp_name, self._path(kind, key))
                except BaseException:
                    try:
                        os.unlink(temp_name)
                    except OSError:
                        pass
                    raise
            except OSError as error:
                self._note_io_failure("write", error, metrics)
        self._remember(kind, key, guard, payload, metrics)
        self._count("cache.put", metrics)

    def _remember(self, kind: str, key: str, guard: bytes, payload: Any,
                  metrics: MetricsRegistry) -> None:
        if not self._max_memory:
            return
        with self._lock:
            self._memory[(kind, key)] = (guard, payload)
            self._memory.move_to_end((kind, key))
            while len(self._memory) > self._max_memory:
                evicted_key, _ = self._memory.popitem(last=False)
                self._count("cache.evict", metrics)
                logger.debug(
                    "evicted %s-%s from the memory tier", *evicted_key
                )

    # -- maintenance ---------------------------------------------------------

    def invalidate(self, kind: str, key: str) -> None:
        """Drop one entry from both tiers (missing entries are fine)."""
        with self._lock:
            self._memory.pop((kind, key), None)
        if self._dir is not None:
            try:
                self._path(kind, key).unlink()
            except OSError:
                pass

    def clear(self) -> None:
        """Empty the memory tier and delete every disk entry."""
        with self._lock:
            self._memory.clear()
        if self._dir is not None and self._dir.is_dir():
            for path in self._dir.glob("*.rpc"):
                try:
                    path.unlink()
                except OSError:
                    pass

    @property
    def cache_dir(self) -> Optional[Path]:
        return self._dir

    @property
    def disk_enabled(self) -> bool:
        """Whether the disk tier is configured and not quarantined."""
        return self._dir is not None and not self._quarantined

    @property
    def quarantined(self) -> bool:
        """Whether the disk tier was disabled after repeated IO errors."""
        return self._quarantined

    def __len__(self) -> int:
        """Entries currently held in the memory tier."""
        with self._lock:
            return len(self._memory)

    def __repr__(self) -> str:
        if self._dir is None:
            tier = "memory-only"
        elif self._quarantined:
            tier = f"{self._dir} [quarantined]"
        else:
            tier = str(self._dir)
        return (
            f"ArtifactStore({tier}, memory={len(self._memory)}/"
            f"{self._max_memory}, hits={self.stats['cache.hit']}, "
            f"misses={self.stats['cache.miss']})"
        )
