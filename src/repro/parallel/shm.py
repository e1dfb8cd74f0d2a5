"""Zero-copy shared-memory publication of read-only shard context.

Every pooled ``ShardedExecutor.map()`` ships a *shared* context to its
workers — the row → class-index tables, the identifier maps, the
sorted or packed agree-set masks.
The persistent pool has no per-map initializer, so that context would
otherwise travel as one pickle per *task*.  :class:`SharedArrayArena`
removes that cost for the heavy payloads:

- **NumPy arrays** at or above :data:`ARRAY_THRESHOLD_BYTES` are copied
  once into a :class:`multiprocessing.shared_memory.SharedMemory`
  segment and replaced by a tiny ``(name, shape, dtype)`` handle;
  workers re-map the segment and reconstruct the array **zero-copy**
  (``np.ndarray(..., buffer=shm.buf)``, read-only).
- **Other large values** (class-index tables, identifier maps, packed
  mask lists — anything whose pickle is at or above
  :data:`BLOB_THRESHOLD_BYTES`) are pickled *once* into a shared
  segment; workers unpickle once per map generation instead of once per
  task.
- **Small values** ship inline — below the thresholds a pickle is
  cheaper than a segment round-trip.

Fallbacks are graceful and silent: without NumPy the array path simply
never triggers (blobs still work — they need only pickle), and without
a usable ``shared_memory`` implementation everything ships inline,
which keeps results bit-for-bit identical in every configuration.  Both
probes (:data:`_np`, :data:`_shm`) are module attributes precisely so
tests can monkeypatch them away, mirroring ``repro.columnar._np``.

Cleanup discipline: the creating process owns the segments.  The arena
unlinks them in :meth:`SharedArrayArena.close` (callers wrap maps in
``try/finally``), with a :func:`weakref.finalize` safety net for
abandoned arenas — Linux frees the backing pages once the last mapping
closes, so unlinking while workers still hold attachments is safe.
Pool workers (fork *and* spawn) inherit the parent's resource-tracker
process, so a worker attaching a segment re-registers a name the
tracker already holds (a set, deduplicated) and the parent's
``unlink()`` is the one unregistration point — the bpo-38119
double-unlink hazard of *independent* attaching processes does not
arise here, and workers must **not** unregister attachments (that
would strip the parent's leak protection).

Segment names carry the :data:`SEGMENT_PREFIX` so a leak is
observable: after ``close()`` no ``/dev/shm/repro_shm_*`` entry from
this arena survives (asserted by ``tests/test_pool_lifecycle.py``).
"""

from __future__ import annotations

import pickle
import uuid
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import MetricsRegistry, get_logger

try:  # pragma: no cover - exercised by monkeypatching in tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

try:  # pragma: no cover - platforms without POSIX/Windows shm
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover
    _shm = None

__all__ = [
    "ARRAY_THRESHOLD_BYTES",
    "BLOB_THRESHOLD_BYTES",
    "SEGMENT_PREFIX",
    "SharedArrayArena",
    "DecodedShared",
    "EncodedShared",
    "decode_shared",
    "numpy_available",
    "pack_masks",
    "shm_available",
    "unpack_masks",
]

logger = get_logger(__name__)

#: NumPy arrays smaller than this ship inline: a pickle of a few KiB is
#: cheaper than creating, mapping and unlinking a segment.
ARRAY_THRESHOLD_BYTES = 32 * 1024

#: Non-array values whose pickle is at least this large go into a
#: pickled-blob segment (one pickle total instead of one per task).
BLOB_THRESHOLD_BYTES = 64 * 1024

#: Every arena segment name starts with this, so leaked segments are
#: identifiable in /dev/shm and tests can assert there are none.
SEGMENT_PREFIX = "repro_shm_"


def numpy_available() -> bool:
    """Is the zero-copy ndarray path available?"""
    return _np is not None


def shm_available() -> bool:
    """Is :mod:`multiprocessing.shared_memory` importable here?"""
    return _shm is not None


def _segment_name() -> str:
    return SEGMENT_PREFIX + uuid.uuid4().hex[:16]


def _release_segments(segments: List[Any]) -> None:
    """Close + unlink every owned segment (finalizer-safe, idempotent)."""
    while segments:
        segment = segments.pop()
        try:
            segment.close()
            segment.unlink()
        except Exception:  # noqa: BLE001 - already gone is fine
            pass


# -- packed bitset helpers ---------------------------------------------------

def pack_masks(masks: Sequence[int], width: int):
    """Pack attribute-set bitmasks into a ``(n, lanes)`` uint64 array.

    ``lanes = ceil(width / 64)``, little-endian lane order, so masks
    wider than 64 attributes (the lane-boundary fixtures) round-trip
    exactly.  Requires NumPy (callers gate on :func:`numpy_available`).
    """
    lanes = max(1, -(-width // 64))
    buffer = b"".join(int(mask).to_bytes(lanes * 8, "little")
                      for mask in masks)
    packed = _np.frombuffer(buffer, dtype="<u8")
    return packed.reshape(len(masks), lanes).copy()


def unpack_masks(packed) -> List[int]:
    """Invert :func:`pack_masks`: rows back to arbitrary-width ints."""
    rows = _np.ascontiguousarray(packed, dtype="<u8")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


# -- encoded / decoded context containers ------------------------------------

class EncodedShared:
    """The picklable wire form of one map's shared context.

    ``entries`` is ``[(key, tag, data), ...]`` where *tag* is
    ``"inline"`` (data is the value itself), ``"array"`` (data is
    ``(segment, shape, dtype)``) or ``"blob"`` (data is
    ``(segment, length)``).  ``is_dict`` distinguishes a dict context
    (the normal case) from an opaque single value.
    """

    __slots__ = ("is_dict", "entries")

    def __init__(self, is_dict: bool,
                 entries: List[Tuple[Any, str, Any]]):
        self.is_dict = is_dict
        self.entries = entries

    def __getstate__(self):
        return (self.is_dict, self.entries)

    def __setstate__(self, state):
        self.is_dict, self.entries = state


class DecodedShared:
    """A worker-side reconstruction of an :class:`EncodedShared`.

    ``shared`` is the usable context (same shape the serial path sees).
    ``close()`` drops the segment attachments; the arrays reconstructed
    over ``shm.buf`` die with them, so callers only close when evicting
    a whole cached generation.
    """

    __slots__ = ("shared", "_attachments")

    def __init__(self, shared: Any, attachments: List[Any]):
        self.shared = shared
        self._attachments = attachments

    def close(self) -> None:
        while self._attachments:
            segment = self._attachments.pop()
            try:
                segment.close()
            except Exception:  # noqa: BLE001
                pass


def decode_shared(encoded: Any) -> DecodedShared:
    """Reconstruct a shared context in a worker process.

    Arrays come back zero-copy (read-only views over the mapped
    segment); blobs are unpickled once.  Plain values (a context that
    never went through :meth:`SharedArrayArena.encode`, e.g. from the
    serial path) pass through untouched.
    """
    if not isinstance(encoded, EncodedShared):
        return DecodedShared(encoded, [])
    attachments: List[Any] = []
    values: Dict[Any, Any] = {}
    for key, tag, data in encoded.entries:
        if tag == "inline":
            values[key] = data
        elif tag == "array":
            name, shape, dtype = data
            segment = _shm.SharedMemory(name=name)
            attachments.append(segment)
            array = _np.ndarray(shape, dtype=dtype, buffer=segment.buf)
            array.flags.writeable = False
            values[key] = array
        elif tag == "blob":
            name, length = data
            segment = _shm.SharedMemory(name=name)
            try:
                values[key] = pickle.loads(bytes(segment.buf[:length]))
            finally:
                segment.close()
        else:  # pragma: no cover - future-proofing
            raise ValueError(f"unknown shared-context tag {tag!r}")
    if encoded.is_dict:
        return DecodedShared(values, attachments)
    return DecodedShared(values[None], attachments)


# -- the arena ---------------------------------------------------------------

class SharedArrayArena:
    """Publish one map's shared context into shared-memory segments.

    One arena per ``map()`` call; the owning executor closes it in a
    ``finally`` so segments never outlive the map — an abandoned arena
    is still reclaimed by its :func:`weakref.finalize` hook (which also
    runs at interpreter exit).

    Parameters
    ----------
    metrics:
        Counter sink; every published segment adds its size to
        ``parallel.shm_bytes``.
    array_threshold / blob_threshold:
        Size floors below which values ship inline.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 array_threshold: int = ARRAY_THRESHOLD_BYTES,
                 blob_threshold: int = BLOB_THRESHOLD_BYTES):
        self.metrics = metrics
        #: Publishes whenever shared memory is usable; a failed segment
        #: creation switches the rest of this arena to inline shipping.
        self.enabled = shm_available()
        self.array_threshold = array_threshold
        self.blob_threshold = blob_threshold
        self.segments = 0
        self.bytes_published = 0
        self._owned: List[Any] = []
        self._finalizer = weakref.finalize(
            self, _release_segments, self._owned
        )

    # -- encoding -----------------------------------------------------------

    def encode(self, shared: Any) -> Any:
        """Encode a shared context for per-task shipping.

        Returns ``None`` unchanged; otherwise an :class:`EncodedShared`
        whose heavy values live in segments owned by this arena.
        """
        if shared is None:
            return None
        if isinstance(shared, dict):
            entries = [self._encode_value(key, value)
                       for key, value in shared.items()]
            return EncodedShared(True, entries)
        return EncodedShared(False, [self._encode_value(None, shared)])

    def _encode_value(self, key: Any, value: Any) -> Tuple[Any, str, Any]:
        if (_np is not None and isinstance(value, _np.ndarray)
                and value.dtype != object
                and value.nbytes >= self.array_threshold):
            if self.enabled:
                handle = self._publish_array(value)
                if handle is not None:
                    return (key, "array", handle)
            return (key, "inline", value)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        if len(payload) >= self.blob_threshold and self.enabled:
            handle = self._publish_blob(payload)
            if handle is not None:
                return (key, "blob", handle)
        return (key, "inline", value)

    def _new_segment(self, size: int):
        for _ in range(3):
            try:
                return _shm.SharedMemory(
                    name=_segment_name(), create=True, size=size
                )
            except FileExistsError:  # pragma: no cover - uuid collision
                continue
            except OSError as error:
                logger.warning(
                    "shared-memory segment creation failed (%s); "
                    "falling back to inline context", error,
                )
                self.enabled = False
                return None
        return None  # pragma: no cover

    def _publish_array(self, array) -> Optional[Tuple[str, tuple, str]]:
        segment = self._new_segment(array.nbytes)
        if segment is None:
            return None
        view = _np.ndarray(array.shape, dtype=array.dtype,
                           buffer=segment.buf)
        view[...] = array
        self._track(segment, array.nbytes)
        return (segment.name, array.shape, array.dtype.str)

    def _publish_blob(self, payload: bytes) -> Optional[Tuple[str, int]]:
        segment = self._new_segment(len(payload))
        if segment is None:
            return None
        segment.buf[:len(payload)] = payload
        self._track(segment, len(payload))
        return (segment.name, len(payload))

    def _track(self, segment, nbytes: int) -> None:
        self._owned.append(segment)
        self.segments += 1
        self.bytes_published += nbytes
        if self.metrics is not None:
            self.metrics.inc("parallel.shm_bytes", nbytes)

    # -- cleanup ------------------------------------------------------------

    def close(self) -> None:
        """Unlink every owned segment (idempotent)."""
        _release_segments(self._owned)

    def __enter__(self) -> "SharedArrayArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "shm" if self.enabled else "inline"
        return (f"SharedArrayArena({state}, {self.segments} segment(s), "
                f"{self.bytes_published} byte(s))")
