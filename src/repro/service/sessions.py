"""Session state of the discovery daemon.

A *session* is one registered relation plus the
:class:`~repro.cache.incremental.IncrementalMiner` that keeps its FD
cover warm across appends.  The :class:`SessionRegistry` owns every
live session and enforces the daemon's two resource bounds:

- **count** — at most ``max_sessions`` concurrent sessions; a
  registration that would exceed the bound first tries to evict idle
  sessions and otherwise fails with a typed
  :class:`~repro.errors.SessionLimitError` (HTTP 429);
- **idle TTL** — a session untouched for ``ttl_seconds`` is evicted on
  the next registry sweep (every mutating call sweeps).

Concurrency model, in one paragraph: the registry's own lock protects
only the session *table* (dict insert/lookup/delete plus the pending
reservation counter) and is never held while mining runs.  Each session
carries an :class:`threading.RLock` serializing its requests — two
clients hammering the same session take turns, two clients on
different sessions mine in parallel, and the process-wide
:class:`~repro.cache.store.ArtifactStore` (itself thread-safe since the
memory-tier lock landed) is the only object requests share.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import threading
import time
import uuid
from typing import Any, Callable, Dict, List, Optional

from repro.cache.incremental import IncrementalMiner
from repro.errors import SessionLimitError, SessionNotFoundError
from repro.service import protocol

logger = logging.getLogger(__name__)

__all__ = ["Session", "SessionRegistry"]


class Session:
    """One registered relation and its warm incremental miner."""

    def __init__(self, session_id: str, name: str,
                 miner: IncrementalMiner,
                 options: Dict[str, Any]):
        self.id = session_id
        self.name = name
        self.miner = miner
        self.options = dict(options)
        self.lock = threading.RLock()
        self.created_unix = time.time()
        self.last_used = time.monotonic()
        self.appends = 0
        self.requests = 0
        self._memo_result = None
        self._memo: Dict[str, Any] = {}

    def touch(self) -> None:
        self.last_used = time.monotonic()

    def idle_seconds(self) -> float:
        return time.monotonic() - self.last_used

    @contextlib.contextmanager
    def observe(self, tracer=None, metrics=None):
        """Point the session's miner at a per-request tracer/metrics.

        Session requests are serialized by ``self.lock`` (held by the
        caller), so swapping the miner's telemetry sinks for the
        duration of one request is race-free; the sinks are restored
        even when the request raises.
        """
        miner = self.miner.miner
        saved = (miner.tracer, miner.metrics)
        if tracer is not None:
            miner.tracer = tracer
        if metrics is not None:
            miner.metrics = metrics
        try:
            yield miner
        finally:
            miner.tracer, miner.metrics = saved

    def memo(self, name: str, build: Callable[[Any], Any]) -> Any:
        """``build(result)`` for the miner's current result, built once.

        Only an append replaces the result, so every read in between is
        served from the same value; a build that raises is not kept.
        Callers hold ``self.lock`` and must not mutate what they get.
        """
        result = self.miner.result
        if self._memo_result is not result:
            self._memo_result, self._memo = result, {}
        if name not in self._memo:
            self._memo[name] = build(result)
        return self._memo[name]

    def cover_document(self) -> protocol.EncodedDocument:
        """The encoded cover document of the miner's current result."""
        return self.memo("cover", lambda result: protocol.EncodedDocument(
            protocol.cover_document(result)))

    def document(self) -> Dict[str, Any]:
        """The JSON description of this session (no cover payload)."""
        result = self.miner.result
        return {
            "id": self.id,
            "name": self.name,
            "attributes": list(result.schema.names),
            "num_rows": self.miner.num_rows,
            "num_fds": len(result.fds),
            "fingerprint": self.miner.relation_key,
            "appends": self.appends,
            "requests": self.requests,
            "created_unix": round(self.created_unix, 3),
            "idle_seconds": round(self.idle_seconds(), 3),
        }


class SessionRegistry:
    """Bounded, TTL-evicting table of live sessions.

    ``register`` runs the (possibly slow) session *build* outside the
    registry lock; a pending-reservation counter keeps the
    ``max_sessions`` bound strict while builds are in flight.
    """

    def __init__(self, max_sessions: int = 64,
                 ttl_seconds: float = 3600.0):
        if max_sessions < 1:
            raise SessionLimitError(
                f"max_sessions must be >= 1, got {max_sessions}",
                http_status=500,
            )
        self.max_sessions = int(max_sessions)
        self.ttl_seconds = float(ttl_seconds)
        self._lock = threading.Lock()
        self._sessions: Dict[str, Session] = {}
        self._pending = 0
        self._counter = itertools.count(1)
        self.evicted = 0

    # -- lifecycle -----------------------------------------------------------

    def register(self, name: str,
                 build: Callable[[str], Session]) -> Session:
        """Reserve a slot, build the session, publish it.

        *build* receives the freshly minted session id and returns the
        :class:`Session`; it runs without any registry lock held, so a
        large cold mine never blocks other sessions' requests.
        """
        session_id = f"s{next(self._counter):04d}-{uuid.uuid4().hex[:8]}"
        with self._lock:
            self._sweep_locked()
            if len(self._sessions) + self._pending >= self.max_sessions:
                raise SessionLimitError(
                    f"session registry is full "
                    f"({self.max_sessions} sessions, none idle past the "
                    f"{self.ttl_seconds:g}s TTL); close a session or "
                    f"raise --max-sessions"
                )
            self._pending += 1
        session = None
        try:
            session = build(session_id)
        finally:
            with self._lock:
                self._pending -= 1
                if session is not None:
                    self._sessions[session_id] = session
        logger.info("session %s (%r) registered: %d rows, %d attributes",
                    session.id, session.name, session.miner.num_rows,
                    len(session.miner.result.schema))
        return session

    def acquire(self, session_id: str) -> Session:
        """Look up a live session, sweeping expired ones first."""
        with self._lock:
            self._sweep_locked()
            session = self._sessions.get(session_id)
            if session is None:
                raise SessionNotFoundError(
                    f"unknown session {session_id!r} "
                    f"(expired, closed, or never registered)"
                )
            session.touch()
            return session

    def remove(self, session_id: str) -> Session:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise SessionNotFoundError(
                f"unknown session {session_id!r} "
                f"(expired, closed, or never registered)"
            )
        logger.info("session %s (%r) closed", session.id, session.name)
        return session

    def close_all(self) -> int:
        with self._lock:
            count = len(self._sessions)
            self._sessions.clear()
        return count

    # -- eviction ------------------------------------------------------------

    def _sweep_locked(self) -> None:
        """Drop *quiescent* sessions idle past the TTL (registry lock
        held).  A session whose own lock is taken is mid-request — a
        long mine does not make a session "idle", and it is never
        evicted out from under its client."""
        if self.ttl_seconds <= 0:
            return
        expired = [sid for sid, session in self._sessions.items()
                   if session.idle_seconds() > self.ttl_seconds]
        for sid in expired:
            session = self._sessions[sid]
            if not session.lock.acquire(blocking=False):
                continue  # busy right now: not idle after all
            try:
                del self._sessions[sid]
                self.evicted += 1
                logger.info("session %s (%r) evicted after %.1fs idle",
                            session.id, session.name,
                            session.idle_seconds())
            finally:
                session.lock.release()

    # -- introspection -------------------------------------------------------

    def sessions(self) -> List[Session]:
        with self._lock:
            self._sweep_locked()
            return list(self._sessions.values())

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "sessions": len(self._sessions),
                "max_sessions": self.max_sessions,
                "ttl_seconds": self.ttl_seconds,
                "pending": self._pending,
                "evicted": self.evicted,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)
