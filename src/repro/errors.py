"""Exception hierarchy for the repro (Dep-Miner) library.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base class.  Errors are raised eagerly with actionable messages;
the library never silently returns wrong results.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class SchemaError(ReproError):
    """A schema is malformed (duplicate/empty attribute names, too wide)."""


class SchemaMismatchError(ReproError):
    """Two objects built over different schemas were combined."""


class RelationError(ReproError):
    """A relation is malformed (ragged rows, wrong arity, bad tuple ids)."""


class ArmstrongExistenceError(ReproError):
    """A real-world Armstrong relation does not exist (Proposition 1 fails).

    Carries the offending attributes so callers can report which columns
    lack enough distinct values.
    """

    def __init__(self, message: str, failing_attributes=()):
        super().__init__(message)
        self.failing_attributes = tuple(failing_attributes)


class StorageError(ReproError):
    """Storage-layer failure (unknown table, malformed CSV, bad types)."""


class BenchmarkError(ReproError):
    """A benchmark experiment was misconfigured."""


class ReliabilityError(ReproError):
    """A fault plan is malformed (unknown site/kind, bad trigger values).

    Note *injected* faults never raise this: an injection raises the
    exception class the :class:`~repro.reliability.FaultSpec` names
    (``OSError``, ``RuntimeError``, …) so the code under test sees the
    same type a real fault would produce.
    """


class CacheError(ReproError):
    """The artifact cache was misconfigured or fed an unknown artefact.

    Note *corrupted* on-disk entries never raise: the store treats them
    as misses and recomputes (see :mod:`repro.cache.store`).
    """


class CacheCodecError(CacheError):
    """A serialized cache artefact failed to decode (corruption, version
    or guard mismatch).  Internal to the cache: the store converts this
    into a miss."""


class ServiceError(ReproError):
    """A discovery-service request was malformed or cannot be satisfied.

    The server answers with :attr:`http_status` and a structured JSON
    error body (see :mod:`repro.service.protocol`); subclasses override
    the default 400, and an instance can carry its own via the
    ``http_status`` keyword.
    """

    http_status = 400

    def __init__(self, message: str, http_status=None):
        super().__init__(message)
        if http_status is not None:
            self.http_status = int(http_status)


class SessionNotFoundError(ServiceError):
    """The requested session id is unknown (expired, evicted or never
    registered)."""

    http_status = 404


class SessionLimitError(ServiceError):
    """The session registry is full and nothing was idle enough to
    evict; retry later or raise ``--max-sessions``."""

    http_status = 429
