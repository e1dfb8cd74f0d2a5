"""Exponential backoff with deterministic jitter.

The sharded executor retries failed shard attempts through a
:class:`RetryPolicy`; the policy is its own module so other subsystems
(and tests) can reuse the exact backoff arithmetic.

Jitter is the part that usually breaks reproducibility, so here it is
*keyed*, not random: the jitter fraction is a hash of ``(token,
attempt)``, meaning the same shard retried at the same attempt always
sleeps the same amount — a chaos run's timing is as replayable as its
injections (see :mod:`repro.reliability.faults`).  The jitter still does
its real job (decorrelating many shards retrying at once) because every
shard carries a different token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ReliabilityError
from repro.reliability.faults import _fraction

__all__ = ["RetryPolicy", "DEFAULT_RETRY_POLICY"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry and how long to wait between attempts.

    ``retries`` is the number of *re*-attempts: a task gets
    ``retries + 1`` attempts in total.  The sleep before re-attempt
    ``n`` (1-based) is ``min(base * 2**(n-1), cap)`` stretched by up to
    ``jitter`` (a fraction), with the stretch drawn deterministically
    from ``(token, n)``.
    """

    retries: int = 2
    base: float = 0.05
    cap: float = 2.0
    jitter: float = 0.25

    def __post_init__(self):
        if self.retries < 0:
            raise ReliabilityError("retries must be non-negative")
        if self.base <= 0 or self.cap <= 0:
            raise ReliabilityError("backoff base and cap must be positive")
        if not 0.0 <= self.jitter <= 1.0:
            raise ReliabilityError("jitter must be a fraction in [0, 1]")

    @property
    def attempts(self) -> int:
        """Total attempts a task receives (first try + retries)."""
        return self.retries + 1

    def backoff(self, attempt: int, token: Any = "") -> float:
        """Seconds to sleep before re-attempt *attempt* (1-based)."""
        if attempt < 1:
            raise ReliabilityError("attempt numbers are 1-based")
        raw = min(self.base * (2 ** (attempt - 1)), self.cap)
        return raw * (1.0 + self.jitter * _fraction("retry", token, attempt))


#: The sharded executor's policy: 3 attempts, 50 ms base, 2 s cap, 25%
#: jitter.
DEFAULT_RETRY_POLICY = RetryPolicy()
