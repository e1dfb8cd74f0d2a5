"""Summary statistics and failure accounting of the benchmark."""

from __future__ import annotations

import math
import statistics
import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MARGIN = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct``% of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1]


def tail_percentile(count: int) -> Optional[int]:
    """The highest whole percentile (50–99) of *count* samples that
    leaves at least ``TAIL_MARGIN`` samples beyond it, or ``None``."""
    for pct in range(99, 49, -1):
        if count - math.ceil(pct * count / 100) >= TAIL_MARGIN:
            return pct
    return None


def tail(values: Sequence[float]) -> Tuple[int, float]:
    """``(pct, value)`` of the tail percentile of *values*."""
    pct = tail_percentile(len(values))
    if pct is None:
        raise ValueError(
            f"{len(values)} samples leave no tail percentile with "
            f"{TAIL_MARGIN} samples beyond it"
        )
    return pct, percentile(values, pct)


class Tally:
    """Operations attempted and how many went wrong, by cause.

    ``failed`` (raised), ``refused`` (the service answered with an error
    status or could not be reached) and ``wrong`` (an output check
    disagreed) all count against the run.  Thread-safe: the serve
    clients share one tally.
    """

    CAUSES = ("failed", "refused", "wrong")

    def __init__(self):
        self._lock = threading.Lock()
        self.attempted = 0
        self.counts: Dict[str, int] = {cause: 0 for cause in self.CAUSES}
        self.notes: List[str] = []

    def attempt(self, count: int = 1) -> None:
        with self._lock:
            self.attempted += count

    def miss(self, cause: str, note: str) -> None:
        if cause not in self.counts:
            raise ValueError(f"unknown failure cause {cause!r}")
        with self._lock:
            self.counts[cause] += 1
            if len(self.notes) < 20:
                self.notes.append(f"{cause}: {note}")

    def check(self, ok: bool, note: str) -> bool:
        """Count a wrong output when *ok* is false; return *ok*."""
        if not ok:
            self.miss("wrong", note)
        return ok

    def merge(self, attempted: int, counts: Dict[str, int],
              notes: Sequence[str] = ()) -> None:
        with self._lock:
            self.attempted += attempted
            for cause, count in counts.items():
                self.counts[cause] += count
            self.notes.extend(list(notes)[:20 - len(self.notes)])

    @property
    def failed(self) -> int:
        return sum(self.counts.values())

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
