"""Background resource sampling: RSS and ``tracemalloc`` over time.

A :class:`ResourceSampler` runs a daemon thread that periodically
records the process's resident set size (and, when ``tracemalloc`` is
tracing, the traced heap) together with the pipeline phase that was
active at sample time.  Each sample also sums the RSS of the process's
live direct children (:func:`children_rss_bytes`), so worker-pool
memory — which lives outside the parent — shows up in the summary's
``children_rss_peak_bytes`` / ``rss_total_peak_bytes`` fields.  Its :meth:`~ResourceSampler.summary` — peak and
per-phase memory — is what :class:`repro.obs.manifest.RunManifest`
embeds under ``"resources"``.

Design constraints:

1. *Cheap.*  One sample is a few ``/proc`` reads (~0.1 ms on Linux),
   but every wake of the sampler thread also takes the interpreter lock
   from the thread being measured and stalls it, the longer the busier
   the host's CPUs are.  The default 50 ms interval keeps that inside
   the ``BENCH_obs.json`` telemetry budget, which a 10 ms one exceeded
   on a busy host (measurements in ``docs/observability.md``).
   ``tracemalloc`` is only consulted when it is already tracing (or the
   caller opted in with ``trace_allocations=True``) because *starting*
   it is the expensive part.
2. *Portable.*  Where ``/proc`` is unavailable the sampler falls back to
   ``resource.getrusage`` peak-RSS, and where that is missing too it
   degrades to phase bookkeeping only (``summary()["rss_supported"]``
   says which you got).  Nothing is ever a hard error.
3. *Useful on tiny runs.*  ``stop()`` always takes one final sample, so
   even a run shorter than the interval yields a non-empty summary.

Per-phase attribution reads :attr:`repro.obs.tracer.Tracer.active_phase`
— the innermost currently-open span flagged ``phase=True`` — so samples
land in the ``strip`` / ``agree_sets`` / ``lhs`` / … buckets without the
pipeline knowing the sampler exists.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["ResourceSampler", "children_rss_bytes", "rss_bytes"]

#: Bytes per page for the ``/proc/self/statm`` fast path.
try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (ValueError, OSError, AttributeError):  # pragma: no cover
    _PAGE_SIZE = 4096

_STATM = "/proc/self/statm"


def rss_bytes() -> Optional[int]:
    """Current resident set size in bytes, or ``None`` when unknowable.

    Tries ``/proc/self/statm`` (Linux: current RSS), then
    ``resource.getrusage`` (POSIX: *peak* RSS — still monotone, so peaks
    derived from it remain correct).
    """
    try:
        with open(_STATM, "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return peak if sys.platform == "darwin" else peak * 1024
    except Exception:  # pragma: no cover - exotic platforms
        return None


def _child_pids() -> Optional[List[int]]:
    """Direct child PIDs from ``/proc/self/task/*/children``, or ``None``
    when that interface is unavailable (non-Linux)."""
    try:
        task_ids = os.listdir("/proc/self/task")
    except OSError:
        return None
    pids: List[int] = []
    for task in task_ids:
        try:
            with open(f"/proc/self/task/{task}/children", "rb") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except (OSError, ValueError):
            continue
    return pids


def children_rss_bytes() -> Optional[int]:
    """Summed resident set size of live direct children, in bytes.

    Worker-pool memory lives in the *children* of the mining process, so
    the parent's own RSS wildly understates a parallel run.  Sums the
    current ``/proc/<pid>/statm`` RSS over the direct children named by
    ``/proc/self/task/*/children`` (racy against pool churn, but each
    read is atomic and a vanished child is simply skipped).  Where
    ``/proc`` is unavailable, falls back to
    ``getrusage(RUSAGE_CHILDREN).ru_maxrss`` — the *peak* RSS of any
    single **reaped** child, which is monotone but zero until a child
    exits.  Returns ``None`` only when neither source exists.
    """
    pids = _child_pids()
    if pids is not None:
        total = 0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/statm", "rb") as handle:
                    total += int(handle.read().split()[1]) * _PAGE_SIZE
            except (OSError, IndexError, ValueError):
                continue
        return total
    try:  # pragma: no cover - non-Linux fallback
        import resource

        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return peak if sys.platform == "darwin" else peak * 1024
    except Exception:  # pragma: no cover - exotic platforms
        return None


class ResourceSampler:
    """Samples RSS (+ traced heap) on a background thread.

    Parameters
    ----------
    interval:
        Seconds between samples (default 50 ms; each wake costs the
        measured thread a lock handoff, see the module docstring).
        Pass a shorter one for finer per-phase attribution.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; when given, each
        sample is attributed to ``tracer.active_phase`` and the summary
        gains a ``per_phase`` breakdown.
    trace_allocations:
        Start ``tracemalloc`` for the sampler's lifetime (stopped again
        by :meth:`stop` if the sampler started it).  Off by default —
        allocation tracing costs far more than the sampler itself; when
        ``tracemalloc`` is already tracing the sampler reads it either
        way.

    Use as a context manager (``with ResourceSampler() as sampler:``) or
    call :meth:`start` / :meth:`stop` explicitly.  :meth:`summary` is
    valid after ``stop()`` (and best-effort while running).
    """

    def __init__(self, interval: float = 0.05,
                 tracer: Optional[Any] = None,
                 trace_allocations: bool = False):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self.interval = interval
        self.tracer = tracer
        self.trace_allocations = trace_allocations
        #: ``(perf_counter, rss_bytes | None, traced_bytes | None, phase,
        #: children_rss_bytes | None)`` — the last slot sums the live
        #: direct children (worker pools), so parallel runs account for
        #: the memory that left the parent process.
        self.samples: List[Tuple[float, Optional[int], Optional[int],
                                 Optional[str], Optional[int]]] = []
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_tracemalloc = False
        self._start_time: Optional[float] = None
        self._stop_time: Optional[float] = None
        self._rss_start: Optional[int] = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "ResourceSampler":
        if self._thread is not None:
            raise RuntimeError("ResourceSampler cannot be restarted; "
                               "create a fresh one per run")
        if self.trace_allocations:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
        self._start_time = time.perf_counter()
        self._rss_start = rss_bytes()
        self._sample()
        self._thread = threading.Thread(
            target=self._loop, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> Dict[str, Any]:
        """Stop sampling (idempotent) and return :meth:`summary`."""
        if self._thread is not None and self._stop_time is None:
            self._stop_event.set()
            self._thread.join(timeout=5.0)
            self._sample()  # >= 2 samples even on a run shorter than interval
            self._stop_time = time.perf_counter()
        if self._started_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._started_tracemalloc = False
        return self.summary()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *_exc) -> bool:
        self.stop()
        return False

    def _loop(self) -> None:
        while not self._stop_event.wait(self.interval):
            self._sample()

    def _sample(self) -> None:
        traced: Optional[int] = None
        import tracemalloc

        if tracemalloc.is_tracing():
            traced = tracemalloc.get_traced_memory()[0]
        phase = None
        if self.tracer is not None:
            phase = getattr(self.tracer, "active_phase", None)
        with self._lock:
            self.samples.append(
                (time.perf_counter(), rss_bytes(), traced, phase,
                 children_rss_bytes())
            )

    # -- span attachment ----------------------------------------------------

    def attach(self, span: Any) -> "_SpanWindow":
        """Attribute the samples of a window to *span*'s attrs.

        ``with sampler.attach(span): ...`` records the window's peak RSS
        and traced-heap into ``span.attrs["rss_peak_bytes"]`` /
        ``["tracemalloc_peak_bytes"]`` when the block exits — the hook
        the manifest uses to surface per-span memory for coarse spans.
        """
        return _SpanWindow(self, span)

    def _window_peaks(self, since: int) -> Tuple[Optional[int], Optional[int]]:
        with self._lock:
            window = self.samples[since:]
        rss = [s[1] for s in window if s[1] is not None]
        traced = [s[2] for s in window if s[2] is not None]
        return (max(rss) if rss else None, max(traced) if traced else None)

    # -- summary ------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """JSON-ready peak / per-phase digest of everything sampled."""
        with self._lock:
            samples = list(self.samples)
        rss_values = [s[1] for s in samples if s[1] is not None]
        traced_values = [s[2] for s in samples if s[2] is not None]
        children_values = [s[4] for s in samples if s[4] is not None]
        total_values = [
            s[1] + s[4] for s in samples
            if s[1] is not None and s[4] is not None
        ]
        per_phase: Dict[str, Dict[str, Any]] = {}
        for _stamp, rss, traced, phase, _children in samples:
            if phase is None:
                continue
            bucket = per_phase.setdefault(
                phase, {"samples": 0, "rss_peak_bytes": None,
                        "tracemalloc_peak_bytes": None}
            )
            bucket["samples"] += 1
            if rss is not None:
                bucket["rss_peak_bytes"] = (
                    rss if bucket["rss_peak_bytes"] is None
                    else max(bucket["rss_peak_bytes"], rss)
                )
            if traced is not None:
                bucket["tracemalloc_peak_bytes"] = (
                    traced if bucket["tracemalloc_peak_bytes"] is None
                    else max(bucket["tracemalloc_peak_bytes"], traced)
                )
        end = self._stop_time
        if end is None:
            end = samples[-1][0] if samples else self._start_time
        peak = max(rss_values) if rss_values else None
        return {
            "samples": len(samples),
            "interval_seconds": self.interval,
            "duration_seconds": (
                round(end - self._start_time, 6)
                if self._start_time is not None and end is not None else 0.0
            ),
            "rss_supported": bool(rss_values),
            "rss_start_bytes": self._rss_start,
            "rss_peak_bytes": peak,
            "rss_delta_bytes": (
                peak - self._rss_start
                if peak is not None and self._rss_start is not None else None
            ),
            "children_rss_peak_bytes": (
                max(children_values) if children_values else None
            ),
            "rss_total_peak_bytes": (
                max(total_values) if total_values
                else (peak if peak is not None else None)
            ),
            "tracemalloc_peak_bytes": (
                max(traced_values) if traced_values else None
            ),
            "per_phase": per_phase,
        }

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"ResourceSampler({state}, {len(self.samples)} samples, "
            f"interval={self.interval})"
        )


class _SpanWindow:
    """Context manager of :meth:`ResourceSampler.attach`."""

    __slots__ = ("_sampler", "_span", "_mark")

    def __init__(self, sampler: ResourceSampler, span: Any):
        self._sampler = sampler
        self._span = span
        self._mark = 0

    def __enter__(self) -> Any:
        self._sampler._sample()
        with self._sampler._lock:
            self._mark = max(len(self._sampler.samples) - 1, 0)
        return self._span

    def __exit__(self, *_exc) -> bool:
        self._sampler._sample()
        rss_peak, traced_peak = self._sampler._window_peaks(self._mark)
        attrs = getattr(self._span, "attrs", None)
        if isinstance(attrs, dict):
            if rss_peak is not None:
                attrs["rss_peak_bytes"] = rss_peak
            if traced_peak is not None:
                attrs["tracemalloc_peak_bytes"] = traced_peak
        return False
