"""Span-based tracing for the mining pipelines.

A :class:`Tracer` collects :class:`Span` records — named, nested,
wall-clock-timed sections of work — from any number of threads.  Spans
are opened with a context manager (or the :meth:`Tracer.wrap` decorator)
and always close, even when the guarded code raises: the span is then
marked ``status="error"`` but its duration is recorded, which is what
guarantees partial traces survive pipeline failures (e.g. an
:class:`~repro.errors.ArmstrongExistenceError` in step 5 no longer
discards the timings of steps 1–4).

Design constraints, in order:

1. *Cheap when disabled.*  ``Tracer(enabled=False)`` (or the shared
   :data:`NULL_TRACER`) returns a singleton no-op context manager from
   :meth:`Tracer.span`; no objects are allocated per call.
2. *Thread-safe.*  The current-span stack is thread-local, the finished
   list is guarded by a lock, so the benchmark harness can trace cells
   running on worker threads into one tracer.
3. *Self-describing.*  Every span carries ``name``, ``start``/``end``
   (``time.perf_counter`` based), a wall-clock ``start_unix``, its
   ``parent_id``/``depth``, free-form ``attrs`` and an optional
   ``tracemalloc`` memory delta.  The exporters
   (:mod:`repro.obs.exporters`) serialize exactly these fields.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "NULL_TRACER", "span_records"]


class Span:
    """One timed section of work.  Created by :meth:`Tracer.span`."""

    __slots__ = (
        "span_id", "parent_id", "name", "depth", "attrs",
        "start", "end", "start_unix", "status", "error", "memory_delta",
        "_memory_start",
    )

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 depth: int, attrs: Dict[str, Any]):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.depth = depth
        self.attrs = attrs
        self.start = 0.0
        self.end: Optional[float] = None
        self.start_unix = 0.0
        self.status = "ok"
        self.error: Optional[str] = None
        self.memory_delta: Optional[int] = None
        self._memory_start: Optional[int] = None

    @property
    def duration(self) -> float:
        """Elapsed seconds (up to *now* while the span is still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def to_record(self) -> Dict[str, Any]:
        """JSON-ready dict — the exporters' span line."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "start": self.start,
            "end": self.end,
            "start_unix": self.start_unix,
            "duration": self.duration,
            "status": self.status,
            "error": self.error,
            "memory_delta": self.memory_delta,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration:.6f}s, "
            f"depth={self.depth}, status={self.status})"
        )


def span_records(source) -> List[Dict[str, Any]]:
    """Span records of a :class:`Tracer` (in tree order), a span
    sequence, or already-parsed records (copied); ``None`` has none."""
    if source is None:
        return []
    if isinstance(source, Tracer):
        source = source.iter_tree()
    return [
        span.to_record() if isinstance(span, Span) else dict(span)
        for span in source
    ]


class _SpanContext:
    """Context manager that opens/closes one span on a tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self._tracer._pop(self._span, exc)
        return False  # never swallow the exception


class _NullSpan:
    """Inert stand-in yielded when tracing is disabled."""

    __slots__ = ()
    name = "<disabled>"
    duration = 0.0
    status = "ok"
    attrs: Dict[str, Any] = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans; share one per pipeline run (or per process).

    Parameters
    ----------
    enabled:
        ``False`` turns :meth:`span` into a no-op returning a shared
        inert context manager — the zero-overhead path.
    trace_memory:
        Record a ``tracemalloc`` memory delta per span.  Starts
        ``tracemalloc`` on demand (and remembers whether it did, so
        :meth:`close` only stops what it started).  Adds measurable
        overhead; off by default.
    """

    def __init__(self, enabled: bool = True, trace_memory: bool = False):
        self.enabled = enabled
        self.trace_memory = trace_memory
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._started_tracemalloc = False
        # Innermost currently-open spans flagged phase=True, across all
        # threads (phases are sequential in practice).  Read by the
        # resource sampler thread for per-phase attribution.
        self._phase_stack: List[str] = []
        if enabled and trace_memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True

    # -- span lifecycle -----------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a named span: ``with tracer.span("lhs", width=5): ...``."""
        if not self.enabled:
            return _NULL_SPAN
        parent = self.current_span
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            depth=parent.depth + 1 if parent is not None else 0,
            attrs=attrs,
        )
        return _SpanContext(self, span)

    def record(self, name: str, seconds: float, **attrs: Any) -> Optional[Span]:
        """Append an already-measured span (work done elsewhere).

        The parallel execution layer uses this to attribute work that
        ran in a worker *process*: the worker's own spans die with the
        child, so the parent re-records each shard from the duration
        reported through the result queue.  The synthetic span becomes a
        child of the currently open span (if any) and ends *now*, i.e.
        ``start`` is back-dated by *seconds* — but never past the
        parent's own start: a relayed shard that (by pool scheduling
        jitter) reports more seconds than its parent has been open is
        clamped to the parent's window, so child intervals always nest
        exactly and trace validators need no containment tolerance.
        The full reported duration survives in ``attrs["seconds"]``
        whenever the clamp shortens the span.
        """
        if not self.enabled:
            return None
        parent = self.current_span
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            depth=parent.depth + 1 if parent is not None else 0,
            attrs=attrs,
        )
        span.end = time.perf_counter()
        span.start = span.end - seconds
        span.start_unix = time.time() - seconds
        if parent is not None and span.start < parent.start:
            attrs.setdefault("seconds", seconds)
            span.start = parent.start
            span.start_unix = max(span.start_unix, parent.start_unix)
        with self._lock:
            self.spans.append(span)
        return span

    def wrap(self, name: Optional[str] = None, **attrs: Any) -> Callable:
        """Decorator form: ``@tracer.wrap("phase")``."""

        def decorator(function: Callable) -> Callable:
            span_name = name or function.__qualname__

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                with self.span(span_name, **attrs):
                    return function(*args, **kwargs)

            return wrapper

        return decorator

    def _push(self, span: Span) -> None:
        if self.trace_memory:
            import tracemalloc

            if tracemalloc.is_tracing():
                span._memory_start = tracemalloc.get_traced_memory()[0]
        span.start_unix = time.time()
        span.start = time.perf_counter()
        stack = self._stack()
        stack.append(span)
        if span.attrs.get("phase"):
            with self._lock:
                self._phase_stack.append(span.name)

    def _pop(self, span: Span, exc: Optional[BaseException]) -> None:
        span.end = time.perf_counter()
        if exc is not None:
            span.status = "error"
            span.error = f"{type(exc).__name__}: {exc}"
        if span._memory_start is not None:
            import tracemalloc

            if tracemalloc.is_tracing():
                span.memory_delta = (
                    tracemalloc.get_traced_memory()[0] - span._memory_start
                )
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # exotic unwinding: drop it wherever it is
            stack.remove(span)
        with self._lock:
            if span.attrs.get("phase"):
                for index in range(len(self._phase_stack) - 1, -1, -1):
                    if self._phase_stack[index] == span.name:
                        del self._phase_stack[index]
                        break
            self.spans.append(span)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    # -- queries ------------------------------------------------------------

    @property
    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @property
    def active_phase(self) -> Optional[str]:
        """Name of the innermost open ``phase=True`` span, from any
        thread (``None`` outside phases).  This is what the resource
        sampler (:mod:`repro.obs.resources`) reads to attribute memory
        samples to pipeline phases."""
        with self._lock:
            return self._phase_stack[-1] if self._phase_stack else None

    def mark(self) -> int:
        """Index into the finished-span list; slice later with [mark:]."""
        with self._lock:
            return len(self.spans)

    def finished_spans(self, since: int = 0) -> List[Span]:
        """Finished spans (appended in completion order), from *since*."""
        with self._lock:
            return list(self.spans[since:])

    def roots(self, since: int = 0) -> List[Span]:
        return [s for s in self.finished_spans(since) if s.parent_id is None]

    def find(self, name: str, since: int = 0) -> List[Span]:
        return [s for s in self.finished_spans(since) if s.name == name]

    def iter_tree(self, since: int = 0) -> Iterator[Span]:
        """Spans in depth-first tree order (parents before children)."""
        spans = self.finished_spans(since)
        children: Dict[Optional[int], List[Span]] = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)
        for siblings in children.values():
            siblings.sort(key=lambda s: s.start)
        present = {span.span_id for span in spans}

        def walk(parent_key: Optional[int]) -> Iterator[Span]:
            for span in children.get(parent_key, []):
                yield span
                yield from walk(span.span_id)

        yield from walk(None)
        # Spans whose parent never finished (partial traces) come last.
        for span in spans:
            if span.parent_id is not None and span.parent_id not in present:
                yield span
                yield from walk(span.span_id)

    def phase_seconds(self, since: int = 0) -> Dict[str, float]:
        """``{name: duration}`` for spans flagged ``phase=True``.

        This is the view :class:`~repro.core.depminer.DepMinerResult`
        (and the TANE/FDEP result objects) expose as ``phase_seconds``;
        repeated phases (shared tracers) keep the *latest* duration.
        """
        out: Dict[str, float] = {}
        for span in self.finished_spans(since):
            if span.attrs.get("phase"):
                out[span.name] = span.duration
        return out

    def close(self) -> None:
        """Stop tracemalloc if this tracer started it."""
        if self._started_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._started_tracemalloc = False

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, {len(self.spans)} finished spans)"


#: Shared disabled tracer: ``span()`` allocates nothing.
NULL_TRACER = Tracer(enabled=False)
