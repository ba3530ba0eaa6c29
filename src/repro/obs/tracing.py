"""Propagating tracing spans over the metrics registry.

A span times one named operation.  Unlike the first-generation tracer
(per-thread only, parent tracked by *name*), spans now carry real
identity — ``trace_id``/``span_id``/``parent_id`` — plus a status
(``ok``/``error``/``shed``) and key-value attributes, so a trace can
follow one request across thread boundaries: the client thread opens
the root ``client.submit`` span inside the message queue, the
:class:`~repro.core.node.Envelope` carries that span across the
queue, and the processor node's serve thread parents its
``node.serve`` span under it.

Completed spans do three things:

1. feed the histogram ``span.<name>`` in the owning
   :class:`~repro.obs.metrics.MetricsRegistry` (so p50/p95/p99 of any
   traced stage appear in every metrics snapshot),
2. land in a bounded per-tracer ring buffer (:meth:`Tracer.recent`),
   and
3. accumulate under their ``trace_id``; when the trace's *root* span
   finishes, the whole tree is assembled into a :class:`Trace` (with
   per-stage self-time attribution) and handed to the registry's
   :class:`~repro.obs.flight.FlightRecorder`.

Two entry points with different costs:

- :meth:`Tracer.span` — a full span: always recorded, creates a new
  trace when no parent exists.  Use for request-level operations
  (``client.submit``, ``node.serve``).
- :meth:`Tracer.stage` — a *child-only* span for hot leaf stages
  (``chunks.put``, ``wal.fsync``, ``ledger.append``...).  Inside an
  active trace it records a real child span; outside one it only
  observes the ``span.<name>`` histogram, so bulk-load write paths
  never flood the trace buffers with single-span traces.

Thread propagation model: each thread keeps a stack of active spans
(``span``/``stage`` push and pop around their body).  Cross-thread
parenting is explicit — pass ``parent=`` a :class:`Span` or
:class:`SpanContext` captured on the other side of the boundary.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

#: Span statuses.  ``shed`` marks an envelope completed-unprocessed
#: after its client deadline expired (see DESIGN.md §6c).
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_SHED = "shed"


@dataclass(frozen=True)
class SpanContext:
    """The portable identity of a span — what crosses thread (and,
    conceptually, process) boundaries to parent remote children."""

    trace_id: int
    span_id: int


@dataclass
class Span:
    """One traced operation (mutable while open, inert once finished)."""

    name: str
    trace_id: int
    span_id: int
    parent_id: Optional[int]
    start: float
    duration: float = 0.0
    status: str = STATUS_OK
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value


@dataclass
class Trace:
    """A completed span tree, finalized when its root span finished.

    ``stages`` attributes the end-to-end time to stage names by *self
    time* (a span's duration minus its children's), clamped and — in
    the rare case clock jitter makes children overrun their parent —
    scaled so the stage durations always sum to at most the root
    span's duration.  That invariant is what makes the critical-path
    table trustworthy: fractions of end-to-end time per stage can
    never add up past 100%.
    """

    root: Span
    spans: List[Span]
    children: Dict[int, List[Span]]
    stages: Dict[str, float]

    @property
    def trace_id(self) -> int:
        return self.root.trace_id

    @property
    def kind(self) -> Optional[str]:
        kind = self.root.attributes.get("kind")
        return str(kind) if kind is not None else None

    @property
    def status(self) -> str:
        return self.root.status

    @property
    def duration(self) -> float:
        return self.root.duration

    def children_of(self, span: Span) -> List[Span]:
        return self.children.get(span.span_id, [])

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable view (the shape ``spitz trace --json``,
        the STATS extension and the bench harness all emit)."""
        return {
            "trace_id": self.trace_id,
            "kind": self.kind,
            "status": self.status,
            "duration_seconds": self.duration,
            "stages": dict(self.stages),
            "root": self._span_dict(self.root),
        }

    def _span_dict(self, span: Span) -> Dict[str, object]:
        return {
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "duration_seconds": span.duration,
            "status": span.status,
            "attributes": dict(span.attributes),
            "children": [
                self._span_dict(child) for child in self.children_of(span)
            ],
        }

    def render(self) -> str:
        """Indented one-line-per-span tree for terminals."""
        lines: List[str] = []

        def walk(span: Span, depth: int) -> None:
            attrs = " ".join(
                f"{key}={_fmt_attr(value)}"
                for key, value in sorted(span.attributes.items())
            )
            lines.append(
                "  " * depth
                + f"{span.name}  {span.duration * 1e3:.3f}ms  {span.status}"
                + (f"  {attrs}" if attrs else "")
            )
            for child in self.children_of(span):
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


def _fmt_attr(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def build_trace(spans: Sequence[Span]) -> Optional[Trace]:
    """Assemble finished spans (sharing one trace_id) into a tree."""
    root: Optional[Span] = None
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent_id is None:
            root = span
        else:
            children.setdefault(span.parent_id, []).append(span)
    if root is None:
        return None
    for kids in children.values():
        kids.sort(key=lambda span: span.start)
    stages: Dict[str, float] = {}
    for span in spans:
        child_total = sum(
            child.duration for child in children.get(span.span_id, ())
        )
        self_time = span.duration - child_total
        if self_time < 0.0:
            self_time = 0.0
        stages[span.name] = stages.get(span.name, 0.0) + self_time
    total = sum(stages.values())
    if total > root.duration > 0.0:
        scale = root.duration / total
        stages = {name: seconds * scale for name, seconds in stages.items()}
    return Trace(root=root, spans=list(spans), children=children,
                 stages=stages)


class _NoopContext:
    """Shared do-nothing span context manager (disabled registries)."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NOOP_CONTEXT = _NoopContext()


class _ActiveSpan:
    """Context manager running one span on the current thread's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Optional[Span]):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Optional[Span]:
        if self._span is not None:
            self._tracer._stack().append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb):
        span = self._span
        if span is None:
            return False
        stack = self._tracer._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if exc_type is not None and span.status == STATUS_OK:
            span.status = STATUS_ERROR
        self._tracer.finish(span)
        return False


class _HistogramStage:
    """Histogram-only timing for a stage outside any active trace."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram):
        self._histogram = histogram

    def __enter__(self):
        self._start = time.perf_counter()
        return None

    def __exit__(self, exc_type, exc, tb):
        self._histogram.observe(time.perf_counter() - self._start)
        return False


#: Finished spans :meth:`Tracer.recent` keeps, newest last.
SPAN_CAPACITY = 512
#: Traces whose root has not finished, held before the oldest goes.
MAX_OPEN_TRACES = 1024


class Tracer:
    """Allocates, nests and records spans; assembles finished traces.

    ``flight`` (a :class:`~repro.obs.flight.FlightRecorder`) receives
    every finalized trace.  :data:`MAX_OPEN_TRACES` bounds memory held
    for traces whose root never finishes (a leaked root is a bug, but
    it must not become a leak here): the oldest open trace is evicted
    once the bound is hit.
    """

    def __init__(self, registry, flight=None):
        self._registry = registry
        self._spans: Deque[Span] = deque(maxlen=SPAN_CAPACITY)
        #: name -> pre-bound ``span.<name>`` histogram.  Stage sites on
        #: hot read paths (``ledger.prove``, ``verifier.verify``) go
        #: through here every operation; paying an f-string plus the
        #: registry lock per call costs several µs/op, which is what
        #: the <5% instrumentation budget is spent guarding against.
        self._stage_hists: Dict[str, object] = {}
        self._lock = threading.Lock()
        self._active = threading.local()
        self._next_id = 1
        #: trace_id -> finished spans awaiting their root.
        self._open: Dict[int, List[Span]] = {}
        self.flight = flight

    @property
    def enabled(self) -> bool:
        return self._registry.enabled

    def _stage_histogram(self, name: str):
        # Benign race: two threads may both miss, but the registry
        # hands back the same instrument for the same name.
        hist = self._stage_hists.get(name)
        if hist is None:
            hist = self._registry.histogram("span." + name)
            self._stage_hists[name] = hist
        return hist

    # -- span lifecycle -------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._active, "stack", None)
        if stack is None:
            stack = self._active.stack = []
        return stack

    def current_context(self) -> Optional[SpanContext]:
        """This thread's active span context (None outside any span)."""
        stack = getattr(self._active, "stack", None)
        return stack[-1].context if stack else None

    def _allocate(self, name, parent, attributes) -> Span:
        with self._lock:
            span_id = self._next_id
            if parent is None:
                trace_id = self._next_id + 1
                self._next_id += 2
                parent_id = None
            else:
                trace_id = parent.trace_id
                parent_id = parent.span_id
                self._next_id += 1
        return Span(
            name=name,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            start=time.perf_counter(),
            attributes=dict(attributes) if attributes else {},
        )

    def start_span(
        self,
        name: str,
        parent: Optional[object] = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> Optional[Span]:
        """Open a span for manual :meth:`finish` (cross-thread roots).

        ``parent`` is a :class:`Span` or :class:`SpanContext`; when
        None the current thread's active span (if any) is used, and
        with no active span a fresh trace begins.  Returns None on a
        disabled registry (``finish(None)`` is a no-op).
        """
        if not self._registry.enabled:
            return None
        if parent is None:
            stack = getattr(self._active, "stack", None)
            if stack:
                parent = stack[-1]
        return self._allocate(name, parent, attributes)

    def finish(self, span: Optional[Span], status: Optional[str] = None) -> None:
        """Close ``span``: record it and, if it was the trace root,
        finalize the trace and hand it to the flight recorder."""
        if span is None or not self._registry.enabled:
            return
        span.duration = time.perf_counter() - span.start
        if status is not None:
            span.status = status
        self._stage_histogram(span.name).observe(span.duration)
        finished: Optional[List[Span]] = None
        with self._lock:
            self._spans.append(span)
            bucket = self._open.get(span.trace_id)
            if bucket is None:
                bucket = self._open[span.trace_id] = []
            bucket.append(span)
            if span.parent_id is None:
                finished = self._open.pop(span.trace_id)
            elif len(self._open) > MAX_OPEN_TRACES:
                # Evict the oldest open trace (insertion order) that is
                # not the one just touched.
                for stale in self._open:
                    if stale != span.trace_id:
                        del self._open[stale]
                        break
        if finished is not None:
            trace = build_trace(finished)
            if trace is not None and self.flight is not None:
                self.flight.record(trace)

    def span(
        self,
        name: str,
        parent: Optional[object] = None,
        attributes: Optional[Dict[str, object]] = None,
    ):
        """Context manager timing one full span (roots a new trace when
        there is no parent).  Yields the :class:`Span` (or None when
        disabled); an escaping exception marks it ``error``."""
        if not self._registry.enabled:
            return _NOOP_CONTEXT
        return _ActiveSpan(
            self, self.start_span(name, parent=parent, attributes=attributes)
        )

    def stage(
        self,
        name: str,
        attributes: Optional[Dict[str, object]] = None,
    ):
        """Child-only span for hot leaf stages.

        Inside an active trace: a real child span.  Outside one: only
        the ``span.<name>`` histogram is observed — no trace-buffer
        traffic, which is what keeps bulk loads (thousands of
        ``chunks.put`` calls per second with no request in flight)
        cheap and the flight recorder free of single-span noise.
        """
        if not self._registry.enabled:
            return _NOOP_CONTEXT
        stack = getattr(self._active, "stack", None)
        if not stack:
            return _HistogramStage(self._stage_histogram(name))
        return _ActiveSpan(
            self, self._allocate(name, stack[-1], attributes)
        )

    def stage_in_trace(
        self,
        name: str,
        attributes: Optional[Dict[str, object]] = None,
    ):
        """Like :meth:`stage`, but a complete no-op outside an active
        trace — for call sites too hot to pay even histogram-only
        timing per operation (e.g. ``chunks.put``, which sits under
        every index-node write during bulk loads)."""
        if not self._registry.enabled:
            return _NOOP_CONTEXT
        stack = getattr(self._active, "stack", None)
        if not stack:
            return _NOOP_CONTEXT
        return _ActiveSpan(
            self, self._allocate(name, stack[-1], attributes)
        )

    # -- inspection -----------------------------------------------------

    def recent(self, name: Optional[str] = None) -> List[Span]:
        """Most recent completed spans, oldest first."""
        with self._lock:
            spans = list(self._spans)
        if name is not None:
            spans = [span for span in spans if span.name == name]
        return spans

    def open_trace_count(self) -> int:
        with self._lock:
            return len(self._open)
