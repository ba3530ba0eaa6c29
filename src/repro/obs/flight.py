"""Flight recorder: bounded retention of interesting request traces.

A metrics snapshot tells you *that* p99 regressed; the flight recorder
tells you *why*, by keeping the full span trees most worth reading:

- the slowest-N requests ever seen (min-heap on end-to-end duration),
- every failed or shed request, in a bounded ring (oldest evicted),
- the most recent completed requests, in a bounded ring.

It also accumulates per-request-kind critical-path totals from *every*
completed request trace (not only retained ones), so the attribution
table — fraction of end-to-end time per stage, per request kind — is
computed over the full population.

Only *request* traces are retained: the tracer hands over every
finalized trace, and the recorder keeps the ones whose root span
carries a ``kind`` attribute (stamped by ``MessageQueue.submit``).
Standalone stage roots (e.g. a ``txn.commit`` opened outside any
request during bulk load) still feed ``span.*`` histograms but would
drown the rings in single-span noise here.

Like the metrics registry, the recorder is thread-safe, dependency
free, and exposed three ways:
``RequestKind.STATS`` with ``payload={"traces": true}``, the
``spitz trace`` / ``spitz slowest`` CLI subcommands, and the benchmark
harness's ``--json`` report.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.tracing import STATUS_OK, Trace


class FlightRecorder:
    """Retains slow/failed/recent traces and per-kind stage totals."""

    def __init__(
        self,
        slowest_capacity: int = 32,
        failure_capacity: int = 128,
        recent_capacity: int = 256,
    ):
        self._lock = threading.Lock()
        self._slowest_capacity = slowest_capacity
        #: Min-heap of (duration, tiebreak, trace) — the root of the
        #: heap is the *fastest* of the retained slowest, so a new
        #: trace only displaces it when strictly slower.
        self._slowest: List[Tuple[float, int, Trace]] = []
        self._counter = itertools.count()
        self._failures: Deque[Trace] = deque(maxlen=failure_capacity)
        self._recent: Deque[Trace] = deque(maxlen=recent_capacity)
        #: kind -> {"requests", "total_seconds", "statuses", "stages"}
        self._kinds: Dict[str, Dict[str, object]] = {}

    # -- ingest ---------------------------------------------------------

    def record(self, trace: Trace) -> None:
        """Ingest one finalized trace (called by the tracer)."""
        kind = trace.kind
        if kind is None:
            return
        with self._lock:
            self._recent.append(trace)
            if trace.status != STATUS_OK:
                self._failures.append(trace)
            tiebreak = next(self._counter)
            if len(self._slowest) < self._slowest_capacity:
                heapq.heappush(
                    self._slowest, (trace.duration, tiebreak, trace)
                )
            elif trace.duration > self._slowest[0][0]:
                heapq.heapreplace(
                    self._slowest, (trace.duration, tiebreak, trace)
                )
            acc = self._kinds.get(kind)
            if acc is None:
                acc = self._kinds[kind] = {
                    "requests": 0,
                    "total_seconds": 0.0,
                    "statuses": {},
                    "stages": {},
                }
            acc["requests"] += 1
            acc["total_seconds"] += trace.duration
            statuses: Dict[str, int] = acc["statuses"]
            statuses[trace.status] = statuses.get(trace.status, 0) + 1
            stages: Dict[str, float] = acc["stages"]
            for stage, seconds in trace.stages.items():
                stages[stage] = stages.get(stage, 0.0) + seconds

    # -- inspection -----------------------------------------------------

    def slowest(self, limit: Optional[int] = None) -> List[Trace]:
        """Retained slowest traces, slowest first."""
        with self._lock:
            traces = [item[2] for item in self._slowest]
        traces.sort(key=lambda trace: trace.duration, reverse=True)
        return traces[:limit] if limit is not None else traces

    def failures(self, limit: Optional[int] = None) -> List[Trace]:
        """Retained failed/shed traces, newest first."""
        with self._lock:
            traces = list(self._failures)
        traces.reverse()
        return traces[:limit] if limit is not None else traces

    def recent(self, limit: Optional[int] = None) -> List[Trace]:
        """Most recent completed traces, newest first."""
        with self._lock:
            traces = list(self._recent)
        traces.reverse()
        return traces[:limit] if limit is not None else traces

    def attribution(self) -> Dict[str, Dict[str, object]]:
        """Per-request-kind critical-path table.

        For each kind: request count, mean end-to-end seconds, status
        counts, and per-stage ``{"seconds", "fraction"}`` where
        ``fraction`` is the stage's share of total end-to-end time.
        Because each trace's stage self-times sum to at most its root
        duration, the fractions for a kind sum to at most 1.0.
        """
        with self._lock:
            kinds = {
                kind: {
                    "requests": acc["requests"],
                    "total_seconds": acc["total_seconds"],
                    "statuses": dict(acc["statuses"]),
                    "stages": dict(acc["stages"]),
                }
                for kind, acc in self._kinds.items()
            }
        table: Dict[str, Dict[str, object]] = {}
        for kind, acc in sorted(kinds.items()):
            total = acc["total_seconds"]
            requests = acc["requests"]
            stages = {
                stage: {
                    "seconds": seconds,
                    "fraction": (seconds / total) if total > 0 else 0.0,
                }
                for stage, seconds in sorted(
                    acc["stages"].items(),
                    key=lambda item: item[1],
                    reverse=True,
                )
            }
            table[kind] = {
                "requests": requests,
                "mean_seconds": (total / requests) if requests else 0.0,
                "total_seconds": total,
                "statuses": acc["statuses"],
                "stages": stages,
            }
        return table

    def snapshot(
        self,
        slowest: int = 8,
        failures: int = 8,
    ) -> Dict[str, object]:
        """JSON-serializable view: attribution + retained trace trees."""
        return {
            "attribution": self.attribution(),
            "slowest": [trace.to_dict() for trace in self.slowest(slowest)],
            "failures": [
                trace.to_dict() for trace in self.failures(failures)
            ],
        }

    def render_attribution(self) -> str:
        """Plain-text critical-path table for terminals."""
        table = self.attribution()
        if not table:
            return "(no completed request traces)"
        lines: List[str] = []
        for kind, row in table.items():
            statuses = " ".join(
                f"{status}={count}"
                for status, count in sorted(row["statuses"].items())
            )
            lines.append(
                f"{kind}: {row['requests']} requests, "
                f"mean {row['mean_seconds'] * 1e3:.3f}ms ({statuses})"
            )
            for stage, cell in row["stages"].items():
                lines.append(
                    f"  {cell['fraction'] * 100:6.2f}%  "
                    f"{cell['seconds'] * 1e3:10.3f}ms  {stage}"
                )
        return "\n".join(lines)
