"""Dependency-free metrics: counters, gauges, log-bucketed histograms.

Section 6 of the paper evaluates Spitz entirely through latency,
throughput and proof-size measurements; ForkBase (PVLDB'18) quantifies
its claims through per-operation counters (dedup ratios, node reuse).
This module is the reproduction's measurement substrate: every layer
holds a :class:`MetricsRegistry` and records into it, and the same
snapshot is served three ways — a ``RequestKind.STATS`` request, the
``spitz stats`` CLI subcommand, and the benchmark harness's JSON
output.

Design constraints, in order:

1. **Zero dependencies** — stdlib only, like the rest of the repo.
2. **Cheap on hot paths** — instruments are pre-bound objects (one
   lock acquire + one arithmetic op per event); the raw storage-layer
   point read is deliberately *not* instrumented per-operation, which
   is what keeps ``bench_fig6_read`` overhead under the 5% budget
   guarded in ``tests/integration/test_bench_shapes.py``.
3. **Deterministic summaries** — histograms use fixed geometric
   buckets (factor ``2**(1/4)``), so p50/p95/p99 are reproducible
   functions of the observed values, never sampled.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional

#: Geometric bucket upper bounds: 2**(k/4) for k in [-120, 160] covers
#: ~1e-9 (nanosecond latencies) through ~1e12 (giga-byte sizes) with
#: ~19% relative resolution per bucket.
_BUCKET_BOUNDS: List[float] = [2.0 ** (k / 4.0) for k in range(-120, 161)]

#: Public alias: the time-series and exposition layers translate
#: bucket *indexes* (what :meth:`Histogram.bucket_snapshot` carries)
#: back into upper bounds with this table.
BUCKET_BOUNDS: List[float] = _BUCKET_BOUNDS


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self._value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        # Read under the shared lock: an unlocked read can observe a
        # torn update on implementations without atomic ints and, more
        # practically, lets a reader interleave between the ``+=``'s
        # load and store — the same class of race PR 4 fixed for
        # ``Histogram.percentile``/``summary``.
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value (queue depth, cache size, dedup ratio)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with deterministic percentile summaries.

    Values land in geometric buckets (see :data:`_BUCKET_BOUNDS`);
    ``percentile(q)`` returns the upper bound of the bucket holding the
    rank-``q`` observation, clamped to the exact observed min/max, so
    two runs that observe the same values report the same p50/p95/p99.
    """

    __slots__ = ("name", "_lock", "_buckets", "count", "total", "min", "max")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = bisect_left(_BUCKET_BOUNDS, value)
        with self._lock:
            self._buckets[index] = self._buckets.get(index, 0) + 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def _state(self):
        """Consistent copy of mutable state, taken under the lock.

        Readers (``percentile``/``summary``) must never iterate
        ``self._buckets`` live: a concurrent ``observe`` inserting a
        fresh bucket raises ``RuntimeError: dictionary changed size
        during iteration`` — seen in practice when a STATS snapshot
        races a hot write path.
        """
        with self._lock:
            return dict(self._buckets), self.count, self.min, self.max, \
                self.total

    @staticmethod
    def _rank_estimate(buckets, count, lo, hi, q: float) -> Optional[float]:
        rank = max(1, int(q * count + 0.999999))
        seen = 0
        for index in sorted(buckets):
            seen += buckets[index]
            if seen >= rank:
                bound = (
                    _BUCKET_BOUNDS[index]
                    if index < len(_BUCKET_BOUNDS)
                    else hi
                )
                assert lo is not None and hi is not None
                return min(max(bound, lo), hi)
        return hi

    def percentile(self, q: float) -> Optional[float]:
        """Deterministic rank-``q`` estimate (``q`` in (0, 1])."""
        buckets, count, lo, hi, _ = self._state()
        if count == 0:
            return None
        return self._rank_estimate(buckets, count, lo, hi, q)

    def bucket_snapshot(self) -> Dict[str, object]:
        """Raw bucket state, consistently copied under the lock.

        The time-series layer diffs successive copies to get per-window
        bucket deltas, and the Prometheus exposition renders them as
        cumulative ``le`` buckets; ``summary()`` alone is too lossy for
        either (no per-bucket counts).
        """
        buckets, count, lo, hi, total = self._state()
        return {
            "buckets": buckets,
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
        }

    def summary(self) -> Dict[str, float]:
        buckets, count, lo, hi, total = self._state()
        if count == 0:
            return {"count": 0}
        return {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "p50": self._rank_estimate(buckets, count, lo, hi, 0.50),
            "p95": self._rank_estimate(buckets, count, lo, hi, 0.95),
            "p99": self._rank_estimate(buckets, count, lo, hi, 0.99),
        }


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for disabled registries."""

    __slots__ = ()
    name = "<null>"
    value = 0
    count = 0
    total = 0.0
    min = None
    max = None

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> Optional[float]:
        return None

    def summary(self) -> Dict[str, float]:
        return {"count": 0}

    def bucket_snapshot(self) -> Dict[str, object]:
        return {
            "buckets": {}, "count": 0, "sum": 0.0, "min": None, "max": None,
        }


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named counters, gauges and histograms behind one lock.

    Instruments are created on first use and returned by reference, so
    hot paths bind them once (``self._c_commits =
    metrics.counter("db.commits")``) and pay one lock acquire per
    event.  A registry built with ``enabled=False`` hands out shared
    no-op instruments — the mechanism behind the "uninstrumented"
    configuration the overhead guard test compares against.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # Imported here: tracing builds on the registry's histograms.
        from repro.obs.flight import FlightRecorder
        from repro.obs.tracing import Tracer

        self.flight = FlightRecorder()
        self.tracer = Tracer(self, flight=self.flight)

    # -- instrument factories (get-or-create) ---------------------------

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = Counter(name, self._lock)
                self._counters[name] = instrument
            return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = Gauge(name, self._lock)
                self._gauges[name] = instrument
            return instrument

    def histogram(self, name: str) -> Histogram:
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = Histogram(name, self._lock)
                self._histograms[name] = instrument
            return instrument

    # -- reporting ------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """One JSON-serializable view of every instrument.

        This exact structure is what ``RequestKind.STATS``, ``spitz
        stats`` and the benchmark harness's JSON output all emit.
        """
        with self._lock:
            counters = {
                name: c._value for name, c in sorted(self._counters.items())
            }
            gauges = {
                name: g._value for name, g in sorted(self._gauges.items())
            }
            histogram_refs = sorted(self._histograms.items())
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": {
                name: h.summary() for name, h in histogram_refs
            },
        }

    def counter_values(self) -> Dict[str, int]:
        """Point-in-time copy of every counter (time-series sampling)."""
        with self._lock:
            return {name: c._value for name, c in self._counters.items()}

    def gauge_values(self) -> Dict[str, float]:
        with self._lock:
            return {name: g._value for name, g in self._gauges.items()}

    def histogram_states(self) -> Dict[str, Dict[str, object]]:
        """Raw bucket state of every histogram.

        References are copied under the registry lock, then each
        histogram copies its buckets under the same (shared) lock — the
        result is a consistent sample the time-series ticker can diff
        against its previous one.
        """
        with self._lock:
            refs = list(self._histograms.items())
        return {name: h.bucket_snapshot() for name, h in refs}

    def exposition_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Everything the Prometheus exposition needs in one pass:
        counters, gauges, and *bucket-level* histogram state (the
        regular :meth:`snapshot` carries only percentile summaries)."""
        return {
            "counters": self.counter_values(),
            "gauges": self.gauge_values(),
            "histograms": self.histogram_states(),
        }


def snapshot_delta(
    before: Dict[str, Dict[str, object]],
    after: Dict[str, Dict[str, object]],
) -> Dict[str, Dict[str, object]]:
    """Counter/histogram-count deltas between two snapshots.

    Gauges are point-in-time, so the *after* value is reported as-is.
    The benchmark harness stores one delta per figure so a
    ``BENCH_*.json`` run carries "what the system did" alongside "how
    fast it went".
    """
    counters = {}
    for name, value in after.get("counters", {}).items():
        counters[name] = value - before.get("counters", {}).get(name, 0)
    histograms = {}
    for name, summary in after.get("histograms", {}).items():
        previous = before.get("histograms", {}).get(name, {"count": 0})
        histograms[name] = {
            "count": summary.get("count", 0) - previous.get("count", 0),
            "sum": summary.get("sum", 0.0) - previous.get("sum", 0.0),
            "p50": summary.get("p50"),
            "p95": summary.get("p95"),
            "p99": summary.get("p99"),
        }
    return {
        "counters": {k: v for k, v in counters.items() if v},
        "gauges": dict(after.get("gauges", {})),
        "histograms": {
            k: v for k, v in histograms.items() if v["count"]
        },
    }


#: Shared disabled registry: hand this to a component to opt out of
#: instrumentation entirely (no-op instruments, empty snapshots).
NULL_REGISTRY = MetricsRegistry(enabled=False)
