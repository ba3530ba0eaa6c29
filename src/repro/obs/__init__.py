"""Observability layer: metrics registry, propagating tracer, flight
recorder.

The cluster-wide measurement substrate (see DESIGN.md, "Observability
layer" and "Tracing layer").  Everything here is dependency-free
process state, never persisted; the same
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` structure is
served by ``RequestKind.STATS``, the ``spitz stats`` CLI subcommand,
and the benchmark harness's ``--json`` output.  Traces follow the same
three-surface rule: ``RequestKind.STATS`` with
``payload={"traces": true}``, ``spitz trace`` / ``spitz slowest``, and
the harness's per-figure stage breakdown.

The time-series telemetry plane (DESIGN.md §6h) layers live signals
over the cumulative substrate: :mod:`repro.obs.timeseries` (fixed-slot
windowed rates and percentiles), :mod:`repro.obs.slo` (multi-window
burn-rate health gating ``/readyz``), :mod:`repro.obs.exposition`
(Prometheus text format for ``GET /metrics``), and
:mod:`repro.obs.profiler` (opt-in folded-stack wall-clock sampler).

Admission-control instruments (DESIGN.md, "Admission control"):
``queue.capacity`` (gauge; 0 = unbounded), ``queue.rejected_overload``
(submits refused fast under sustained overload) and ``queue.shed``
(accepted envelopes completed-unprocessed after their client deadline
expired).  Together with ``queue.submitted``, ``node.processed`` and
``cluster.failed_on_stop`` they close the accounting invariant:
processed + shed + failed-on-stop == submitted.
"""

from repro.obs.exposition import (
    PROM_CONTENT_TYPE,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    snapshot_delta,
)
from repro.obs.profiler import SamplingProfiler, profile_duration
from repro.obs.slo import SloEvaluator, SloObjective, default_objectives
from repro.obs.timeseries import TelemetryPlane, TimeSeries
from repro.obs.tracing import Span, SpanContext, Trace, Tracer

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "PROM_CONTENT_TYPE",
    "SamplingProfiler",
    "SloEvaluator",
    "SloObjective",
    "Span",
    "SpanContext",
    "TelemetryPlane",
    "TimeSeries",
    "Trace",
    "Tracer",
    "default_objectives",
    "parse_prometheus",
    "profile_duration",
    "render_prometheus",
    "snapshot_delta",
]
