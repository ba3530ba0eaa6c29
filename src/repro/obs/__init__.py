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

from repro.obs.metrics import MetricsRegistry

__all__ = ["MetricsRegistry"]
