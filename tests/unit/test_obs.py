"""Unit tests for the observability layer (metrics + tracing)."""

import threading
import time

from repro.obs import flight, tracing
from repro.obs.metrics import (
    MetricsRegistry,
    NULL_REGISTRY,
    snapshot_delta,
)


class TestInstruments:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_holds_latest(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")
        assert registry.histogram("z") is registry.histogram("z")

    def test_histogram_summary_fields(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in (0.001, 0.002, 0.004, 0.008):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["min"] == 0.001
        assert summary["max"] == 0.008
        assert abs(summary["sum"] - 0.015) < 1e-12
        assert summary["min"] <= summary["p50"] <= summary["max"]
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_histogram_percentiles_deterministic(self):
        """Same observations => identical summaries, run after run."""
        summaries = []
        for _ in range(3):
            registry = MetricsRegistry()
            hist = registry.histogram("h")
            for i in range(1, 101):
                hist.observe(i / 1000.0)
            summaries.append(hist.summary())
        assert summaries[0] == summaries[1] == summaries[2]
        # The bucket bound never strays more than one ~19% bucket from
        # the exact rank statistic.
        assert 0.040 <= summaries[0]["p50"] <= 0.062
        assert 0.080 <= summaries[0]["p95"] <= 0.115

    def test_histogram_single_observation_is_exact(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        hist.observe(0.25)
        summary = hist.summary()
        assert summary["p50"] == summary["p99"] == 0.25

    def test_empty_histogram(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        assert hist.percentile(0.5) is None
        assert hist.summary() == {"count": 0}


class TestRegistry:
    def test_snapshot_structure(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.gauge("b").set(7)
        registry.histogram("c").observe(1.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"a": 2}
        assert snap["gauges"] == {"b": 7.0}
        assert snap["histograms"]["c"]["count"] == 1

    def test_snapshot_delta(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.histogram("h").observe(1.0)
        before = registry.snapshot()
        registry.counter("a").inc(3)
        registry.counter("new").inc()
        registry.histogram("h").observe(2.0)
        delta = snapshot_delta(before, registry.snapshot())
        assert delta["counters"] == {"a": 3, "new": 1}
        assert delta["histograms"]["h"]["count"] == 1

    def test_delta_drops_unchanged(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        snap = registry.snapshot()
        delta = snapshot_delta(snap, snap)
        assert delta["counters"] == {}
        assert delta["histograms"] == {}

    def test_disabled_registry_is_noop(self):
        counter = NULL_REGISTRY.counter("whatever")
        counter.inc(100)
        assert counter.value == 0
        NULL_REGISTRY.gauge("g").set(9)
        NULL_REGISTRY.histogram("h").observe(1.0)
        snap = NULL_REGISTRY.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_thread_safe_counting(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        hist = registry.histogram("h")

        def work():
            for _ in range(1000):
                counter.inc()
                hist.observe(0.001)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000
        assert hist.count == 8000


class TestTracer:
    def test_span_records_histogram_and_buffer(self):
        registry = MetricsRegistry()
        with registry.tracer.span("outer"):
            with registry.tracer.span("inner"):
                pass
        assert registry.histogram("span.outer").count == 1
        assert registry.histogram("span.inner").count == 1
        spans = registry.tracer.recent()
        assert [span.name for span in spans] == ["inner", "outer"]
        inner, outer = spans
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id

    def test_span_records_error_status_on_exception(self):
        registry = MetricsRegistry()
        try:
            with registry.tracer.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert registry.histogram("span.boom").count == 1
        assert registry.tracer.recent("boom")[0].status == "error"

    def test_recent_filter_and_capacity(self):
        registry = MetricsRegistry()
        tracer = registry.tracer
        for _ in range(3):
            with tracer.span("a"):
                pass
        with tracer.span("b"):
            pass
        assert len(tracer.recent("a")) == 3
        assert len(tracer.recent("b")) == 1

    def test_attributes_and_context(self):
        registry = MetricsRegistry()
        with registry.tracer.span("op", attributes={"kind": "get"}) as span:
            assert registry.tracer.current_context() == span.context
            span.set_attribute("extra", 1)
        assert registry.tracer.current_context() is None
        recorded = registry.tracer.recent("op")[0]
        assert recorded.attributes == {"kind": "get", "extra": 1}

    def test_cross_thread_parenting(self):
        """A span started on another thread with an explicit parent
        lands in the same trace, under the right parent."""
        registry = MetricsRegistry()
        tracer = registry.tracer
        root = tracer.start_span("client.submit")

        def serve():
            with tracer.span("node.serve", parent=root):
                with tracer.span("request.handle"):
                    pass

        worker = threading.Thread(target=serve)
        worker.start()
        worker.join()
        tracer.finish(root, status="ok")
        spans = {span.name: span for span in tracer.recent()}
        assert spans["node.serve"].trace_id == root.trace_id
        assert spans["node.serve"].parent_id == root.span_id
        assert spans["request.handle"].parent_id == spans["node.serve"].span_id

    def test_root_completion_hands_trace_to_flight(self):
        registry = MetricsRegistry()
        tracer = registry.tracer
        root = tracer.start_span(
            "client.submit", attributes={"kind": "put"}
        )
        with tracer.span("node.serve", parent=root):
            pass
        tracer.finish(root, status="ok")
        traces = registry.flight.recent()
        assert len(traces) == 1
        trace = traces[0]
        assert trace.kind == "put"
        assert trace.status == "ok"
        assert [span.name for span in trace.children_of(trace.root)] == [
            "node.serve"
        ]
        assert tracer.open_trace_count() == 0

    def test_stage_outside_trace_is_histogram_only(self):
        registry = MetricsRegistry()
        with registry.tracer.stage("wal.fsync"):
            pass
        assert registry.histogram("span.wal.fsync").count == 1
        assert registry.tracer.recent("wal.fsync") == []

    def test_stage_inside_trace_records_child_span(self):
        registry = MetricsRegistry()
        with registry.tracer.span("outer") as outer:
            with registry.tracer.stage("txn.commit"):
                pass
        stage = registry.tracer.recent("txn.commit")[0]
        assert stage.parent_id == outer.span_id

    def test_stage_in_trace_is_noop_outside_trace(self):
        registry = MetricsRegistry()
        with registry.tracer.stage_in_trace("ledger.prove"):
            pass
        assert registry.histogram("span.ledger.prove").count == 0
        with registry.tracer.span("outer"):
            with registry.tracer.stage_in_trace("ledger.prove"):
                pass
        assert registry.histogram("span.ledger.prove").count == 1

    def test_disabled_registry_spans_are_noops(self):
        tracer = NULL_REGISTRY.tracer
        with tracer.span("x") as span:
            assert span is None
        with tracer.stage("y"):
            pass
        assert tracer.start_span("z") is None
        tracer.finish(None)  # must not raise
        assert tracer.recent() == []

    def test_open_trace_bound_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_OPEN_TRACES", 4)
        registry = MetricsRegistry()
        tracer = registry.tracer
        leaked = [tracer.start_span(f"root{i}") for i in range(8)]
        # Finish only child spans, never the roots: the open-trace
        # table must stay bounded instead of growing forever.
        for root in leaked:
            with tracer.span("child", parent=root):
                pass
        assert tracer.open_trace_count() <= 5


class TestTraceAssembly:
    def _trace_via(self, registry):
        tracer = registry.tracer
        root = tracer.start_span("root", attributes={"kind": "get"})
        with tracer.span("mid", parent=root):
            with tracer.span("leaf"):
                pass
        tracer.finish(root, status="ok")
        return registry.flight.recent()[0]

    def test_stage_self_times_sum_to_at_most_root_duration(self):
        registry = MetricsRegistry()
        trace = self._trace_via(registry)
        assert set(trace.stages) == {"root", "mid", "leaf"}
        assert all(seconds >= 0.0 for seconds in trace.stages.values())
        assert sum(trace.stages.values()) <= trace.duration + 1e-12

    def test_to_dict_and_render(self):
        registry = MetricsRegistry()
        trace = self._trace_via(registry)
        payload = trace.to_dict()
        assert payload["kind"] == "get"
        assert payload["root"]["name"] == "root"
        assert payload["root"]["children"][0]["name"] == "mid"
        rendered = trace.render()
        assert "root" in rendered and "  mid" in rendered
        assert "    leaf" in rendered


class TestFlightRecorder:
    def _make_trace(self, registry, kind="get", status="ok", delay=0.0):
        tracer = registry.tracer
        root = tracer.start_span("root", attributes={"kind": kind})
        if delay:
            time.sleep(delay)
        tracer.finish(root, status=status)

    def test_slowest_keeps_n_slowest(self, monkeypatch):
        monkeypatch.setattr(flight, "SLOWEST_CAPACITY", 2)
        registry = MetricsRegistry()
        self._make_trace(registry, delay=0.003)
        self._make_trace(registry, delay=0.0)
        self._make_trace(registry, delay=0.002)
        slowest = registry.flight.slowest()
        assert len(slowest) == 2
        assert slowest[0].duration >= slowest[1].duration
        assert slowest[1].duration >= 0.002

    def test_failures_ring_keeps_failed_and_shed(self):
        registry = MetricsRegistry()
        self._make_trace(registry, status="ok")
        self._make_trace(registry, status="error")
        self._make_trace(registry, status="shed")
        statuses = [trace.status for trace in registry.flight.failures()]
        assert statuses == ["shed", "error"]

    def test_ignores_traces_without_request_kind(self):
        registry = MetricsRegistry()
        with registry.tracer.span("standalone"):
            pass
        assert registry.flight.recent() == []

    def test_attribution_fractions_sum_to_at_most_one(self):
        registry = MetricsRegistry()
        for _ in range(5):
            tracer = registry.tracer
            root = tracer.start_span("root", attributes={"kind": "put"})
            with tracer.span("stage_a", parent=root):
                pass
            tracer.finish(root, status="ok")
        table = registry.flight.attribution()
        row = table["put"]
        assert row["requests"] == 5
        assert row["statuses"] == {"ok": 5}
        total_fraction = sum(
            cell["fraction"] for cell in row["stages"].values()
        )
        assert total_fraction <= 1.0 + 1e-9

    def test_snapshot_is_json_serializable(self):
        import json

        registry = MetricsRegistry()
        self._make_trace(registry, status="error")
        payload = registry.flight.snapshot()
        parsed = json.loads(json.dumps(payload))
        assert parsed["attribution"]["get"]["requests"] == 1
        assert len(parsed["failures"]) == 1


class TestHistogramSnapshotRace:
    def test_summary_races_observe_without_runtime_error(self):
        """Regression: summary()/percentile() used to iterate the live
        bucket dict; a concurrent observe() inserting a fresh bucket
        raised ``RuntimeError: dictionary changed size during
        iteration``."""
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        stop = threading.Event()
        errors = []

        def writer():
            value = 1e-9
            while not stop.is_set():
                # Walk the value so nearly every observe lands in a
                # brand-new bucket (maximizing dict-resize pressure).
                hist.observe(value)
                value *= 1.19
                if value > 1e9:
                    value = 1e-9

        def reader():
            try:
                while not stop.is_set():
                    hist.summary()
                    hist.percentile(0.5)
            except RuntimeError as error:  # pragma: no cover
                errors.append(error)

        writers = [threading.Thread(target=writer) for _ in range(2)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in writers + readers:
            thread.start()
        time.sleep(0.3)
        stop.set()
        for thread in writers + readers:
            thread.join()
        assert errors == []
        summary = hist.summary()
        assert summary["count"] == hist.count


class TestCounterGaugeValueRace:
    """Regression (PR 9): ``Counter.value``/``Gauge.value`` read
    ``_value`` without the shared lock — the same class of race PR 4
    fixed for ``Histogram.percentile``/``summary``.  An unlocked read
    can observe a torn or stale value while eight writers increment.
    """

    def test_counter_reads_are_monotone_under_write_hammer(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammered")
        per_thread = 5_000
        threads = 8
        # Parties: the 8 writers, the reader, and this thread.
        start = threading.Barrier(threads + 2)
        observed = []
        errors = []

        def writer():
            start.wait()
            for _ in range(per_thread):
                counter.inc()

        def reader():
            start.wait()
            last = 0
            try:
                while last < threads * per_thread:
                    current = counter.value
                    # A locked read can never go backwards and can
                    # never exceed the final total.
                    assert current >= last
                    assert current <= threads * per_thread
                    last = current
                    observed.append(current)
            except AssertionError as error:  # pragma: no cover
                errors.append(error)

        workers = [
            threading.Thread(target=writer) for _ in range(threads)
        ]
        watcher = threading.Thread(target=reader)
        for thread in workers:
            thread.start()
        watcher.start()
        start.wait()
        for thread in workers:
            thread.join()
        watcher.join(timeout=10.0)
        assert errors == []
        assert counter.value == threads * per_thread
        # The reader always gets at least one read in, and its last
        # read is the settled total.  (How many intermediate states it
        # sees is scheduler-dependent, so we don't assert on it.)
        assert observed
        assert observed[-1] == threads * per_thread

    def test_gauge_reads_locked_under_write_hammer(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("hammered")
        stop = threading.Event()
        seen = []
        errors = []

        def writer(value):
            while not stop.is_set():
                gauge.set(value)

        def reader():
            try:
                while not stop.is_set():
                    value = gauge.value
                    assert value in (0, 1.0, 2.0, 3.0)
                    seen.append(value)
            except AssertionError as error:  # pragma: no cover
                errors.append(error)

        writers = [
            threading.Thread(target=writer, args=(float(i),))
            for i in (1, 2, 3)
        ]
        readers = [threading.Thread(target=reader) for _ in range(5)]
        for thread in writers + readers:
            thread.start()
        time.sleep(0.2)
        stop.set()
        for thread in writers + readers:
            thread.join()
        assert errors == []
        assert seen
