"""Cross-layer observability: one registry, two surfaces.

The same :class:`~repro.obs.metrics.MetricsRegistry` snapshot must be
reachable through a ``RequestKind.STATS`` request and the ``spitz
stats`` CLI subcommand — and its totals must survive concurrent load
exactly (no lost increments).

Tracing follows the same rule: every envelope a queue accepts must
finalize exactly one trace — a parented span tree from the client's
root span down to the storage leaf spans — including shed, errored and
failed-on-stop requests, with the outcome recorded as the span status.
"""

import collections
import json
import threading
import time

from repro.cli import main as cli_main
from repro.core.node import SpitzCluster
from repro.core.request_handler import Request, RequestKind


class TestClusterConcurrencyTotals:
    def test_hammered_cluster_counts_every_request(self):
        """4 nodes, 8 client threads: every registry total equals the
        number of requests actually submitted."""
        cluster = SpitzCluster(nodes=4)
        cluster.start()
        clients, per_client = 8, 25
        errors = []

        def client(client_id: int):
            try:
                for i in range(per_client):
                    key = f"c{client_id}k{i}".encode()
                    response = cluster.submit(
                        Request(
                            RequestKind.PUT, {"key": key, "value": b"v"}
                        )
                    )
                    assert response.ok
            except Exception as error:  # propagate to the main thread
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(n,))
            for n in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        total = clients * per_client
        try:
            snap = cluster.stats()
            assert snap["counters"]["requests.total"] == total
            assert snap["counters"]["requests.kind.put"] == total
            assert snap["counters"]["queue.submitted"] == total
            assert snap["counters"]["node.processed"] == total
            assert snap["counters"]["requests.errors"] == 0
            assert snap["histograms"]["queue.wait_seconds"]["count"] == total
            assert snap["histograms"]["span.node.serve"]["count"] == total
            assert sum(node.processed for node in cluster.nodes) == total
            assert snap["counters"]["db.commits"] == total
        finally:
            cluster.stop()

    def test_stats_request_matches_cluster_stats(self):
        cluster = SpitzCluster(nodes=2)
        cluster.start()
        try:
            for i in range(10):
                cluster.submit(
                    Request(
                        RequestKind.PUT,
                        {"key": f"k{i}".encode(), "value": b"v"},
                    )
                )
            served = cluster.submit(Request(RequestKind.STATS))
            assert served.ok
            local = cluster.stats()
            # Identical structure and identical totals for everything
            # the STATS request itself does not bump.
            assert set(served.result) == {"counters", "gauges", "histograms"}
            assert served.result["counters"]["db.commits"] == 10
            assert local["counters"]["db.commits"] == 10
            assert (
                served.result["gauges"]["ledger.height"]
                == local["gauges"]["ledger.height"]
            )
        finally:
            cluster.stop()


def _spans_by_name(trace):
    spans = {}
    for span in trace.spans:
        spans.setdefault(span.name, []).append(span)
    return spans


class TestTracePropagation:
    def test_hammer_yields_one_complete_trace_tree_per_request(self):
        """4 nodes, 8 client threads: every submitted request finalizes
        exactly one trace whose tree is fully parented — client span →
        node.serve → request.handle → storage leaf spans."""
        cluster = SpitzCluster(nodes=4)
        # Retain every trace the hammer produces (the default recent
        # ring is sized for production, not for exhaustive asserts).
        cluster.metrics.flight._recent = collections.deque(maxlen=4096)
        cluster.start()
        clients, per_client = 8, 25
        errors = []

        def client(client_id: int):
            try:
                for i in range(per_client):
                    key = f"t{client_id}k{i}".encode()
                    response = cluster.submit(
                        Request(
                            RequestKind.PUT, {"key": key, "value": b"v"}
                        )
                    )
                    assert response.ok
            except Exception as error:  # propagate to the main thread
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(n,))
            for n in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        total = clients * per_client
        try:
            traces = cluster.metrics.flight.recent()
            assert len(traces) == total
            assert cluster.metrics.tracer.open_trace_count() == 0
            for trace in traces:
                assert trace.kind == "put"
                assert trace.status == "ok"
                root = trace.root
                assert root.name == "client.submit"
                assert root.parent_id is None
                spans = _spans_by_name(trace)
                (serve,) = spans["node.serve"]
                assert serve.parent_id == root.span_id
                assert serve.attributes["node"].startswith("p")
                assert serve.attributes["queue_wait"] >= 0.0
                (handle,) = spans["request.handle"]
                assert handle.parent_id == serve.span_id
                (commit,) = spans["txn.commit"]
                assert commit.parent_id == handle.span_id
                # Every span belongs to the same trace and every
                # parent_id resolves within the tree.
                span_ids = {span.span_id for span in trace.spans}
                for span in trace.spans:
                    assert span.trace_id == root.trace_id
                    if span.parent_id is not None:
                        assert span.parent_id in span_ids
                # The acceptance invariant: per-stage self-times never
                # sum past the end-to-end duration.
                assert sum(trace.stages.values()) <= trace.duration + 1e-12
        finally:
            cluster.stop()

    def test_shed_request_closes_trace_with_shed_status(self):
        cluster = SpitzCluster(nodes=1)
        try:
            # Submit with an already-expired deadline, then serve: the
            # node must shed it and still finalize the trace.
            envelope = cluster.queue.submit(
                Request(RequestKind.PUT, {"key": b"k", "value": b"v"}),
                deadline=time.perf_counter() - 1.0,
            )
            assert cluster.nodes[0].serve_one(timeout=1.0)
            assert envelope.done.is_set()
            assert envelope.response.retryable
            failures = cluster.metrics.flight.failures()
            assert len(failures) == 1
            trace = failures[0]
            assert trace.status == "shed"
            spans = _spans_by_name(trace)
            (serve,) = spans["node.serve"]
            assert serve.status == "shed"
            assert serve.parent_id == trace.root.span_id
            # Shed means no work: the handler never ran.
            assert "request.handle" not in spans
        finally:
            cluster.stop()

    def test_errored_request_closes_trace_with_error_status(self):
        cluster = SpitzCluster(nodes=2)
        cluster.start()
        try:
            response = cluster.submit(
                Request(RequestKind.GET, {"wrong_field": 1})
            )
            assert not response.ok
            failures = cluster.metrics.flight.failures()
            assert len(failures) == 1
            trace = failures[0]
            assert trace.status == "error"
            spans = _spans_by_name(trace)
            assert spans["node.serve"][0].status == "error"
            # The handler ran (and converted the exception), so the
            # request.handle span exists and is marked errored too.
            assert spans["request.handle"][0].status == "error"
        finally:
            cluster.stop()

    def test_failed_on_stop_closes_trace_with_error_status(self):
        cluster = SpitzCluster(nodes=1)  # never started
        envelope = cluster.queue.submit(
            Request(RequestKind.PUT, {"key": b"k", "value": b"v"})
        )
        cluster.stop()
        assert envelope.done.is_set()
        assert not envelope.response.ok
        (trace,) = cluster.metrics.flight.failures()
        assert trace.status == "error"
        assert trace.root.name == "client.submit"

    def test_stats_request_serves_traces_on_opt_in(self):
        cluster = SpitzCluster(nodes=2)
        cluster.start()
        try:
            for i in range(5):
                cluster.submit(
                    Request(
                        RequestKind.PUT,
                        {"key": f"k{i}".encode(), "value": b"v"},
                    )
                )
            plain = cluster.submit(Request(RequestKind.STATS))
            assert set(plain.result) == {"counters", "gauges", "histograms"}
            served = cluster.submit(
                Request(RequestKind.STATS, {"traces": True})
            )
            assert served.ok
            traces = served.result["traces"]
            assert traces["attribution"]["put"]["requests"] == 5
            assert traces["slowest"]
            root = traces["slowest"][0]["root"]
            assert root["name"] == "client.submit"
            assert root["children"][0]["name"] == "node.serve"
            # The payload must round-trip as JSON (the simnet layer
            # serializes responses).
            json.dumps(served.result)
        finally:
            cluster.stop()


class TestQueueDepthGauge:
    def test_depth_gauge_tracks_qsize_exactly(self):
        cluster = SpitzCluster(nodes=1)  # not started: queue only
        queue = cluster.queue
        gauge = cluster.metrics.gauge("queue.depth")
        for i in range(5):
            queue.submit(
                Request(RequestKind.PUT, {"key": b"k%d" % i, "value": b"v"})
            )
            assert gauge.value == queue._queue.qsize() == i + 1
        for i in range(5):
            assert queue.take(timeout=0.1) is not None
            assert gauge.value == queue._queue.qsize() == 4 - i
        cluster.stop()

    def test_depth_gauge_consistent_under_concurrency(self):
        """Interleaved submit/take can no longer strand the gauge: it
        is updated under the queue lock, so after the dust settles it
        equals the real depth (zero)."""
        cluster = SpitzCluster(nodes=4)
        cluster.start()
        gauge = cluster.metrics.gauge("queue.depth")

        def client(client_id: int):
            for i in range(50):
                cluster.submit(
                    Request(
                        RequestKind.PUT,
                        {"key": f"d{client_id}k{i}".encode(), "value": b"v"},
                    )
                )

        threads = [
            threading.Thread(target=client, args=(n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        try:
            assert gauge.value == cluster.queue._queue.qsize() == 0
        finally:
            cluster.stop()


class TestQueueWaitStamp:
    def test_queue_wait_excludes_submit_lock_contention(self):
        """Regression: enqueued_at was stamped at Envelope construction
        — before submit's lock/admission work — so queue.wait_seconds
        silently included submit-side contention.  Holding the queue
        lock while another thread submits must not inflate its measured
        wait."""
        cluster = SpitzCluster(nodes=1)  # not started: take manually
        queue = cluster.queue
        hold = 0.2
        envelope_box = {}

        def submitter():
            envelope_box["env"] = queue.submit(
                Request(RequestKind.PUT, {"key": b"k", "value": b"v"})
            )

        with queue._lock:
            thread = threading.Thread(target=submitter)
            thread.start()
            time.sleep(hold)  # submitter is now blocked on the lock
        thread.join()
        took = time.perf_counter()
        envelope = envelope_box["env"]
        # The stamp is from *after* the lock was finally acquired and
        # the envelope actually enqueued — the wait measured from it
        # must not contain the artificial contention window.
        assert took - envelope.enqueued_at < hold / 2
        cluster.stop()


class TestCliTraceSubcommands:
    def test_slowest_prints_attribution_with_bounded_stage_sums(
        self, capsys
    ):
        assert cli_main(
            ["slowest", "--ops", "10", "--nodes", "2", "--limit", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "critical-path attribution" in out
        assert "client.submit" in out

    def test_slowest_json_stage_durations_bounded_by_duration(
        self, capsys
    ):
        assert cli_main(
            ["slowest", "--ops", "10", "--limit", "4", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slowest"], "no traces retained"
        for entry in payload["slowest"]:
            total = sum(entry["stages"].values())
            assert total <= entry["duration_seconds"] + 1e-12
        for kind, row in payload["attribution"].items():
            fractions = sum(
                cell["fraction"] for cell in row["stages"].values()
            )
            assert fractions <= 1.0 + 1e-9, kind

    def test_trace_failures_shows_errored_request(self, capsys):
        assert cli_main(
            ["trace", "--ops", "3", "--failures", "--limit", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "error" in out
        assert "client.submit" in out


class TestCliStats:
    def test_stats_subcommand_prints_snapshot_json(self, tmp_path, capsys):
        root = str(tmp_path / "db.d")
        assert cli_main(["init", root]) == 0
        assert cli_main(["put", root, "alice", "100"]) == 0
        capsys.readouterr()
        assert cli_main(["stats", root, "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert set(snap) == {"counters", "gauges", "histograms"}
        # The opening recovery replayed the logged put.
        assert snap["counters"]["db.commits"] == 1
        assert snap["gauges"]["ledger.height"] == 1
        # The WAL reports into the same registry.
        assert "wal.fsyncs" in snap["counters"]
        assert "chunks.dedup_hit_rate" in snap["gauges"]
        # A direct read: no request handler answered it.
        assert not any(name.startswith("requests.") for name in snap["counters"])

    def test_stats_on_snapshot_file(self, tmp_path, capsys):
        """A database is a directory; a lone snapshot file is refused."""
        path = tmp_path / "db.spitz"
        path.write_bytes(b"SPITZDB7")
        assert cli_main(["stats", str(path), "--json"]) == 1
        assert "no database at" in capsys.readouterr().err
