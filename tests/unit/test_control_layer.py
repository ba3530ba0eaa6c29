"""Unit tests for the control layer: request handler, nodes."""

import pytest

from repro.core.database import SpitzDatabase
from repro.core.node import MessageQueue, ProcessorNode, SpitzCluster
from repro.core.request_handler import (
    Request,
    RequestHandler,
    RequestKind,
    Response,
)
from repro.core.verifier import ClientVerifier
from repro.errors import ClusterStoppedError


class TestRequestHandler:
    def test_put_then_get(self, db):
        handler = RequestHandler(db)
        put = handler.handle(
            Request(RequestKind.PUT, {"key": b"k", "value": b"v"})
        )
        assert put.ok
        got = handler.handle(Request(RequestKind.GET, {"key": b"k"}))
        assert got.result == b"v"

    def test_verified_get_carries_proof_and_digest(self, db):
        handler = RequestHandler(db)
        handler.handle(Request(RequestKind.PUT, {"key": b"k", "value": b"v"}))
        response = handler.handle(
            Request(RequestKind.GET, {"key": b"k"}, verify=True)
        )
        assert response.proof is not None
        verifier = ClientVerifier()
        verifier.trust(response.digest)
        assert verifier.verify(response.proof)

    def test_scan(self, loaded_db):
        handler = RequestHandler(loaded_db)
        response = handler.handle(
            Request(
                RequestKind.SCAN,
                {"low": b"key0000", "high": b"key0004"},
            )
        )
        assert len(response.result) == 5

    def test_sql_request(self, db):
        handler = RequestHandler(db)
        response = handler.handle(
            Request(
                RequestKind.SQL,
                {"text": "CREATE TABLE t (id INT, PRIMARY KEY (id))"},
            )
        )
        assert response.ok

    def test_history_request(self, db):
        db.put(b"k", b"v1")
        db.put(b"k", b"v2")
        handler = RequestHandler(db)
        response = handler.handle(
            Request(RequestKind.HISTORY, {"key": b"k"})
        )
        assert [v for _, v in response.result] == [b"v1", b"v2"]

    def test_errors_become_responses(self, db):
        handler = RequestHandler(db)
        response = handler.handle(
            Request(RequestKind.SQL, {"text": "NOT SQL AT ALL"})
        )
        assert not response.ok
        assert response.error

    def test_delete_request(self, db):
        handler = RequestHandler(db)
        handler.handle(Request(RequestKind.PUT, {"key": b"k", "value": b"v"}))
        handler.handle(Request(RequestKind.DELETE, {"key": b"k"}))
        assert db.get(b"k") is None

    def test_digest_request(self, db):
        handler = RequestHandler(db)
        response = handler.handle(Request(RequestKind.DIGEST))
        assert response.ok

    def test_malformed_payload_becomes_error_response(self, db):
        """Regression: a missing payload field used to raise KeyError
        out of handle(), killing the serve loop."""
        handler = RequestHandler(db)
        response = handler.handle(Request(RequestKind.GET, {}))
        assert not response.ok
        assert "KeyError" in response.error
        snap = db.metrics.snapshot()
        assert snap["counters"]["requests.unexpected_errors"] == 1
        assert snap["counters"]["requests.errors"] == 1

    def test_expected_errors_are_not_counted_unexpected(self, db):
        handler = RequestHandler(db)
        response = handler.handle(
            Request(RequestKind.SQL, {"text": "NOT SQL AT ALL"})
        )
        assert not response.ok
        snap = db.metrics.snapshot()
        assert snap["counters"]["requests.unexpected_errors"] == 0
        assert snap["counters"]["requests.errors"] == 1

    def test_stats_request_returns_registry_snapshot(self, db):
        handler = RequestHandler(db)
        handler.handle(Request(RequestKind.PUT, {"key": b"k", "value": b"v"}))
        response = handler.handle(Request(RequestKind.STATS))
        assert response.ok
        snap = response.result
        assert snap["counters"]["db.commits"] == 1
        assert snap["counters"]["requests.kind.put"] == 1
        assert snap["gauges"]["ledger.height"] == db.ledger.height

    def test_request_latency_histogram_fills(self, db):
        handler = RequestHandler(db)
        for i in range(5):
            handler.handle(
                Request(RequestKind.PUT, {"key": b"k", "value": b"v"})
            )
        assert db.metrics.histogram("request.latency_seconds").count == 5


class TestProcessorNodes:
    def test_serve_one(self, db):
        mq = MessageQueue()
        node = ProcessorNode("p0", db, mq)
        envelope = mq.submit(
            Request(RequestKind.PUT, {"key": b"k", "value": b"v"})
        )
        assert node.serve_one()
        assert envelope.response.ok
        assert node.processed == 1

    def test_serve_one_times_out_quietly(self, db):
        node = ProcessorNode("p0", db, MessageQueue())
        assert not node.serve_one(timeout=0.01)

    def test_cluster_round_trip(self):
        cluster = SpitzCluster(nodes=2)
        cluster.start()
        try:
            put = cluster.submit(
                Request(RequestKind.PUT, {"key": b"k", "value": b"v"})
            )
            assert put.ok
            got = cluster.submit(
                Request(RequestKind.GET, {"key": b"k"}, verify=True)
            )
            assert got.result == b"v"
            verifier = ClientVerifier()
            verifier.trust(got.digest)
            assert verifier.verify(got.proof)
        finally:
            cluster.stop()

    def test_cluster_requires_nodes(self):
        with pytest.raises(ValueError):
            SpitzCluster(nodes=0)

    def test_many_requests_distributed(self):
        cluster = SpitzCluster(nodes=3)
        cluster.start()
        try:
            for i in range(30):
                response = cluster.submit(
                    Request(
                        RequestKind.PUT,
                        {"key": f"k{i}".encode(), "value": b"v"},
                    )
                )
                assert response.ok
            processed = sum(node.processed for node in cluster.nodes)
            assert processed == 30
        finally:
            cluster.stop()

    def test_malformed_request_does_not_kill_node(self):
        """Regression: the serve loop survives a payload that raises
        a non-Spitz exception, and keeps answering afterwards."""
        cluster = SpitzCluster(nodes=1)
        cluster.start()
        try:
            bad = cluster.submit(Request(RequestKind.PUT, {}), timeout=2.0)
            assert not bad.ok
            assert "KeyError" in bad.error
            good = cluster.submit(
                Request(RequestKind.PUT, {"key": b"k", "value": b"v"}),
                timeout=2.0,
            )
            assert good.ok
        finally:
            cluster.stop()


class TestShutdownDiscipline:
    def test_stop_fails_queued_requests_instead_of_stranding(self):
        """Regression: stop() used to leave queued envelopes pending
        forever; their clients blocked out their full submit timeout."""
        cluster = SpitzCluster(nodes=2)  # never started
        envelopes = [
            cluster.queue.submit(
                Request(RequestKind.PUT, {"key": b"k", "value": b"v"})
            )
            for _ in range(5)
        ]
        cluster.stop()
        for envelope in envelopes:
            assert envelope.done.is_set()
            assert not envelope.response.ok
            assert "cluster stopped" in envelope.response.error
        snap = cluster.stats()
        assert snap["counters"]["cluster.failed_on_stop"] == 5

    def test_submit_after_stop_raises(self):
        cluster = SpitzCluster(nodes=1)
        cluster.start()
        cluster.stop()
        with pytest.raises(ClusterStoppedError):
            cluster.submit(
                Request(RequestKind.PUT, {"key": b"k", "value": b"v"})
            )
        assert cluster.queue.rejected == 1

    def test_accepted_work_finishes_before_shutdown(self):
        """Envelopes accepted before stop() are processed, not failed:
        poison lands behind them in the queue."""
        cluster = SpitzCluster(nodes=1)
        envelopes = [
            cluster.queue.submit(
                Request(
                    RequestKind.PUT,
                    {"key": f"k{i}".encode(), "value": b"v"},
                )
            )
            for i in range(3)
        ]
        cluster.start()  # drains the backlog, then sees poison
        cluster.stop()
        for envelope in envelopes:
            assert envelope.done.is_set()
            assert envelope.response.ok

    def test_stop_is_idempotent(self):
        cluster = SpitzCluster(nodes=2)
        cluster.start()
        cluster.stop()
        cluster.stop()
        cluster.close()

    def test_drain_skips_poison(self):
        mq = MessageQueue()
        envelope = mq.submit(Request(RequestKind.DIGEST))
        mq.close()
        mq.poison(3)
        stranded = mq.drain()
        assert stranded == [envelope]


class TestPoisonPillDiscipline:
    def test_serve_one_requeues_poison_instead_of_swallowing(self, db):
        """Regression: serve_one() used to take a poison pill, return
        False and drop it — a concurrently running serve loop then
        missed its shutdown marker (or, for a never-started node, the
        pill was simply lost)."""
        from repro.core.node import _Poison

        mq = MessageQueue()
        node = ProcessorNode("p0", db, mq)
        mq.poison(1)
        assert not node.serve_one(timeout=0.1)
        # The pill is still there for the loop it belongs to.
        assert isinstance(mq.take(timeout=0.1), _Poison)

    def test_serve_loop_still_gets_its_pill_after_serve_one(self, db):
        """A direct serve_one() racing shutdown must not starve the
        threaded loop of its poison: stop() then joins promptly."""
        cluster = SpitzCluster(nodes=1)
        cluster.queue.poison(1)  # what stop() would enqueue
        assert not cluster.nodes[0].serve_one(timeout=0.2)
        cluster.start()
        cluster.stop()  # joins within its 2s bound; pill was available
        assert cluster.nodes[0]._thread is None


class TestTornProofDigest:
    def test_commit_between_proof_and_digest_cannot_tear(self, db):
        """Regression: handle() computed db.digest() after _dispatch
        returned, so a commit from another node in that window paired
        an old-block proof with a new-block digest and verification
        failed spuriously.  Proof and digest are now captured under
        the commit lock; the interleaved commit waits."""
        import threading
        import time

        db.put(b"k", b"v")
        handler = RequestHandler(db)
        release_writer = threading.Event()
        writer_done = threading.Event()

        original = handler._dispatch

        def stalling_dispatch(request):
            result, proof = original(request)
            # Proof exists; invite a concurrent commit before the
            # digest is captured.  With the fix the writer blocks on
            # the commit lock until handle() finishes.
            release_writer.set()
            time.sleep(0.15)
            return result, proof

        handler._dispatch = stalling_dispatch

        def writer():
            release_writer.wait(timeout=2.0)
            db.put(b"other", b"w")  # would reseal the ledger head
            writer_done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        response = handler.handle(
            Request(RequestKind.GET, {"key": b"k"}, verify=True)
        )
        thread.join(timeout=5.0)
        assert writer_done.is_set()
        assert response.ok
        verifier = ClientVerifier()
        verifier.trust(response.digest)
        assert verifier.verify(response.proof), (
            "proof and digest describe different ledger states"
        )
