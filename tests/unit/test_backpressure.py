"""Queue admission control, deadline shedding, and client retry.

The tentpole invariant under test: the queue is the cluster's single
admission point — sustained overload is rejected *fast* with a
retryable error, expired envelopes are shed instead of processed, and
every accepted envelope is still completed exactly once.
"""

import threading
import time

import pytest

from repro.core.client import OUTCOMES, ClientStats, ClusterClient, drive
from repro.core.database import SpitzDatabase
from repro.core.node import MessageQueue, ProcessorNode, SpitzCluster
from repro.core.request_handler import Request, RequestKind, Response
from repro.errors import (
    ClusterOverloadedError,
    NetworkError,
    RateLimitedError,
)
from repro.obs import MetricsRegistry


def _put_request(i: int = 0) -> Request:
    return Request(RequestKind.PUT, {"key": f"k{i}".encode(), "value": b"v"})


class TestQueueAdmission:
    def test_sustained_overload_rejects_fast(self):
        mq = MessageQueue(
            metrics=MetricsRegistry(), capacity=4, overload_window=0.0
        )
        for i in range(4):
            mq.submit(_put_request(i))
        start = time.perf_counter()
        with pytest.raises(ClusterOverloadedError) as excinfo:
            mq.submit(_put_request(99))
        elapsed = time.perf_counter() - start
        assert elapsed < 0.05, "rejection must not block"
        error = excinfo.value
        assert error.retryable
        assert error.retry_after > 0
        assert error.capacity == 4 and error.depth >= 4
        assert mq.submitted == 4
        assert mq.rejected_overload == 1
        snap = mq.metrics.snapshot()
        assert snap["counters"]["queue.rejected_overload"] == 1
        assert snap["gauges"]["queue.capacity"] == 4

    def test_burst_grace_window_admits_momentary_overload(self):
        mq = MessageQueue(capacity=2, overload_window=10.0)
        for i in range(6):  # depth passes capacity but window is open
            mq.submit(_put_request(i))
        assert mq.submitted == 6
        assert mq.rejected_overload == 0

    def test_rejection_clears_once_depth_drops(self):
        mq = MessageQueue(capacity=2, overload_window=0.0)
        mq.submit(_put_request(0))
        mq.submit(_put_request(1))
        with pytest.raises(ClusterOverloadedError):
            mq.submit(_put_request(2))
        assert mq.take(timeout=0.1) is not None  # drain below capacity
        mq.submit(_put_request(3))  # admitted again
        assert mq.submitted == 3

    def test_unbounded_queue_never_rejects_overload(self):
        mq = MessageQueue(metrics=MetricsRegistry())  # no capacity
        for i in range(100):
            mq.submit(_put_request(i))
        assert mq.rejected_overload == 0
        assert mq.metrics.snapshot()["gauges"]["queue.capacity"] == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MessageQueue(capacity=0)


class TestDeadlineShedding:
    def test_expired_envelope_is_shed_not_processed(self):
        """Regression (wasted work): a request whose client had already
        timed out used to be processed anyway, its response dropped.
        The node now completes it unprocessed with a retryable error."""
        db = SpitzDatabase()
        mq = MessageQueue(metrics=db.metrics)
        node = ProcessorNode("p0", db, mq)
        envelope = mq.submit(
            _put_request(0), deadline=time.perf_counter() - 1.0
        )
        assert node.serve_one(timeout=0.1)
        assert envelope.done.is_set()
        assert not envelope.response.ok
        assert envelope.response.retryable
        assert "shed" in envelope.response.error
        # The write was NOT applied and the wait histogram not skewed.
        assert db.get(b"k0") is None
        assert node.processed == 0
        snap = db.metrics.snapshot()
        assert snap["counters"]["queue.shed"] == 1
        assert mq.shed == 1
        assert snap["histograms"]["queue.wait_seconds"]["count"] == 0

    def test_unexpired_envelope_is_processed_normally(self):
        db = SpitzDatabase()
        mq = MessageQueue(metrics=db.metrics)
        node = ProcessorNode("p0", db, mq)
        envelope = mq.submit(
            _put_request(1), deadline=time.perf_counter() + 30.0
        )
        assert node.serve_one(timeout=0.1)
        assert envelope.response.ok
        assert db.get(b"k1") == b"v"
        assert mq.shed == 0

    def test_timed_out_cluster_submit_is_shed_by_late_node(self):
        """End-to-end wasted-work regression: SpitzCluster.submit times
        out, the node comes up later, and the envelope is shed — the
        database never does the work."""
        cluster = SpitzCluster(nodes=1)  # not started yet
        with pytest.raises(TimeoutError):
            cluster.submit(_put_request(7), timeout=0.05)
        cluster.start()
        try:
            deadline = time.time() + 5.0
            while cluster.queue.shed == 0 and time.time() < deadline:
                time.sleep(0.01)
            assert cluster.queue.shed == 1
            assert cluster.nodes[0].processed == 0
            assert cluster.db.get(b"k7") is None
        finally:
            cluster.stop()

    def test_shed_reply_reaches_a_client_past_its_deadline(self):
        """A node that dequeues an envelope just after its deadline
        sheds it; the client must still receive that retryable shed
        instead of a TimeoutError, and a retrying client resubmits."""
        cluster = SpitzCluster(nodes=1)  # never started: the test serves

        def served_late(call, envelopes):
            """Run ``call`` on a client thread and serve each envelope it
            queues 25 ms later, past its 20 ms deadline; returns what
            the call returned or raised."""
            outcome = []

            def client():
                try:
                    outcome.append(call())
                except Exception as error:  # asserted on below
                    outcome.append(error)

            thread = threading.Thread(target=client)
            base = cluster.queue.submitted
            thread.start()
            for n in range(1, envelopes + 1):
                give_up = time.perf_counter() + 5.0
                while (
                    cluster.queue.submitted < base + n
                    and time.perf_counter() < give_up
                ):
                    time.sleep(0.001)
                time.sleep(0.025)
                assert cluster.nodes[0].serve_one(timeout=1.0)
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            return outcome[0]

        try:
            response = served_late(
                lambda: cluster.submit(_put_request(8), timeout=0.02), 1
            )
            assert isinstance(response, Response), response
            assert not response.ok and response.retryable
            retrying = ClusterClient(
                cluster, attempts=2, timeout=0.02, sleep=None
            )
            response = served_late(lambda: retrying.call(_put_request(9)), 2)
            assert isinstance(response, Response), response
            assert retrying.stats.shed_responses == 2
            assert retrying.stats.retries == 1
            assert cluster.queue.submitted == cluster.queue.shed == 3
            assert cluster.nodes[0].processed == 0
        finally:
            cluster.stop()

    def test_accounting_balances_after_stop(self):
        """processed + shed + failed-on-stop == submitted, even with a
        mix of live, expired and stranded envelopes."""
        cluster = SpitzCluster(nodes=1)
        # One already-expired, two live, and the cluster never starts,
        # so stop() strands all three.
        cluster.queue.submit(_put_request(0), deadline=time.perf_counter() - 1)
        cluster.queue.submit(_put_request(1))
        cluster.queue.submit(_put_request(2))
        cluster.stop()
        snap = cluster.stats()
        counters = snap["counters"]
        assert counters["queue.submitted"] == 3
        assert (
            counters.get("node.processed", 0)
            + counters.get("queue.shed", 0)
            + counters.get("cluster.failed_on_stop", 0)
            == 3
        )


class _ScriptedCluster:
    """Stub duck-typing SpitzCluster.submit with a scripted outcome
    sequence: each item is a Response to return or an exception to
    raise."""

    def __init__(self, outcomes):
        self._outcomes = list(outcomes)
        self.submits = 0
        self.requests = []

    def submit(self, request, timeout=10.0):
        self.submits += 1
        self.requests.append(request)
        outcome = self._outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _overloaded(retry_after=0.1):
    return ClusterOverloadedError(depth=9, capacity=8, retry_after=retry_after)


def _shed_response():
    return Response(ok=False, error="request shed", retryable=True)


class TestClusterClient:
    def test_retries_overload_then_succeeds(self):
        cluster = _ScriptedCluster(
            [_overloaded(0.1), _overloaded(0.1), Response(ok=True, result=1)]
        )
        slept = []
        client = ClusterClient(
            cluster, attempts=4, backoff=0.02, sleep=slept.append
        )
        response = client.call(_put_request())
        assert response.ok and response.result == 1
        assert cluster.submits == 3
        stats = client.stats
        assert stats.retries == 2
        assert stats.rejected_overload == 2
        # Deterministic schedule: max(0.02 * 2**attempt, retry_after).
        assert slept == [
            pytest.approx(0.1),  # max(0.02, 0.1)
            pytest.approx(0.1),  # max(0.04, 0.1)
        ]
        assert stats.backoff_seconds == pytest.approx(0.2)

    def test_retries_shed_response(self):
        cluster = _ScriptedCluster(
            [_shed_response(), Response(ok=True, result=2)]
        )
        client = ClusterClient(cluster, attempts=3, backoff=0.5, sleep=None)
        response = client.call(_put_request())
        assert response.ok
        assert client.stats.shed_responses == 1
        assert client.stats.backoff_seconds == pytest.approx(0.5)

    def test_exhausted_overload_raises_last_error(self):
        cluster = _ScriptedCluster([_overloaded(), _overloaded()])
        client = ClusterClient(cluster, attempts=2, sleep=None)
        with pytest.raises(ClusterOverloadedError):
            client.call(_put_request())
        assert client.stats.exhausted == 1
        assert cluster.submits == 2

    def test_exhausted_shed_returns_last_response(self):
        cluster = _ScriptedCluster([_shed_response(), _shed_response()])
        client = ClusterClient(cluster, attempts=2, sleep=None)
        response = client.call(_put_request())
        assert not response.ok and response.retryable
        assert client.stats.exhausted == 1

    def test_non_retryable_error_response_not_retried(self):
        cluster = _ScriptedCluster(
            [Response(ok=False, error="boom", retryable=False)]
        )
        client = ClusterClient(cluster, attempts=5, sleep=None)
        response = client.call(_put_request())
        assert not response.ok
        assert cluster.submits == 1
        assert client.stats.retries == 0

    def test_backoff_schedule_matches_simnet_shape(self):
        """Same deterministic doubling as Channel.call_with_retry."""
        cluster = _ScriptedCluster(
            [_shed_response()] * 3 + [Response(ok=True)]
        )
        client = ClusterClient(cluster, attempts=4, backoff=1.0, sleep=None)
        assert client.call(_put_request()).ok
        assert client.stats.backoff_seconds == pytest.approx(1 + 2 + 4)

    def test_stats_dataclass_defaults(self):
        stats = ClientStats()
        assert stats.calls == 0 and stats.backoff_seconds == 0.0

    def test_live_cluster_round_trip_with_retries_configured(self):
        cluster = SpitzCluster(nodes=1, queue_capacity=64)
        cluster.start()
        try:
            client = ClusterClient(cluster, attempts=3, timeout=5.0)
            assert client.put(b"alice", b"100").ok
            got = client.get(b"alice", verify=True)
            assert got.ok and got.result == b"100"
            assert got.digest is not None
        finally:
            cluster.stop()

    def test_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            ClusterClient(_ScriptedCluster([]), attempts=0)


class TestDrive:
    """The one load loop, over a scripted cluster: no thread, no
    process, no socket."""

    def test_every_outcome_is_counted_once(self):
        cluster = _ScriptedCluster([
            Response(ok=True, result=None),
            _overloaded(),
            RateLimitedError(retry_after=0.1),
            TimeoutError("waited too long"),
            NetworkError("connection reset"),
            _shed_response(),
            Response(ok=False, error="boom", retryable=False),
            Response(ok=True, result=None),
        ])
        client = ClusterClient(cluster, attempts=1, sleep=None)
        threads = threading.active_count()
        tally = drive(client, worker_id=3, ops=8)
        assert threading.active_count() == threads
        assert {name: tally[name] for name in OUTCOMES} == {
            "completed": 2,
            "rejected_overload": 1,
            "rate_limited": 1,
            "shed": 1,
            "timeouts": 1,
            "network_errors": 1,
            "errors": 1,
        }
        assert len(tally["latencies"]) == tally["completed"]
        assert all(latency >= 0 for latency in tally["latencies"])
        assert tally["attempts"] == cluster.submits == 8
        assert tally["worker"] == 3
        assert tally["started"] <= tally["finished"]

    def test_reads_follow_the_last_put_and_every_nth_op_verifies(self):
        cluster = _ScriptedCluster([Response(ok=True)] * 10)
        client = ClusterClient(cluster, attempts=1, sleep=None)
        drive(client, worker_id=0, ops=10, put_ratio=0.5, verify_every=4)
        kinds = [request.kind for request in cluster.requests]
        assert kinds == [RequestKind.PUT] * 5 + [RequestKind.GET] * 5
        last_put = cluster.requests[4].payload["key"]
        assert all(
            request.payload == {"key": last_put}
            for request in cluster.requests[5:]
        )
        assert [request.verify for request in cluster.requests] == [
            i % 4 == 0 for i in range(10)
        ]
