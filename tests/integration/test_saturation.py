"""Acceptance: saturate a bounded cluster and audit the accounting.

The scenario from the issue: queue capacity B, offered load well past
what the nodes can process.  Under that pressure the cluster must

- reject excess submits *fast* with ``ClusterOverloadedError``
  (no blocking on a full queue, no waiting out the client timeout),
- shed envelopes whose deadline expired before a node reached them,
  counting them in ``queue.shed``, and
- never lose an accepted envelope: every one is completed exactly once
  — processed, shed, or failed on stop — so the counters balance.
"""

import time

import pytest

from repro.core.client import OUTCOMES, run_saturation
from repro.core.node import SpitzCluster
from repro.core.request_handler import Request, RequestKind
from repro.errors import ClusterOverloadedError


def _put(i: int) -> Request:
    return Request(RequestKind.PUT, {"key": f"sat{i}".encode(), "value": b"v"})


@pytest.mark.stress
class TestSaturation:
    # Service is deliberately slower than the offered load: 2 nodes at
    # 10ms/request drain 200 req/s, while 12 clients that wait at most
    # 25ms per op can offer ~480 req/s.  Capacity (8) sits below the
    # client count, so the opening burst alone pins the queue over
    # capacity for longer than the grace window and submits reject;
    # queued envelopes outlive the 25ms deadline and are shed.
    DEADLINE = 0.025

    @pytest.fixture(scope="class")
    def report(self):
        return run_saturation(
            clients=12,
            ops_per_client=25,
            nodes=2,
            capacity=8,
            overload_window=0.005,
            deadline=self.DEADLINE,
            attempts=1,
            service_delay=0.01,
        )

    def test_overload_is_rejected(self, report):
        assert report.counters["queue.rejected_overload"] > 0

    def test_expired_envelopes_are_shed_and_counted(self, report):
        assert report.counters["queue.shed"] > 0
        # The client counts only the sheds it was told of in time.
        assert report.shed <= report.counters["queue.shed"]

    def test_some_work_still_completes(self, report):
        assert report.completed > 0
        assert report.counters["node.processed"] >= report.completed

    def test_accepted_envelope_accounting_balances(self, report):
        counters = report.counters
        assert counters["queue.submitted"] > 0
        assert (
            counters["node.processed"]
            + counters["queue.shed"]
            + counters["cluster.failed_on_stop"]
            == counters["queue.submitted"]
        ), f"request-loss invariant violated: {counters}"

    def test_queue_wait_p99_bounded_by_deadline(self, report):
        # Processed envelopes waited at most their deadline (expired
        # ones are shed without touching the histogram); the histogram
        # reports the max observed value for the tail bucket, so no
        # bucket-resolution slack is needed.
        assert report.wait_p99 is not None
        assert report.wait_p99 <= self.DEADLINE + 1e-6

    def test_offered_load_fully_accounted_client_side(self, report):
        # Every client op ended in exactly one of the seven outcomes.
        # A client waits a grace past its deadline, so the sheds reach
        # it as retryable responses rather than timeouts: most of the
        # server's sheds are the client's too.
        assert report.offered == 12 * 25
        assert report.shed * 2 > report.counters["queue.shed"] > 0
        assert sum(getattr(report, name) for name in OUTCOMES) == (
            report.offered
        ), report.to_dict()


@pytest.mark.stress
def test_full_queue_rejects_within_milliseconds():
    """The 'fast' in fail-fast: with the queue pinned at capacity and
    the grace window elapsed, a submit must reject immediately rather
    than wait out the client timeout (the pre-fix behaviour)."""
    cluster = SpitzCluster(nodes=1, queue_capacity=8, overload_window=0.0)
    # No nodes started: the queue cannot drain.
    for i in range(8):
        cluster.queue.submit(_put(i))
    began = time.perf_counter()
    for i in range(20):
        with pytest.raises(ClusterOverloadedError):
            cluster.submit(_put(100 + i), timeout=5.0)
    elapsed = time.perf_counter() - began
    assert elapsed < 0.5, (
        f"20 rejections took {elapsed:.3f}s; admission is blocking"
    )
    cluster.stop()
    counters = cluster.stats()["counters"]
    assert counters["queue.rejected_overload"] == 20
    assert counters["cluster.failed_on_stop"] == 8


@pytest.mark.stress
def test_retry_pressure_preserves_the_invariant():
    """attempts>1 multiplies admission attempts (every rejection is
    retried on a backoff schedule); the accounting must stay exact and
    the extra attempts must all be visible in the counters."""
    report = run_saturation(
        clients=6, ops_per_client=10, nodes=1, capacity=4,
        overload_window=0.0, deadline=0.05, attempts=4,
        service_delay=0.005,
    )
    counters = report.counters
    assert (
        counters["node.processed"]
        + counters["queue.shed"]
        + counters["cluster.failed_on_stop"]
        == counters["queue.submitted"]
    ), f"request-loss invariant violated under retries: {counters}"
    # Every op made at least one admission attempt, each of which was
    # either accepted or rejected; retried rejections add more.
    attempts = counters["queue.submitted"] + counters["queue.rejected_overload"]
    assert attempts >= report.offered
    # 6 concurrent clients against capacity 4 with a zero grace window
    # cannot avoid rejections, so retries must have fired.
    assert counters["queue.rejected_overload"] > 0
    # Client side, every op ends in exactly one outcome, however many
    # admission attempts it burned on the way.
    assert sum(getattr(report, name) for name in OUTCOMES) == (
        report.offered
    ), report.to_dict()
