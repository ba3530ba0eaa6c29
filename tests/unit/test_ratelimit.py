"""Unit tests for the per-client token bucket (``repro.serve.ratelimit``)
and the HTTP server's admission of ``/v1/*`` requests to it.

The clock is injected everywhere, so refill is driven explicitly —
no sleeps, no flakiness — and the concurrency property is checked
*exactly*: with the clock frozen, N threads hammering one bucket can
admit precisely ``burst`` requests, never one more.
"""

import threading

import pytest

from repro.core.node import SpitzCluster
from repro.obs.metrics import MetricsRegistry
from repro.serve.ratelimit import RateLimiter, TokenBucket
from repro.serve.server import (
    AUTH_HEADER,
    REQUEST_ID_HEADER,
    RequestContext,
    SpitzHTTPServer,
)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_admits_exactly_burst_tokens(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=clock)
        outcomes = [bucket.try_acquire()[0] for _ in range(5)]
        assert outcomes == [True, True, True, False, False]

    def test_retry_after_is_the_exact_deficit(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=1.0, clock=clock)
        assert bucket.try_acquire() == (True, 0.0)
        admitted, retry_after = bucket.try_acquire()
        assert not admitted
        # One token short, refilling at 4/s: exactly 0.25s away.
        assert retry_after == pytest.approx(0.25)
        # And the suggestion is honest: advancing exactly that far
        # makes the next acquire succeed.
        clock.advance(retry_after)
        assert bucket.try_acquire() == (True, 0.0)

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(60.0)  # an hour of idle refill changes nothing
        admitted = [bucket.try_acquire()[0] for _ in range(3)]
        assert admitted == [True, True, False]

    def test_partial_refill_accumulates(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        assert bucket.try_acquire()[0]
        clock.advance(0.25)  # half a token: still short
        assert not bucket.try_acquire()[0]
        clock.advance(0.25)  # the other half
        assert bucket.try_acquire()[0]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)

    def test_no_over_admission_under_concurrency(self):
        # The satellite property: with the clock frozen there is no
        # refill, so across any interleaving of 16 threads x 50
        # attempts, exactly `burst` acquires may succeed.  A lost
        # update in the lazy-refill path would show up here as > burst.
        clock = FakeClock()
        burst = 25
        bucket = TokenBucket(rate=1.0, burst=float(burst), clock=clock)
        admitted = []
        lock = threading.Lock()
        barrier = threading.Barrier(16)

        def hammer():
            barrier.wait()
            local = 0
            for _ in range(50):
                if bucket.try_acquire()[0]:
                    local += 1
            with lock:
                admitted.append(local)

        threads = [threading.Thread(target=hammer) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(admitted) == burst
        assert bucket.tokens == 0.0

    def test_concurrent_refill_never_exceeds_budget(self):
        # With the clock advanced mid-flight the exact-once bound
        # becomes burst + elapsed * rate; admission must never pass it.
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=5.0, clock=clock)
        admitted = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def hammer(worker: int):
            barrier.wait()
            local = 0
            for i in range(40):
                if worker == 0 and i == 20:
                    clock.advance(1.0)  # 10 more tokens, once
                if bucket.try_acquire()[0]:
                    local += 1
            with lock:
                admitted.append(local)

        threads = [
            threading.Thread(target=hammer, args=(n,)) for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(admitted) <= 5 + 10


class TestRateLimiter:
    def test_disabled_limiter_admits_everything(self):
        limiter = RateLimiter(rate=None)
        for _ in range(100):
            assert limiter.try_acquire("anyone") == (True, 0.0)
        assert limiter.client_count() == 0

    def test_buckets_are_per_client(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=clock)
        assert limiter.try_acquire("alice")[0]
        assert not limiter.try_acquire("alice")[0]
        # Bob's bucket is untouched by Alice's spending.
        assert limiter.try_acquire("bob")[0]

    def test_lru_eviction_bounds_client_count(self):
        clock = FakeClock()
        limiter = RateLimiter(
            rate=1.0, burst=1.0, max_clients=2, clock=clock
        )
        assert limiter.try_acquire("a")[0]
        assert limiter.try_acquire("b")[0]
        assert limiter.try_acquire("c")[0]  # evicts "a"
        assert limiter.client_count() == 2
        # "a" returns with a fresh (full) bucket: eviction errs toward
        # admitting, never toward starving.
        assert limiter.try_acquire("a")[0]

    def test_metrics_counters_track_outcomes(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        limiter = RateLimiter(
            rate=1.0, burst=2.0, clock=clock, metrics=registry
        )
        for _ in range(5):
            limiter.try_acquire("alice")
        counters = registry.snapshot()["counters"]
        assert counters["serve.ratelimit.admitted"] == 2
        assert counters["serve.ratelimit.limited"] == 3

    def test_default_burst_follows_rate(self):
        limiter = RateLimiter(rate=50.0, clock=FakeClock())
        assert limiter.burst == 50.0
        assert RateLimiter(rate=0.5, clock=FakeClock()).burst == 1.0


def _context(headers=None, addr="10.0.0.1") -> RequestContext:
    return RequestContext(
        path="/v1/digest", headers=dict(headers or {}), remote_addr=addr
    )


class TestAdmission:
    """``SpitzHTTPServer.admit`` on a server that is never started: no
    request goes over a socket."""

    @pytest.fixture()
    def make_server(self):
        made = []

        def make(**settings) -> SpitzHTTPServer:
            cluster = SpitzCluster(nodes=1)
            server = SpitzHTTPServer(cluster, **settings)
            made.append((cluster, server))
            return server

        yield make
        for cluster, server in made:
            server.stop()
            cluster.stop()

    @staticmethod
    def _charged(server):
        counters = server.metrics.snapshot()["counters"]
        return (
            counters.get("serve.ratelimit.admitted", 0),
            counters.get("serve.ratelimit.limited", 0),
        )

    def test_unauthorized_request_charges_no_bucket(self, make_server):
        server = make_server(auth_tokens=["sesame"], rate=0.01, burst=1)
        before = self._charged(server)
        for headers in ({}, {AUTH_HEADER: "wrong"}):
            reply = server.admit(_context(headers))
            assert reply.status == 401
            assert reply.body["retryable"] is False
        assert self._charged(server) == before
        assert server.limiter.client_count() == 0
        # The caller's budget is intact: its first request is admitted.
        assert server.admit(_context({AUTH_HEADER: "sesame"})) is None

    def test_two_tokens_from_one_address_have_separate_buckets(
        self, make_server
    ):
        server = make_server(auth_tokens=["a", "b"], rate=0.01, burst=1)
        assert server.admit(_context({AUTH_HEADER: "a"})) is None
        assert server.admit(_context({AUTH_HEADER: "b"})) is None
        assert server.admit(_context({AUTH_HEADER: "a"})).status == 429
        assert server.limiter.client_count() == 2

    def test_anonymous_callers_from_one_host_share_a_bucket(
        self, make_server
    ):
        server = make_server(rate=0.01, burst=1)
        first = _context(addr="10.0.0.1")
        assert server.admit(first) is None
        assert first.client_id == "10.0.0.1"
        reply = server.admit(_context(addr="10.0.0.1"))
        assert reply.status == 429
        assert reply.retry_after > 0
        assert reply.body["retryable"] is True
        assert server.admit(_context(addr="10.0.0.2")) is None

    def test_request_id_is_kept_cut_or_issued(self, make_server):
        server = make_server()
        supplied = _context({REQUEST_ID_HEADER: "x" * 200})
        assert server.admit(supplied) is None
        assert supplied.request_id == "x" * 128
        issued = [_context() for _ in range(3)]
        for context in issued:
            assert server.admit(context) is None
        ids = {context.request_id for context in issued}
        assert len(ids) == 3 and "" not in ids
