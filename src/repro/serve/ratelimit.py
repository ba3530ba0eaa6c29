"""Per-client token-bucket rate limiting for the service plane.

The queue's admission control (DESIGN.md §6c) protects the *cluster*
from aggregate overload; the rate limiter protects it from *one*
client, before the request ever reaches the queue.  Each client
identity (auth token, or remote address for anonymous callers) gets a
token bucket: ``burst`` tokens deep, refilled at ``rate`` tokens per
second.  A request that finds the bucket empty is rejected at the
socket edge with a ``Retry-After`` telling the client exactly when a
token will exist again.

Determinism: the clock is injectable (``clock=``), so tests drive
refill explicitly instead of sleeping, and the concurrency property —
N threads hammering one bucket can never over-admit past
``burst + elapsed * rate`` tokens — is checkable exactly.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY


class TokenBucket:
    """One client's budget: ``burst`` capacity, ``rate`` tokens/second.

    ``try_acquire`` is the only operation; it refills lazily from the
    injected clock under the bucket's lock, so concurrent callers can
    never both spend the last token.
    """

    __slots__ = ("rate", "burst", "_tokens", "_updated", "_clock", "_lock")

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be at least one token")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._clock = clock
        self._updated = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> Tuple[bool, float]:
        """Spend ``tokens`` if available.

        Returns ``(True, 0.0)`` on admission, else ``(False,
        retry_after)`` where ``retry_after`` is the seconds until the
        deficit refills — the value the server forwards verbatim as
        the 429's ``Retry-After``.
        """
        now = self._clock()
        with self._lock:
            elapsed = now - self._updated
            if elapsed > 0:
                self._tokens = min(
                    self.burst, self._tokens + elapsed * self.rate
                )
                self._updated = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True, 0.0
            return False, (tokens - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        """Current balance (refill applies lazily on the next acquire)."""
        with self._lock:
            return self._tokens


class RateLimiter:
    """Per-client buckets behind one registry, bounded in client count.

    Buckets are created on first sight of a client id and evicted
    least-recently-used once ``max_clients`` distinct ids are tracked
    — an eviction forgets a stale client's spent tokens, which only
    ever errs toward admitting, never toward starving an active one.
    A ``rate`` of ``None`` disables limiting entirely (every acquire
    admits), so the server can be configured open.
    """

    def __init__(
        self,
        rate: Optional[float],
        burst: Optional[float] = None,
        max_clients: int = 4096,
        clock: Callable[[], float] = time.monotonic,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if max_clients < 1:
            raise ValueError("max_clients must be positive")
        self.rate = rate
        self.burst = float(burst) if burst is not None else (
            max(1.0, rate) if rate is not None else 1.0
        )
        self._max_clients = max_clients
        self._clock = clock
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self._lock = threading.Lock()
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._c_admitted = metrics.counter("serve.ratelimit.admitted")
        self._c_limited = metrics.counter("serve.ratelimit.limited")
        self._g_clients = metrics.gauge("serve.ratelimit.clients")

    def _bucket_for(self, client: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is not None:
                self._buckets.move_to_end(client)
                return bucket
            bucket = TokenBucket(self.rate, self.burst, clock=self._clock)
            self._buckets[client] = bucket
            while len(self._buckets) > self._max_clients:
                self._buckets.popitem(last=False)
            self._g_clients.set(len(self._buckets))
            return bucket

    def try_acquire(self, client: str) -> Tuple[bool, float]:
        """Admit one request for ``client`` (see TokenBucket)."""
        if self.rate is None:
            self._c_admitted.inc()
            return True, 0.0
        admitted, retry_after = self._bucket_for(client).try_acquire()
        if admitted:
            self._c_admitted.inc()
        else:
            self._c_limited.inc()
        return admitted, retry_after

    def client_count(self) -> int:
        with self._lock:
            return len(self._buckets)


__all__ = ["RateLimiter", "TokenBucket"]
