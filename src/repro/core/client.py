"""Client-side retry with deterministic exponential backoff.

The admission point (:class:`~repro.core.node.MessageQueue`) answers
sustained overload with a fast, retryable
:class:`~repro.errors.ClusterOverloadedError`, and nodes shed
past-deadline envelopes with a retryable error response.  Both mean
the same thing to a well-behaved client: *nothing happened, back off
and resubmit*.  :class:`ClusterClient` packages that discipline — the
same ``backoff * 2**attempt`` schedule as
:meth:`repro.integration.simnet.Channel.call_with_retry` — so the CLI,
the benchmarks and the tests all retry the same way.

``sleep`` is injectable: the default really waits (a live cluster
needs wall-clock room to drain its queue), while tests and the
simulation-minded callers can pass a no-op and read the deterministic
``backoff_seconds`` accounting instead.

:func:`drive` is the one load loop over any such client, in process or
over HTTP, and :class:`LoadReport` merges its tallies:
:func:`run_saturation` drives it from threads against an in-process
cluster, :func:`repro.serve.loadgen.run_load` from separate processes
against a server.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.node import SpitzCluster
from repro.core.query import SearchPredicate
from repro.core.request_handler import Request, RequestKind, Response
from repro.errors import (
    ClusterOverloadedError,
    NetworkError,
    RateLimitedError,
    SpitzError,
)


@dataclass
class ClientStats:
    """Per-client retry/backoff accounting."""

    calls: int = 0
    attempts: int = 0
    retries: int = 0
    #: Admission rejections (ClusterOverloadedError) seen, including
    #: ones that were retried away.
    rejected_overload: int = 0
    #: Retryable error responses seen (deadline sheds).
    shed_responses: int = 0
    #: Total backoff accumulated by the schedule, in seconds.  With the
    #: default ``sleep`` this time was actually waited; with an
    #: injected no-op it is pure accounting (cf. simnet's
    #: ``backoff_units``).
    backoff_seconds: float = 0.0
    #: Calls that exhausted every attempt.
    exhausted: int = 0


class ClusterClient:
    """Submit requests to a :class:`SpitzCluster` with retry/backoff.

    Retries exactly two failure shapes, both side-effect free:

    - :class:`ClusterOverloadedError` raised at admission (the request
      never entered the queue) — backs off by the *larger* of the
      server's suggested ``retry_after`` and the client's own
      exponential schedule;
    - a retryable error response (the envelope was shed unprocessed
      after its deadline).

    Anything else — real error responses, :class:`TimeoutError`,
    :class:`ClusterStoppedError` — propagates untouched: those may
    have side effects or will not improve with retrying.
    """

    def __init__(
        self,
        cluster: SpitzCluster,
        attempts: int = 4,
        backoff: float = 0.02,
        timeout: float = 10.0,
        sleep: Optional[Callable[[float], None]] = time.sleep,
    ):
        if attempts < 1:
            raise ValueError("attempts must be positive")
        self._cluster = cluster
        self._attempts = attempts
        self._backoff = backoff
        self._timeout = timeout
        self._sleep = sleep if sleep is not None else (lambda _s: None)
        self.stats = ClientStats()

    def _backoff_for(self, attempt: int, suggested: float = 0.0) -> float:
        return max(self._backoff * (2 ** attempt), suggested)

    def call(
        self, request: Request, timeout: Optional[float] = None
    ) -> Response:
        """Submit with retries; returns the final response.

        Raises the last :class:`ClusterOverloadedError` if every
        attempt was rejected at admission; returns the last shed
        response if every attempt expired in the queue.
        """
        self.stats.calls += 1
        timeout = timeout if timeout is not None else self._timeout
        last_error: Optional[SpitzError] = None
        last_response: Optional[Response] = None
        for attempt in range(self._attempts):
            self.stats.attempts += 1
            suggested = 0.0
            try:
                response = self._cluster.submit(request, timeout=timeout)
            except ClusterOverloadedError as error:
                self.stats.rejected_overload += 1
                last_error, last_response = error, None
                suggested = error.retry_after
            else:
                if response.ok or not response.retryable:
                    return response
                self.stats.shed_responses += 1
                last_error, last_response = None, response
            if attempt == self._attempts - 1:
                break
            self.stats.retries += 1
            delay = self._backoff_for(attempt, suggested)
            self.stats.backoff_seconds += delay
            self._sleep(delay)
        self.stats.exhausted += 1
        if last_response is not None:
            return last_response
        assert last_error is not None
        raise last_error

    # -- convenience wrappers (what the CLI and benchmarks drive) ------

    def put(self, key: bytes, value: bytes, verify: bool = False) -> Response:
        return self.call(
            Request(RequestKind.PUT, {"key": key, "value": value}, verify)
        )

    def get(self, key: bytes, verify: bool = False) -> Response:
        return self.call(Request(RequestKind.GET, {"key": key}, verify))

    def get_many(self, keys, verify: bool = False) -> Response:
        """Batch point read; with ``verify`` the response carries one
        :class:`~repro.core.proofs.LedgerMultiProof` for every key."""
        return self.call(
            Request(RequestKind.MULTI_GET, {"keys": list(keys)}, verify)
        )

    def search(self, column, predicate, verify: bool = False) -> Response:
        """Secondary-index search on ``column``.

        ``predicate`` is a
        :class:`~repro.core.query.SearchPredicate` or a string in
        its CLI grammar (``'>= 10'``, ``'between 3 7'``, a bare
        keyword).  With ``verify`` the response carries a
        :class:`~repro.search.proofs.SearchProof` covering membership
        and completeness.
        """
        if isinstance(predicate, str):
            predicate = SearchPredicate.parse(predicate)
        return self.call(
            Request(
                RequestKind.SEARCH,
                {"column": column, "predicate": predicate.to_payload()},
                verify,
            )
        )


#: Where a driven op ends, exactly one per offered op.
OUTCOMES = (
    "completed",
    # Admission rejections (429 overloaded) that survived retries.
    "rejected_overload",
    # Per-client token-bucket rejections (429 rate limited).
    "rate_limited",
    # Retryable shed responses (503) that survived retries.
    "shed",
    # The client's wait ran out: a node may still process the
    # envelope, or shed it, or ``stop()`` fail it.
    "timeouts",
    "network_errors",
    # Non-retryable error responses (malformed requests, 401...).
    "errors",
)


def drive(
    client: ClusterClient,
    worker_id: int,
    ops: int,
    put_ratio: float = 1.0,
    verify_every: int = 0,
) -> Dict[str, object]:
    """Offer ``ops`` requests through ``client``; return the tally.

    A put/get mix interleaved per ten ops; each read targets this
    worker's last written key, so a GET never races a key that does
    not exist.  ``verify_every > 0`` asks every N-th op for a proof.
    The tally counts each op in exactly one of :data:`OUTCOMES` and
    carries the latencies of completed ops, the client's attempts
    (retries included) and the wall-clock window it ran in.
    """
    tally: Dict[str, object] = dict.fromkeys(OUTCOMES, 0)
    latencies: List[float] = []
    started = time.time()
    last_put: Optional[bytes] = None
    for i in range(ops):
        verify = verify_every > 0 and i % verify_every == 0
        if i % 10 < put_ratio * 10 or last_put is None:
            last_put = f"load:{worker_id}:{i}".encode()
            request = Request(
                RequestKind.PUT, {"key": last_put, "value": b"v%d" % i},
                verify=verify,
            )
        else:
            request = Request(
                RequestKind.GET, {"key": last_put}, verify=verify
            )
        begin = time.perf_counter()
        try:
            response = client.call(request)
        except RateLimitedError:
            outcome = "rate_limited"
        except ClusterOverloadedError:
            outcome = "rejected_overload"
        except TimeoutError:
            outcome = "timeouts"
        except NetworkError:
            outcome = "network_errors"
        else:
            if response.ok:
                outcome = "completed"
                latencies.append(time.perf_counter() - begin)
            else:
                outcome = "shed" if response.retryable else "errors"
        tally[outcome] += 1  # type: ignore[operator]
    tally.update(
        worker=worker_id, attempts=client.stats.attempts,
        latencies=latencies, started=started, finished=time.time(),
    )
    return tally


@dataclass
class LoadReport:
    """Merged outcome of one load run: ``workers`` drivers each
    offering ``ops_per_worker`` ops.

    Client side, every offered op ends in exactly one of
    :data:`OUTCOMES`.  In process, ``counters`` holds the cluster's
    accounting, where every accepted envelope ends in exactly one of
    ``node.processed``, ``queue.shed`` and ``cluster.failed_on_stop``.
    """

    workers: int
    ops_per_worker: int
    offered: int = 0
    completed: int = 0
    rejected_overload: int = 0
    rate_limited: int = 0
    shed: int = 0
    timeouts: int = 0
    network_errors: int = 0
    errors: int = 0
    #: Client-side attempts across all workers (retries included).
    attempts: int = 0
    elapsed_seconds: float = 0.0
    #: Completed-op latencies, pooled (seconds).
    latency_p50: Optional[float] = None
    latency_p99: Optional[float] = None
    latency_mean: Optional[float] = None
    #: The cluster's queue-wait p99 (in process only).
    wait_p99: Optional[float] = None
    counters: Dict[str, int] = field(default_factory=dict)
    per_worker: List[Dict[str, object]] = field(default_factory=list)

    @property
    def rps(self) -> float:
        """Sustained completed requests per second of wall time."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.completed / self.elapsed_seconds

    def merge(self, tallies: Iterable[Dict[str, object]]) -> None:
        """Add :func:`drive`'s tallies: sum the outcomes and attempts,
        pool the latencies and time the window the workers spanned."""
        latencies: List[float] = []
        for tally in tallies:
            latencies.extend(tally.pop("latencies"))  # type: ignore
            for name in (*OUTCOMES, "attempts"):
                setattr(self, name, getattr(self, name) + tally[name])
            self.per_worker.append(tally)
        self.offered = self.workers * self.ops_per_worker
        if self.per_worker:
            self.elapsed_seconds = max(0.0, (
                max(tally["finished"] for tally in self.per_worker)
                - min(tally["started"] for tally in self.per_worker)
            ))
        if latencies:
            latencies.sort()
            self.latency_p50 = _percentile(latencies, 0.50)
            self.latency_p99 = _percentile(latencies, 0.99)
            self.latency_mean = sum(latencies) / len(latencies)

    def to_dict(self) -> Dict[str, object]:
        payload = asdict(self)
        del payload["per_worker"]
        payload["rps"] = self.rps
        return payload


def _percentile(sorted_values: List[float], q: float) -> float:
    """Exact rank-``q`` value of a pooled, sorted latency sample."""
    rank = max(1, int(q * len(sorted_values) + 0.999999))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def run_saturation(
    clients: int,
    ops_per_client: int = 25,
    nodes: int = 2,
    capacity: int = 16,
    overload_window: float = 0.01,
    deadline: float = 0.25,
    attempts: int = 1,
    service_delay: float = 0.0,
) -> LoadReport:
    """Drive offered load (possibly past node capacity) at one cluster.

    Spins up a bounded in-process cluster, hammers it with ``clients``
    threads each :func:`drive`-ing ``ops_per_client`` PUTs through a
    :class:`ClusterClient`, and reports the outcome split beside the
    cluster's own accounting.  ``service_delay`` artificially slows
    every request (benchmarks use it to push a small machine past
    saturation deterministically).  With ``attempts=1`` the report
    measures raw admission behaviour; higher values measure how far
    retry-with-backoff recovers goodput.
    """
    cluster = SpitzCluster(
        nodes=nodes,
        queue_capacity=capacity,
        overload_window=overload_window,
    )
    if service_delay > 0:
        for node in cluster.nodes:
            node.handler = _SlowHandler(node.handler, service_delay)

    def worker(worker_id: int) -> Dict[str, object]:
        client = ClusterClient(
            cluster, attempts=attempts, backoff=overload_window,
            timeout=deadline,
        )
        return drive(client, worker_id, ops_per_client)

    # Imported here, not at the top: ``import repro`` stays without it.
    from concurrent.futures import ThreadPoolExecutor

    report = LoadReport(workers=clients, ops_per_worker=ops_per_client)
    cluster.start()
    try:
        with ThreadPoolExecutor(max_workers=clients) as pool:
            report.merge(pool.map(worker, range(clients)))
    finally:
        cluster.stop()
    snap = cluster.stats()
    counters = snap["counters"]
    report.counters = {
        name: counters.get(name, 0)
        for name in (
            "queue.submitted",
            "queue.rejected_overload",
            "queue.shed",
            "node.processed",
            "cluster.failed_on_stop",
        )
    }
    report.wait_p99 = (
        snap["histograms"].get("queue.wait_seconds", {}).get("p99")
    )
    return report


class _SlowHandler:
    """Wrap a RequestHandler with a fixed per-request service delay."""

    def __init__(self, inner, delay: float):
        self._inner = inner
        self._delay = delay

    def handle(self, request) -> Response:
        time.sleep(self._delay)
        return self._inner.handle(request)

    def __getattr__(self, name):
        return getattr(self._inner, name)


__all__: List[str] = [
    "ClientStats",
    "ClusterClient",
    "LoadReport",
    "OUTCOMES",
    "drive",
    "run_saturation",
]
