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
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.node import SpitzCluster
from repro.core.query import SearchPredicate
from repro.core.request_handler import Request, RequestKind, Response
from repro.errors import ClusterOverloadedError, SpitzError


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
    #: Per-request-kind outcome split, keyed ``"get"``/``"put"``/... ->
    #: ``{"ok": n, "error": n}``.  The client-side mirror of the
    #: server's ``requests.kind.<kind>.ok``/``.errors`` counters, so a
    #: loadgen worker's view can be reconciled against the cluster's.
    by_kind: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def record_outcome(self, kind: str, ok: bool) -> None:
        split = self.by_kind.setdefault(kind, {"ok": 0, "error": 0})
        split["ok" if ok else "error"] += 1


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
                    self.stats.record_outcome(
                        request.kind.value, response.ok
                    )
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
        self.stats.record_outcome(request.kind.value, False)
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


@dataclass
class SaturationReport:
    """Outcome of one offered-load level against a bounded cluster.

    Client side, every offered op ends in exactly one of ``completed``,
    ``rejected_overload``, ``timeouts`` and ``errors``; server side,
    every accepted envelope in exactly one of ``node.processed``,
    ``queue.shed`` and ``cluster.failed_on_stop`` (``counters``).
    """

    clients: int
    ops_per_client: int
    offered: int = 0
    completed: int = 0
    rejected_overload: int = 0
    #: Ops whose deadline passed before the client saw them served:
    #: its wait ran out (a node may still process the envelope, or shed
    #: it), or a node shed the envelope and said so in time.
    timeouts: int = 0
    shed: int = 0
    failed_on_stop: int = 0
    errors: int = 0
    elapsed_seconds: float = 0.0
    wait_p99: Optional[float] = None
    counters: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "clients": self.clients,
            "ops_per_client": self.ops_per_client,
            "offered": self.offered,
            "completed": self.completed,
            "rejected_overload": self.rejected_overload,
            "timeouts": self.timeouts,
            "shed": self.shed,
            "failed_on_stop": self.failed_on_stop,
            "errors": self.errors,
            "elapsed_seconds": self.elapsed_seconds,
            "queue_wait_p99": self.wait_p99,
        }


def run_saturation(
    clients: int,
    ops_per_client: int = 25,
    nodes: int = 2,
    capacity: int = 16,
    overload_window: float = 0.01,
    deadline: float = 0.25,
    attempts: int = 1,
    service_delay: float = 0.0,
) -> SaturationReport:
    """Drive offered load (possibly past node capacity) at one cluster.

    Spins up a bounded in-process cluster, hammers it with ``clients``
    threads each issuing ``ops_per_client`` PUTs through a
    :class:`ClusterClient`, and reports the reject/shed/complete split.
    ``service_delay`` artificially slows every request (benchmarks use
    it to push a small machine past saturation deterministically).
    With ``attempts=1`` the report measures raw admission behaviour;
    higher values measure how far retry-with-backoff recovers goodput.
    """
    cluster = SpitzCluster(
        nodes=nodes,
        queue_capacity=capacity,
        overload_window=overload_window,
    )
    if service_delay > 0:
        for node in cluster.nodes:
            node.handler = _SlowHandler(node.handler, service_delay)
    report = SaturationReport(clients=clients, ops_per_client=ops_per_client)
    lock = threading.Lock()
    cluster.start()
    start = time.perf_counter()

    def worker(worker_id: int) -> None:
        client = ClusterClient(
            cluster, attempts=attempts, backoff=overload_window,
            timeout=deadline,
        )
        completed = errors = rejected = timeouts = 0
        for i in range(ops_per_client):
            key = f"sat:{worker_id}:{i}".encode()
            try:
                response = client.put(key, b"v")
            except ClusterOverloadedError:
                rejected += 1
                continue
            except TimeoutError:
                # The envelope outlived our wait; a node will process
                # or shed it, or stop() will fail it.
                timeouts += 1
                continue
            if response.ok:
                completed += 1
            elif response.retryable:
                timeouts += 1
            else:
                errors += 1
        with lock:
            report.completed += completed
            report.errors += errors
            report.timeouts += timeouts
            # Admission rejections that survived the client's retries.
            report.rejected_overload += rejected

    threads = [
        threading.Thread(target=worker, args=(n,), daemon=True)
        for n in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.elapsed_seconds = time.perf_counter() - start
    cluster.stop()
    snap = cluster.stats()
    counters = snap["counters"]
    report.offered = clients * ops_per_client
    report.shed = counters.get("queue.shed", 0)
    report.failed_on_stop = counters.get("cluster.failed_on_stop", 0)
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
    wait = snap["histograms"].get("queue.wait_seconds", {})
    report.wait_p99 = wait.get("p99")
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
    "SaturationReport",
    "run_saturation",
]
