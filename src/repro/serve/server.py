"""Threaded stdlib HTTP/1.1 server over a :class:`SpitzCluster`.

This is the socket edge of the service plane: real clients (separate
processes, separate machines) speak JSON-over-HTTP to a cluster that
until now only in-process threads could reach.  Design points:

- **Shedding at the edge.**  Admission-control rejections
  (:class:`~repro.errors.ClusterOverloadedError`) map to **429**,
  deadline sheds and shutdown to **503** — each with a ``Retry-After``
  derived from the queue's own suggested backoff
  (:meth:`~repro.core.node.MessageQueue.suggested_backoff`), plus the
  precise float in the JSON body (HTTP's header wants integer
  seconds; our backoffs are milliseconds).  A well-behaved client
  (:class:`~repro.serve.client.HttpClusterClient`) honors the body
  value through the exact retry loop the in-process client uses.
- **Admission before the queue.**  Every ``/v1/*`` request passes
  :meth:`SpitzHTTPServer.admit` — request id, auth token, per-client
  token bucket — and :meth:`SpitzHTTPServer.answer`; rejected
  requests never spend cluster capacity (DESIGN.md §6e).
- **One parented trace per HTTP request.**  The handler opens an
  ``http.request`` root span on its serving thread; the cluster's
  ``client.submit`` span (opened inside ``MessageQueue.submit`` on the
  same thread) parents under it automatically, so the flight recorder
  retains the full socket-to-storage span tree and ``spitz slowest``
  attributes HTTP requests like any other.

Endpoints::

    GET  /healthz        process liveness (never touches the cluster)
    GET  /readyz         readiness: 200 serving; 503 stopping or on a
                         hard SLO burn (body names the burning SLO)
    GET  /metrics        Prometheus text exposition (registry +
                         windowed rates + per-shard series)
    GET  /v1/stats       metrics snapshot (``?traces=1`` adds flight
                         data, ``?profile_seconds=N`` inlines a folded
                         profile; ``Accept: text/plain`` serves the
                         Prometheus rendering instead)
    GET  /v1/digest      current ledger digest (what clients pin)
    POST /v1/request     one codec-framed Request -> framed Response

Everything is stdlib (``http.server``); the threading server gives one
thread per connection, which matches the cluster's thread-per-node
model and keeps the dependency budget at zero.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.core.node import SpitzCluster
from repro.errors import ClusterOverloadedError, ClusterStoppedError
from repro.obs.exposition import PROM_CONTENT_TYPE, render_prometheus
from repro.obs.profiler import MAX_PROFILE_SECONDS, profile_duration
from repro.obs.tracing import STATUS_ERROR, STATUS_OK, STATUS_SHED, Span
from repro.serve.codec import (
    WireCodecError,
    decode_request,
    encode_response,
    to_jsonable,
)
from repro.serve.ratelimit import RateLimiter

#: Largest accepted request body; bigger gets 413 without reading.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Ceiling on the per-request cluster timeout a client may ask for.
MAX_REQUEST_TIMEOUT = 60.0
#: Header carrying (or receiving) the request id.
REQUEST_ID_HEADER = "x-request-id"
#: Header carrying the client's auth token.
AUTH_HEADER = "x-spitz-token"


@dataclass
class RequestContext:
    """Everything the edge knows about one in-flight HTTP request."""

    path: str
    #: Lower-cased header name → value.
    headers: Dict[str, str]
    remote_addr: str
    #: Set by :meth:`SpitzHTTPServer.admit`: the client's own id when
    #: it sent one (so retries correlate across attempts), else issued.
    request_id: str = ""
    #: Set by :meth:`SpitzHTTPServer.admit` once the caller is
    #: authenticated: its token, else its host.  The rate-limit key.
    client_id: str = ""


class Reply(NamedTuple):
    """What a route answers: a JSON object, or text for the Prometheus
    exposition.  ``retry_after`` (seconds) becomes the ``Retry-After``
    header; ``outcome`` is the ``http.request`` span's status."""

    status: int
    body: Union[Dict[str, Any], str]
    retry_after: Optional[float] = None
    outcome: str = STATUS_OK


def prefers_plain_text(accept: Optional[str]) -> bool:
    """Content negotiation for ``/v1/stats``: does this ``Accept``
    header ask for the Prometheus text format over JSON?

    Minimal q-value handling over comma-separated media ranges:
    ``text/plain`` (and ``text/*``) competes with ``application/json``
    (and ``application/*``/``*/*``, which keep the JSON default).
    Plain text wins only on a strictly higher q — ties keep JSON, so
    browsers (``*/*``) and existing clients are unaffected.
    """
    if not accept:
        return False
    q_text = 0.0
    q_json = 0.0
    for part in accept.split(","):
        fields = part.strip().split(";")
        media = fields[0].strip().lower()
        q = 1.0
        for param in fields[1:]:
            name, _, value = param.strip().partition("=")
            if name.strip() == "q":
                try:
                    q = float(value)
                except ValueError:
                    q = 0.0
        if media in ("text/plain", "text/*"):
            q_text = max(q_text, q)
        elif media in ("application/json", "application/*", "*/*"):
            q_json = max(q_json, q)
    return q_text > q_json


class _Handler(BaseHTTPRequestHandler):
    """One HTTP connection (the threading server gives it a thread)."""

    protocol_version = "HTTP/1.1"
    # Headers and body go out as separate writes; with Nagle on, the
    # second write stalls behind the peer's delayed ACK (~40ms per
    # request on loopback keep-alive connections).
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: Any) -> None:
        # Access logging is the metrics registry's job, not stderr's.
        pass

    def send(self, reply: Reply, request_id: str = "", close: bool = False) -> None:
        """Write ``reply``; ``close`` ends the connection after it."""
        if isinstance(reply.body, str):
            payload = reply.body.encode("utf-8")
            content_type = PROM_CONTENT_TYPE
        else:
            payload = json.dumps(reply.body).encode("utf-8")
            content_type = "application/json"
        self.send_response(reply.status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if request_id:
            self.send_header("X-Request-Id", request_id)
        if reply.retry_after is not None:
            # Standard header is integer seconds; the precise float
            # rides in the body as "retry_after".
            self.send_header(
                "Retry-After", str(max(1, math.ceil(reply.retry_after)))
            )
        if close:
            # Sets close_connection too (BaseHTTPRequestHandler).
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)
        self.server.spitz.observe_response(reply.status)

    def _context(self, path: str) -> RequestContext:
        return RequestContext(
            path=path,
            headers={
                name.lower(): value for name, value in self.headers.items()
            },
            # Host only — the ephemeral port changes per connection,
            # and the rate limiter keys anonymous callers by this, so
            # including it would hand every reconnect a fresh bucket.
            remote_addr=str(self.client_address[0]),
        )

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        spitz = self.server.spitz
        split = urlsplit(self.path)
        path = split.path
        if path == "/healthz":
            self.send(Reply(200, {"status": "alive"}))
        elif path == "/readyz":
            ready, detail = spitz.readiness()
            self.send(Reply(200 if ready else 503, detail))
        elif path == "/metrics":
            # Like /healthz: scrapers poll this every few seconds and
            # never spend cluster capacity, so it bypasses auth and
            # rate limiting rather than eating the caller's budget.
            self.send(Reply(200, spitz.metrics_text()))
        elif path == "/v1/stats":
            spitz.answer(
                self, self._context(path), "stats",
                lambda span: spitz.stats_reply(
                    split.query, self.headers.get("Accept")
                ),
            )
        elif path == "/v1/digest":
            spitz.answer(
                self, self._context(path), "digest",
                lambda span: Reply(
                    200, to_jsonable({"digest": spitz.cluster.db.digest()})
                ),
            )
        else:
            self.send(Reply(404, {"error": f"no route {path!r}"}))

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler contract)
        path = urlsplit(self.path).path
        if path != "/v1/request":
            self.send(Reply(404, {"error": f"no route {path!r}"}))
            return
        try:
            size = int(self.headers.get("Content-Length", ""))
        except ValueError:
            size = -1
        if not 0 <= size <= MAX_BODY_BYTES:
            # The body stays unread, so nothing after it on this
            # connection can be framed: answer and close.
            if size > MAX_BODY_BYTES:
                reply = Reply(413, {"error": f"body over {MAX_BODY_BYTES} bytes"})
            else:
                reply = Reply(411, {"error": "a valid Content-Length is required"})
            self.send(reply, close=True)
            return
        self.server.handle_request_route(
            self, self._context(path), self.rfile.read(size)
        )


class SpitzHTTPServer:
    """The service plane: admission + routes over one cluster.

    Owns the listening socket (``port=0`` binds an ephemeral port —
    read :attr:`port` after construction) and a daemon thread running
    ``serve_forever``.  Does *not* own the cluster: callers that want
    a one-stop lifecycle use :func:`serve_cluster`.  With no
    ``auth_tokens`` the server is open; with no ``rate`` nobody is
    rate limited (``burst`` defaults to one second's worth of tokens).
    """

    def __init__(
        self,
        cluster: SpitzCluster,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_tokens: Optional[List[str]] = None,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        request_timeout: float = 10.0,
    ):
        self.cluster = cluster
        self.request_timeout = request_timeout
        self.metrics = cluster.metrics
        self._c_requests = self.metrics.counter("serve.http.requests")
        self._c_rejected_edge = self.metrics.counter("serve.http.rejected_edge")
        self._c_unauthorized = self.metrics.counter("serve.unauthorized")
        self._h_latency = self.metrics.histogram("serve.http.latency_seconds")
        self._status_counters: Dict[int, Any] = {}
        self._tokens = frozenset(auth_tokens or ())
        self.limiter = RateLimiter(rate=rate, burst=burst, metrics=self.metrics)
        # Issued ids are ``<prefix>-<n>``: a random per-server prefix
        # keeps them unique across restarts without a clock.
        self._id_prefix = os.urandom(4).hex()
        self._ids = itertools.count(1)
        self._ids_lock = threading.Lock()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        # The handler reaches the server through ``self.server.spitz``;
        # the POST route goes through its own attribute so it can be
        # wrapped per instance.
        self._httpd.spitz = self  # type: ignore[attr-defined]
        self._httpd.handle_request_route = self.handle_request_route  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="spitz-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            # shutdown() waits for serve_forever, so only a started
            # server may call it.
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "SpitzHTTPServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- per-request machinery (called from handler threads) ------------

    def observe_response(self, status: int) -> None:
        counter = self._status_counters.get(status)
        if counter is None:
            counter = self.metrics.counter(f"serve.http.status.{status}")
            self._status_counters[status] = counter
        counter.inc()

    def readiness(self) -> Tuple[bool, Dict[str, Any]]:
        queue = self.cluster.queue
        detail: Dict[str, Any] = {
            "queue_depth": queue.metrics.gauge("queue.depth").value,
            "queue_capacity": queue.capacity,
        }
        if queue.closed:
            detail["status"] = "stopping"
            return False, detail
        telemetry = getattr(self.cluster, "telemetry", None)
        if telemetry is not None:
            # Cached statuses from the last telemetry tick — readiness
            # probes never walk the slot ring.  Only *critical* burns
            # (hard burn in BOTH SLO windows, with enough traffic to
            # mean it) fail readiness; see DESIGN.md §6h.
            ok, reasons = telemetry.slo.health()
            if not ok:
                detail["status"] = "slo_burn"
                detail["slo"] = reasons
                return False, detail
        detail["status"] = "ready"
        return True, detail

    def stats_reply(self, query: str, accept: Optional[str]) -> Reply:
        """``GET /v1/stats``: the CLI's exact payload, or the Prometheus
        rendering when the ``Accept`` header prefers text.

        The cumulative snapshot, plus the telemetry plane's windowed
        view (``windows``) and SLO statuses (``slo``) when the cluster
        runs one.  ``?traces=1`` adds the flight recorder's data;
        ``?profile_seconds=N`` (capped at :data:`MAX_PROFILE_SECONDS`)
        samples the live process for that long and inlines the
        profiler report — the request blocks for the duration, which
        is the point: it profiles whatever the server is doing *now*.
        """
        if prefers_plain_text(accept):
            return Reply(200, self.metrics_text())
        params = parse_qs(query)
        snapshot = dict(self.cluster.db.metrics_snapshot())
        telemetry = getattr(self.cluster, "telemetry", None)
        if telemetry is not None:
            snapshot["windows"] = telemetry.windows_snapshot()
            snapshot["slo"] = telemetry.slo_snapshot()
        if params.get("traces", ["0"])[0] in ("1", "true", "yes"):
            snapshot["traces"] = self.metrics.flight.snapshot()
        try:
            seconds = float(params.get("profile_seconds", ["0"])[0])
        except ValueError:
            seconds = 0.0
        if seconds > 0:
            bounded = min(seconds, MAX_PROFILE_SECONDS)
            snapshot["profile"] = profile_duration(bounded).report()
        return Reply(200, to_jsonable(snapshot))

    def metrics_text(self) -> str:
        """The full Prometheus exposition (``GET /metrics``)."""
        # metrics_snapshot() refreshes derived gauges (ledger height,
        # chunk-store occupancy) as a side effect before we render.
        self.cluster.db.metrics_snapshot()
        telemetry = getattr(self.cluster, "telemetry", None)
        windows = (
            telemetry.windows_snapshot() if telemetry is not None else None
        )
        shard_registries = getattr(
            self.cluster.db, "shard_registries", None
        )
        shards = None
        if shard_registries:
            shards = {
                f"{shard_id:02d}": registry.exposition_snapshot()
                for shard_id, registry in enumerate(shard_registries)
            }
        return render_prometheus(
            self.metrics.exposition_snapshot(),
            windows=windows,
            shards=shards,
        )

    def admit(self, context: RequestContext) -> Optional[Reply]:
        """Decide whether a ``/v1/*`` request may spend cluster capacity.

        In order: name the request, name the caller, check its token,
        charge its token bucket.  Returns None to admit, else the
        rejection to send — so nothing unauthorized or over budget ever
        reaches the queue.  A 401 is final; a 429 is retryable, with
        ``retry_after`` saying when the caller's bucket refills.
        """
        supplied = context.headers.get(REQUEST_ID_HEADER)
        if supplied:
            context.request_id = supplied[:128]
        else:
            with self._ids_lock:
                number = next(self._ids)
            context.request_id = f"{self._id_prefix}-{number}"
        token = context.headers.get(AUTH_HEADER)
        if self._tokens and token not in self._tokens:
            # Before the bucket: an unknown caller spends nobody's budget.
            self._c_unauthorized.inc()
            self._c_rejected_edge.inc()
            return Reply(
                401,
                {"error": "missing or unknown auth token", "retryable": False},
                outcome=STATUS_ERROR,
            )
        client = token or context.remote_addr or "anonymous"
        context.client_id = client
        admitted, retry_after = self.limiter.try_acquire(client)
        if admitted:
            return None
        self._c_rejected_edge.inc()
        return Reply(
            429,
            {
                "error": (
                    f"client {client!r} over its request rate; "
                    f"retry in ~{retry_after:.3f}s"
                ),
                "retryable": True,
                "retry_after": retry_after,
            },
            retry_after,
            STATUS_SHED,
        )

    def answer(
        self,
        handler: _Handler,
        context: RequestContext,
        kind: str,
        act: Callable[[Optional[Span]], Reply],
    ) -> None:
        """Admit and answer one ``/v1/*`` request inside its
        ``http.request`` span.

        ``act`` runs only for an admitted request, inside the span, so
        any cluster work it does parents there.  The reply is written
        *after* the span closes: once a client has the response, its
        trace is already in the flight recorder.
        """
        self._c_requests.inc()
        start = time.perf_counter()
        with self.metrics.tracer.span(
            "http.request", attributes={"kind": kind, "path": context.path}
        ) as span:
            reply = self.admit(context) or act(span)
            if span is not None:
                span.status = reply.outcome
                span.set_attribute("request_id", context.request_id)
                span.set_attribute("client", context.client_id)
                span.set_attribute("http_status", reply.status)
        self._h_latency.observe(time.perf_counter() - start)
        if isinstance(reply.body, dict):
            reply.body.setdefault("request_id", context.request_id)
        handler.send(reply, request_id=context.request_id)

    def handle_request_route(
        self, handler: _Handler, context: RequestContext, body: bytes
    ) -> None:
        """``POST /v1/request``: decode, submit, frame, reply."""
        self.answer(
            handler, context, "edge", lambda span: self._submit(body, span)
        )

    def _submit(self, body: bytes, span: Optional[Span]) -> Reply:
        """One admitted request body through the cluster."""
        try:
            frame = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return Reply(
                400,
                {"error": f"request body is not JSON: {error}"},
                outcome=STATUS_ERROR,
            )
        try:
            request = decode_request(frame)
        except WireCodecError as error:
            return Reply(400, {"error": str(error)}, outcome=STATUS_ERROR)
        if span is not None:
            span.set_attribute("kind", request.kind.value)
        timeout = self.request_timeout
        asked = frame.get("timeout_seconds")
        if isinstance(asked, (int, float)) and asked > 0:
            timeout = min(float(asked), MAX_REQUEST_TIMEOUT)
        try:
            response = self.cluster.submit(request, timeout=timeout)
        except ClusterOverloadedError as error:
            # Admission rejection: shed at the socket edge, with the
            # queue's own backoff suggestion on the wire.
            overload = {
                "error": str(error),
                "overloaded": True,
                "retryable": True,
                "retry_after": error.retry_after,
                "depth": error.depth,
                "capacity": error.capacity,
            }
            return Reply(429, overload, error.retry_after, STATUS_SHED)
        except ClusterStoppedError as error:
            return Reply(
                503,
                {"error": str(error), "stopped": True, "retryable": False},
                outcome=STATUS_ERROR,
            )
        except TimeoutError as error:
            return Reply(
                504,
                {"error": str(error), "retryable": False},
                outcome=STATUS_ERROR,
            )
        reply = encode_response(response)
        if response.ok:
            return Reply(200, reply)
        if response.retryable:
            # Deadline shed inside the queue: 503 + the queue's live
            # backoff suggestion (the shed response itself carries
            # none), so remote clients pace exactly like local ones.
            retry_after = self.cluster.queue.suggested_backoff()
            reply["retry_after"] = retry_after
            return Reply(503, reply, retry_after, STATUS_SHED)
        return Reply(200, reply, outcome=STATUS_ERROR)


class ClusterService:
    """One-stop lifecycle: a cluster plus its HTTP front end."""

    def __init__(self, cluster: SpitzCluster, server: SpitzHTTPServer):
        self.cluster = cluster
        self.server = server

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return self.server.address

    def stop(self) -> None:
        self.server.stop()
        self.cluster.stop()

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def serve_cluster(
    nodes: int = 2,
    host: str = "127.0.0.1",
    port: int = 0,
    queue_capacity: Optional[int] = None,
    overload_window: float = 0.05,
    durable_root: Optional[str] = None,
    auth_tokens: Optional[List[str]] = None,
    rate: Optional[float] = None,
    burst: Optional[float] = None,
    request_timeout: float = 10.0,
    metrics=None,
    shards: int = 1,
    indexed_columns=None,
) -> ClusterService:
    """Build, start and front a cluster in one call (CLI and bench)."""
    cluster = SpitzCluster(
        nodes=nodes,
        durable_root=durable_root,
        queue_capacity=queue_capacity,
        overload_window=overload_window,
        metrics=metrics,
        shards=shards,
        indexed_columns=indexed_columns,
    )
    cluster.start()
    server = SpitzHTTPServer(
        cluster,
        host=host,
        port=port,
        auth_tokens=auth_tokens,
        rate=rate,
        burst=burst,
        request_timeout=request_timeout,
    )
    server.start()
    return ClusterService(cluster, server)


__all__ = [
    "AUTH_HEADER",
    "ClusterService",
    "MAX_BODY_BYTES",
    "MAX_REQUEST_TIMEOUT",
    "REQUEST_ID_HEADER",
    "Reply",
    "RequestContext",
    "SpitzHTTPServer",
    "serve_cluster",
]
