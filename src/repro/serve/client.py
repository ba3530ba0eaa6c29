"""HTTP transport speaking the wire codec, plugged into ClusterClient.

The retry discipline must not fork between in-process and networked
callers — that is the whole point of funneling both through
:class:`~repro.core.client.ClusterClient`.  :class:`HttpTransport`
therefore *impersonates a cluster*: it exposes the same
``submit(request, timeout) -> Response`` surface, translating HTTP
statuses back into the exact in-process failure shapes:

- **429 with queue depth/capacity** →
  :class:`~repro.errors.ClusterOverloadedError` carrying the server's
  ``retry_after`` verbatim (the float from the JSON body, not the
  integer-rounded header), so the client's
  ``max(suggested, backoff * 2**attempt)`` schedule sees exactly what
  the queue suggested;
- **429 from the per-client token bucket** →
  :class:`~repro.errors.RateLimitedError` (a retryable subclass);
- **503 framing a retryable shed response** → that decoded
  :class:`~repro.core.request_handler.Response`;
- **503 stopped** → :class:`~repro.errors.ClusterStoppedError`;
- **504** → :class:`TimeoutError`.

:class:`HttpClusterClient` is then just ``ClusterClient`` handed an
:class:`HttpTransport` — same stats, same injectable sleep, same
backoff math, over a socket.  Connections are per-thread and kept
alive (HTTP/1.1), with one transparent reconnect per call for servers
that closed an idle connection.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Any, Callable, Dict, Optional

from repro.core.client import ClusterClient
from repro.core.request_handler import Request, Response
from repro.errors import (
    ClusterOverloadedError,
    ClusterStoppedError,
    NetworkError,
    RateLimitedError,
)
from repro.serve.codec import decode_response, encode_request
from repro.serve.server import AUTH_HEADER


#: Seconds to connect, and the headroom a request's reply gets past its
#: deadline.
CONNECT_TIMEOUT = 10.0


class HttpTransport:
    """A remote cluster behind ``submit()`` (duck-typed SpitzCluster).

    One :class:`http.client.HTTPConnection` per calling thread — the
    load generator runs many client threads per process, and sharing a
    connection would serialize them on the socket.
    """

    def __init__(
        self,
        host: str,
        port: int,
        token: Optional[str] = None,
    ):
        self.host = host
        self.port = port
        self._token = token
        self._local = threading.local()

    # -- connection management -----------------------------------------

    def _connection(self, timeout: float) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=timeout
            )
            conn.connect()
            # Request bodies are sent as a separate write after the
            # headers; Nagle would stall that packet behind the
            # server's delayed ACK.
            conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            self._local.conn = conn
        else:
            # Socket timeout must cover this call's cluster timeout.
            conn.timeout = timeout
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def close(self) -> None:
        """Close this thread's connection (others close on GC)."""
        self._drop_connection()

    # -- HTTP round trips ----------------------------------------------

    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self._token is not None:
            headers[AUTH_HEADER] = self._token
        return headers

    def _round_trip(
        self, method: str, path: str, body: Optional[bytes], timeout: float
    ) -> tuple:
        """One request/response, reconnecting once on a dead socket."""
        last_error: Optional[Exception] = None
        for fresh in (False, True):
            if fresh:
                self._drop_connection()
            try:
                conn = self._connection(timeout)
                conn.request(method, path, body=body, headers=self._headers())
                response = conn.getresponse()
                data = response.read()
                return response.status, response.headers, data
            except (http.client.HTTPException, ConnectionError, OSError) as error:
                last_error = error
                self._drop_connection()
        raise NetworkError(
            f"{method} {path} to {self.host}:{self.port} failed: "
            f"{last_error}"
        )

    @staticmethod
    def _json_body(data: bytes) -> Dict[str, Any]:
        try:
            frame = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise NetworkError(
                f"server returned a non-JSON body: {error}"
            ) from None
        if not isinstance(frame, dict):
            raise NetworkError("server returned a non-object JSON body")
        return frame

    # -- the cluster-shaped surface ------------------------------------

    def submit(self, request: Request, timeout: float = 10.0) -> Response:
        """POST one request; decode the reply into in-process shapes."""
        frame = encode_request(request)
        frame["timeout_seconds"] = timeout
        body = json.dumps(frame).encode("utf-8")
        # Socket timeout needs headroom over the cluster-side deadline:
        # a request shed exactly at ``timeout`` still has to travel back.
        status, headers, data = self._round_trip(
            "POST", "/v1/request", body, timeout + CONNECT_TIMEOUT
        )
        reply = self._json_body(data)
        if status == 429:
            retry_after = _retry_after_of(reply, headers)
            if reply.get("overloaded"):
                raise ClusterOverloadedError(
                    depth=int(reply.get("depth", 0)),
                    capacity=max(int(reply.get("capacity", 1)), 1),
                    retry_after=retry_after,
                )
            raise RateLimitedError(
                retry_after=retry_after,
                message=str(reply.get("error", "rate limited")),
            )
        if status == 503 and reply.get("stopped"):
            raise ClusterStoppedError(str(reply.get("error", "stopped")))
        if status == 504:
            raise TimeoutError(str(reply.get("error", "request timed out")))
        if "ok" in reply:
            return decode_response(reply)
        # Edge rejections without a response frame (401, 400, 404...).
        return Response(
            ok=False,
            error=str(reply.get("error", f"HTTP {status}")),
            retryable=bool(reply.get("retryable", False)),
        )

    # -- operational endpoints -----------------------------------------

    def _get_json(self, path: str) -> tuple:
        status, _headers, data = self._round_trip(
            "GET", path, None, CONNECT_TIMEOUT
        )
        return status, self._json_body(data)

    def healthz(self) -> bool:
        status, _body = self._get_json("/healthz")
        return status == 200

    def readyz(self) -> tuple:
        """(ready, detail) from the readiness endpoint."""
        status, body = self._get_json("/readyz")
        return status == 200, body

    def stats(self, traces: bool = False) -> Dict[str, Any]:
        path = "/v1/stats" + ("?traces=1" if traces else "")
        status, body = self._get_json(path)
        if status != 200:
            raise NetworkError(f"stats endpoint returned HTTP {status}")
        return body

    def digest(self) -> Dict[str, Any]:
        status, body = self._get_json("/v1/digest")
        if status != 200:
            raise NetworkError(f"digest endpoint returned HTTP {status}")
        return body


class HttpClusterClient(ClusterClient):
    """ClusterClient over a socket: same retries, stats and backoff.

    ``sleep`` stays injectable — the regression tests inject a
    recording no-op and assert the wire-delivered ``retry_after``
    flows through the schedule unchanged.
    """

    def __init__(
        self,
        host: str,
        port: int,
        token: Optional[str] = None,
        attempts: int = 4,
        backoff: float = 0.02,
        timeout: float = 10.0,
        sleep: Optional[Callable[[float], None]] = time.sleep,
    ):
        transport = HttpTransport(host, port, token=token)
        super().__init__(
            transport,  # type: ignore[arg-type] (duck-typed cluster)
            attempts=attempts,
            backoff=backoff,
            timeout=timeout,
            sleep=sleep,
        )
        self.transport = transport

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "HttpClusterClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _retry_after_of(reply: Dict[str, Any], headers) -> float:
    """Precise backoff: JSON float first, integer header as fallback."""
    value = reply.get("retry_after")
    if isinstance(value, (int, float)) and value >= 0:
        return float(value)
    header = headers.get("Retry-After") if headers is not None else None
    try:
        return float(header) if header is not None else 0.0
    except ValueError:
        return 0.0


__all__ = ["HttpClusterClient", "HttpTransport"]
