"""Integration tests for the HTTP service plane (``repro.serve``).

Everything here runs a real listening socket (ephemeral port) with the
real admission path, wire codec and cluster behind it.  The suite
pins the service-plane contract end to end:

- reads/writes/verified reads round-trip the wire and **verify
  client-side** against the served digest;
- edge rejections map to the right statuses (401 auth, 429 rate
  limit / overload, 503 shed / stopped, 504 timeout) with
  ``Retry-After`` carried both as the integer header and the precise
  float body field;
- ``ClusterOverloadedError.retry_after`` survives the wire and is
  honored by the standard :class:`ClusterClient` retry loop through
  an injected sleep (the satellite regression);
- the exactly-once accounting invariant holds under genuine
  multi-threaded overload through the socket;
- every HTTP request yields one complete parented trace in the
  flight recorder.
"""

import http.client
import json
import socket
import threading

import pytest

from repro.core.client import _SlowHandler
from repro.core.ledger import LedgerDigest
from repro.core.proofs import LedgerProof
from repro.core.request_handler import Request, RequestKind, Response
from repro.core.verifier import ClientVerifier
from repro.errors import (
    ClusterOverloadedError,
    ClusterStoppedError,
    RateLimitedError,
)
from repro.serve.client import HttpClusterClient
from repro.serve.codec import decode_value
from repro.serve.server import MAX_BODY_BYTES, REQUEST_ID_HEADER, serve_cluster


@pytest.fixture()
def service():
    svc = serve_cluster(nodes=2, queue_capacity=64)
    yield svc
    svc.stop()


@pytest.fixture()
def client(service):
    with HttpClusterClient("127.0.0.1", service.port, attempts=1) as c:
        yield c


def _raw(service, method, path, body=None, headers=None):
    """One raw HTTP exchange, for asserting statuses and headers."""
    conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.headers, response.read()
    finally:
        conn.close()


class TestHealthAndOps:
    def test_healthz_and_readyz(self, service, client):
        assert client.transport.healthz()
        ready, detail = client.transport.readyz()
        assert ready
        assert detail["status"] == "ready"
        assert detail["queue_capacity"] == 64

    def test_readyz_reports_stopping_cluster(self, service, client):
        service.cluster.queue.close()
        ready, detail = client.transport.readyz()
        assert not ready
        assert detail["status"] == "stopping"

    def test_unknown_route_is_404(self, service):
        status, _headers, _body = _raw(service, "GET", "/nope")
        assert status == 404

    def test_missing_content_length_is_411(self, service):
        conn = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=10
        )
        try:
            conn.putrequest("POST", "/v1/request", skip_accept_encoding=True)
            conn.endheaders()
            assert conn.getresponse().status == 411
        finally:
            conn.close()

    def test_oversized_content_length_is_413_and_closes(self, service):
        conn = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=10
        )
        try:
            conn.putrequest("POST", "/v1/request", skip_accept_encoding=True)
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
            assert response.headers["Connection"] == "close"
        finally:
            conn.close()

    def test_unread_body_is_not_parsed_as_the_next_request(self, service):
        # The refused body is never read, so the server must not frame
        # it: a smuggled GET inside it gets no answer of its own.
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        sock = socket.create_connection(("127.0.0.1", service.port))
        sock.settimeout(3.0)
        try:
            sock.sendall(
                b"POST /v1/request HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 99999999\r\n\r\n" + smuggled
            )
            received = b""
            while True:
                try:
                    chunk = sock.recv(65536)
                except (socket.timeout, ConnectionResetError):
                    break
                if not chunk:
                    break
                received += chunk
        finally:
            sock.close()
        assert received.count(b"HTTP/1.1 ") == 1, received
        assert received.startswith(b"HTTP/1.1 413 ")

    def test_digest_endpoint_decodes_to_live_digest(self, service, client):
        body = client.transport.digest()
        digest = decode_value(body["digest"])
        assert isinstance(digest, LedgerDigest)
        assert digest == service.cluster.db.digest()

    def test_stats_endpoint_serves_the_cli_frame(self, service, client):
        client.put(b"stat-key", b"v")
        body = client.transport.stats()
        # The same top-level frame `spitz stats --json` prints —
        # both run the snapshot through codec.to_jsonable.
        assert set(body) >= {"counters", "gauges", "histograms"}
        assert body["counters"]["serve.http.requests"] >= 1
        assert "traces" not in body
        with_traces = client.transport.stats(traces=True)
        assert set(with_traces["traces"]) == {
            "attribution", "slowest", "failures",
        }
        json.dumps(with_traces)  # wire frame stays JSON-pure


class TestRequestRoundTrips:
    def test_put_then_get(self, service, client):
        assert client.put(b"alice", b"100").ok
        response = client.get(b"alice")
        assert response.ok
        assert response.result == b"100"

    def test_verified_get_verifies_client_side(self, service, client):
        assert client.put(b"bob", b"42").ok
        response = client.call(
            Request(RequestKind.GET, {"key": b"bob"}, verify=True)
        )
        assert response.ok and response.result == b"42"
        assert isinstance(response.proof, LedgerProof)
        verifier = ClientVerifier()
        verifier.trust(response.digest)
        verifier.verify_or_raise(response.proof)

    def test_verified_multi_get_verifies_client_side(self, service, client):
        from repro.core.proofs import LedgerMultiProof

        for i in range(8):
            assert client.put(b"mget:%d" % i, b"v%d" % i).ok
        keys = [b"mget:1", b"mget:5", b"mget:7", b"mget:nope"]
        response = client.get_many(keys, verify=True)
        assert response.ok
        assert response.result == [b"v1", b"v5", b"v7", None]
        assert isinstance(response.proof, LedgerMultiProof)
        verifier = ClientVerifier()
        verifier.trust(response.digest)
        verifier.verify_or_raise(response.proof)
        # Unverified batch read carries no proof.
        plain = client.get_many(keys)
        assert plain.ok and plain.proof is None
        assert plain.result == [b"v1", b"v5", b"v7", None]

    def test_verified_scan_verifies_client_side(self, service, client):
        for i in range(6):
            assert client.put(b"scan:%d" % i, b"v%d" % i).ok
        response = client.call(
            Request(
                RequestKind.SCAN,
                {"low": b"scan:1", "high": b"scan:4"},
                verify=True,
            )
        )
        assert response.ok
        verifier = ClientVerifier()
        verifier.trust(response.digest)
        verifier.verify_or_raise(response.proof)

    def test_malformed_body_is_400(self, service):
        status, _headers, body = _raw(
            service, "POST", "/v1/request", body=b"{not json",
        )
        assert status == 400
        assert "JSON" in json.loads(body)["error"]

    def test_unknown_kind_is_400(self, service):
        status, _headers, body = _raw(
            service, "POST", "/v1/request",
            body=json.dumps({"kind": "bogus", "payload": {}}).encode(),
        )
        assert status == 400
        assert "bogus" in json.loads(body)["error"]

    def test_request_id_is_echoed(self, service):
        status, headers, body = _raw(
            service, "POST", "/v1/request",
            body=json.dumps(
                {"kind": "digest", "payload": {}}
            ).encode(),
            headers={REQUEST_ID_HEADER: "my-id-1"},
        )
        assert status == 200
        assert headers["X-Request-Id"] == "my-id-1"
        assert json.loads(body)["request_id"] == "my-id-1"


class TestAuth:
    @pytest.fixture()
    def locked(self):
        svc = serve_cluster(nodes=1, auth_tokens=["sesame"])
        yield svc
        svc.stop()

    def test_wrong_token_is_401_not_retryable(self, locked):
        with HttpClusterClient(
            "127.0.0.1", locked.port, token="wrong", attempts=1
        ) as client:
            response = client.put(b"k", b"v")
        assert not response.ok
        assert not response.retryable
        assert "token" in response.error

    def test_missing_token_is_401_on_stats_too(self, locked):
        status, _headers, _body = _raw(locked, "GET", "/v1/stats")
        assert status == 401
        # The Prometheus form of the same route is admitted the same way.
        status, _headers, _body = _raw(
            locked, "GET", "/v1/stats", headers={"Accept": "text/plain"}
        )
        assert status == 401
        # ...but liveness stays open: probes never need credentials.
        assert _raw(locked, "GET", "/healthz")[0] == 200

    def test_right_token_admits(self, locked):
        with HttpClusterClient(
            "127.0.0.1", locked.port, token="sesame", attempts=1
        ) as client:
            assert client.put(b"k", b"v").ok
            assert client.get(b"k").result == b"v"


class TestRateLimit:
    def test_burst_exhaustion_is_429_with_retry_after(self):
        svc = serve_cluster(nodes=1, rate=0.5, burst=2)
        try:
            with HttpClusterClient(
                "127.0.0.1", svc.port, attempts=1
            ) as client:
                assert client.put(b"a", b"1").ok
                assert client.put(b"b", b"2").ok
                with pytest.raises(RateLimitedError) as info:
                    client.put(b"c", b"3")
            assert info.value.retry_after > 0
            # The subclassing contract: a retry loop written for
            # overload errors handles rate limiting unchanged.
            assert isinstance(info.value, ClusterOverloadedError)
            counters = svc.cluster.stats()["counters"]
            assert counters["serve.ratelimit.limited"] >= 1
        finally:
            svc.stop()

    def test_429_carries_integer_retry_after_header(self):
        svc = serve_cluster(nodes=1, rate=0.1, burst=1)
        try:
            body = json.dumps({"kind": "digest", "payload": {}}).encode()
            assert _raw(svc, "POST", "/v1/request", body=body)[0] == 200
            status, headers, raw = _raw(svc, "POST", "/v1/request", body=body)
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            reply = json.loads(raw)
            assert reply["retryable"] is True
            assert reply["retry_after"] > 0
            assert "overloaded" not in reply
        finally:
            svc.stop()


class TestOverloadOnTheWire:
    def test_retry_after_survives_wire_and_drives_client_backoff(
        self, service
    ):
        # The satellite regression: the queue's suggested backoff must
        # reach the remote retry loop bit-exact.  Overload is injected
        # deterministically at the submit seam; the client's sleep is
        # a recorder.
        marker = ClusterOverloadedError(
            depth=7, capacity=4, retry_after=0.1234
        )

        def rejecting_submit(request, timeout=10.0):
            raise marker

        service.cluster.submit = rejecting_submit
        sleeps = []
        client = HttpClusterClient(
            "127.0.0.1", service.port,
            attempts=3, backoff=1e-9, sleep=sleeps.append,
        )
        with client:
            with pytest.raises(ClusterOverloadedError) as info:
                client.put(b"k", b"v")
        # The wire round-trip preserved the server's numbers...
        assert info.value.retry_after == pytest.approx(0.1234)
        assert info.value.depth == 7
        assert info.value.capacity == 4
        # ...and the injected sleep proves the retry loop honored the
        # suggested value over its own (tiny) exponential schedule.
        assert len(sleeps) == 2
        for slept in sleeps:
            assert slept == pytest.approx(0.1234)
        assert client.stats.rejected_overload == 3

    def test_overload_maps_to_429_with_headers(self, service):
        def rejecting_submit(request, timeout=10.0):
            raise ClusterOverloadedError(
                depth=9, capacity=4, retry_after=0.5
            )

        service.cluster.submit = rejecting_submit
        status, headers, raw = _raw(
            service, "POST", "/v1/request",
            body=json.dumps({"kind": "digest", "payload": {}}).encode(),
        )
        assert status == 429
        assert int(headers["Retry-After"]) == 1
        reply = json.loads(raw)
        assert reply["overloaded"] is True
        assert reply["depth"] == 9
        assert reply["retry_after"] == pytest.approx(0.5)

    def test_shed_response_maps_to_503_with_backoff(self, service):
        def shedding_submit(request, timeout=10.0):
            return Response(
                ok=False, error="shed after deadline", retryable=True
            )

        service.cluster.submit = shedding_submit
        status, headers, raw = _raw(
            service, "POST", "/v1/request",
            body=json.dumps({"kind": "get", "payload": {}}).encode(),
        )
        assert status == 503
        assert int(headers["Retry-After"]) >= 1
        reply = json.loads(raw)
        assert reply["retryable"] is True
        # The queue's live suggestion was stamped onto the shed frame.
        assert reply["retry_after"] > 0

    def test_stopped_cluster_maps_to_503_stopped(self, service):
        def stopped_submit(request, timeout=10.0):
            raise ClusterStoppedError("stopping")

        service.cluster.submit = stopped_submit
        with HttpClusterClient(
            "127.0.0.1", service.port, attempts=1
        ) as client:
            with pytest.raises(ClusterStoppedError):
                client.put(b"k", b"v")

    def test_timeout_maps_to_504(self, service):
        def slow_submit(request, timeout=10.0):
            raise TimeoutError("no processor node answered in time")

        service.cluster.submit = slow_submit
        with HttpClusterClient(
            "127.0.0.1", service.port, attempts=1
        ) as client:
            with pytest.raises(TimeoutError):
                client.put(b"k", b"v")


class TestOverloadForReal:
    def test_exactly_once_accounting_through_the_socket(self):
        # Genuine saturation: tiny queue, slowed handlers, concurrent
        # client threads over real connections.  Whatever mix of 200 /
        # 429 / 503 comes back, every accepted envelope is accounted
        # for exactly once.
        svc = serve_cluster(
            nodes=2, queue_capacity=2, overload_window=0.0,
        )
        for node in svc.cluster.nodes:
            node.handler = _SlowHandler(node.handler, 0.005)
        outcomes = {"ok": 0, "overload": 0, "shed": 0, "timeout": 0}
        lock = threading.Lock()

        def worker(worker_id):
            with HttpClusterClient(
                "127.0.0.1", svc.port, attempts=1, timeout=0.05
            ) as client:
                for i in range(6):
                    try:
                        response = client.put(
                            b"ld:%d:%d" % (worker_id, i), b"v"
                        )
                    except ClusterOverloadedError:
                        key = "overload"
                    except TimeoutError:
                        key = "timeout"
                    else:
                        key = (
                            "ok" if response.ok
                            else "shed" if response.retryable
                            else "timeout"
                        )
                    with lock:
                        outcomes[key] += 1

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        svc.stop()
        counters = svc.cluster.stats()["counters"]
        submitted = counters.get("queue.submitted", 0)
        processed = counters.get("node.processed", 0)
        shed = counters.get("queue.shed", 0)
        failed = counters.get("cluster.failed_on_stop", 0)
        assert submitted == processed + shed + failed
        assert sum(outcomes.values()) == 36
        assert outcomes["ok"] > 0
        # The point of the run: the edge actually pushed back.
        assert outcomes["overload"] + outcomes["shed"] > 0


class TestTracing:
    def test_each_http_request_yields_one_parented_trace(
        self, service, client
    ):
        assert client.put(b"traced", b"v").ok
        traces = [
            trace for trace in service.cluster.metrics.flight.recent()
            if trace.root.name == "http.request"
        ]
        assert len(traces) == 1
        trace = traces[0]
        assert trace.root.attributes["kind"] == "put"
        assert trace.root.attributes["http_status"] == 200
        assert trace.root.attributes["request_id"]
        children = [
            span.name for span in trace.children_of(trace.root)
        ]
        # The cluster's own client.submit span parented under the HTTP
        # span via the handler thread's active-span stack: one
        # complete socket-to-storage tree per request.
        assert "client.submit" in children

    def test_stats_route_is_traced_too(self, service, client):
        client.transport.stats()
        kinds = [
            trace.root.attributes.get("kind")
            for trace in service.cluster.metrics.flight.recent()
            if trace.root.name == "http.request"
        ]
        assert "stats" in kinds
