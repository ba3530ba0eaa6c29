"""The network service plane: a real front end over the cluster.

The paper pitches Spitz as a *cloud database service* whose clients
verify proofs remotely; everything below this package is still
in-process threads around the global message queue.  ``repro.serve``
puts a socket in front of it:

- :mod:`repro.serve.codec` — the JSON wire format shared by the HTTP
  server, the HTTP client, and the CLI's ``--json`` outputs (bytes,
  digests and proofs are base64-framed; decoding a served proof yields
  the same object the in-process path produces, so client-side
  verification works unchanged over the wire);
- :mod:`repro.serve.ratelimit` — per-client token buckets with an
  injectable clock;
- :mod:`repro.serve.server` — a threaded stdlib HTTP/1.1 server over
  :class:`~repro.core.node.SpitzCluster`: one endpoint per concern
  (``/healthz``, ``/readyz``, ``/metrics``, ``/v1/stats``,
  ``/v1/digest``, ``POST /v1/request``).  Every ``/v1/*`` request is
  admitted by one function (request id, auth token, rate limit) and
  answered through one traced path, so nothing unauthorized or over
  budget touches the cluster, and admission-control rejections and
  deadline sheds map to 429/503 + ``Retry-After`` *at the socket
  edge*;
- :mod:`repro.serve.client` — an HTTP transport plugged into the
  existing :class:`~repro.core.client.ClusterClient` retry loop, so
  in-process and over-the-wire callers back off identically;
- :mod:`repro.serve.loadgen` — a multi-process load generator that
  drives the server from *separate processes* and reports sustained
  RPS, p50/p99 latency and the rejected/shed split.
"""

from repro.serve.client import HttpClusterClient, HttpTransport
from repro.serve.codec import (
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    to_jsonable,
)
from repro.serve.loadgen import LoadReport, run_load
from repro.serve.ratelimit import RateLimiter, TokenBucket
from repro.serve.server import SpitzHTTPServer, serve_cluster

__all__ = [
    "HttpClusterClient",
    "HttpTransport",
    "LoadReport",
    "RateLimiter",
    "SpitzHTTPServer",
    "TokenBucket",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "run_load",
    "serve_cluster",
    "to_jsonable",
]
