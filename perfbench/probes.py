"""Counting and timing wrappers around each layer's public functions.

End-to-end numbers are taken with nothing installed.  The count pass
installs :class:`CountRecorder` wrappers (calls and bytes, no clock);
the traced pass installs :class:`SpanRecorder` wrappers (one span per
call: layer, start, end, id, parent, op).  Both are installed by
:class:`Probes` from this file and removed again afterwards; nothing
under ``src/`` knows about them.

A layer's self-time is its span minus the spans it caused.  Two
boundaries need help to find the causing span: the request hops from
the HTTP handler thread to a processor-node thread inside
``SpitzCluster.submit`` (that span is a *bridge*: spans opening on a
thread with an empty stack parent under it), and from the client
process to the server process (the client sends its op number as
``X-Request-Id``; the server's outermost span of that op parents under
the client's round-trip span when the two span sets are merged).
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: (layer, module, class or "" for a module-level function, attribute).
#: ``SpitzDatabase._commit`` is the one private name: ``db.put`` never
#: reaches ``Transaction.commit``; ``_commit`` is the function the
#: source's own ``txn.commit`` stage brackets (commit lock, cell store,
#: primary index, MVCC install, commit hooks).
SITES: List[Tuple[str, str, str, str]] = [
    ("serve.client", "repro.serve.client", "HttpTransport", "submit"),
    ("serve.codec.client", "repro.serve.codec", "", "encode_request"),
    ("serve.codec.client", "repro.serve.codec", "", "decode_response"),
    ("serve.codec.server", "repro.serve.codec", "", "decode_request"),
    ("serve.codec.server", "repro.serve.codec", "", "encode_response"),
    ("core.node", "repro.core.node", "SpitzCluster", "submit"),
    ("core.request_handler", "repro.core.request_handler", "RequestHandler", "handle"),
    ("core.database.read", "repro.core.database", "SpitzDatabase", "get_verified"),
    ("core.database.read", "repro.core.database", "SpitzDatabase", "get_many_verified"),
    ("core.database.read", "repro.core.database", "SpitzDatabase", "scan_verified"),
    ("core.database.write", "repro.core.database", "SpitzDatabase", "put"),
    ("core.database.write", "repro.core.database", "SpitzDatabase", "put_with_proof"),
    ("txn.commit", "repro.core.database", "SpitzDatabase", "_commit"),
    ("core.ledger.prove", "repro.core.ledger", "SpitzLedger", "get_with_proof"),
    ("core.ledger.prove", "repro.core.ledger", "SpitzLedger", "get_many_with_proof"),
    ("core.ledger.prove", "repro.core.ledger", "SpitzLedger", "scan_with_proof"),
    ("core.ledger.append", "repro.core.ledger", "SpitzLedger", "append_block"),
    ("indexes.pos_tree.lookup", "repro.indexes.pos_tree", "PosTree", "get_with_proof"),
    ("indexes.pos_tree.lookup", "repro.indexes.pos_tree", "PosTree", "get_many_with_proof"),
    ("indexes.pos_tree.lookup", "repro.indexes.pos_tree", "PosTree", "scan_with_proof"),
    ("indexes.pos_tree.apply", "repro.indexes.pos_tree", "PosTree", "apply"),
    ("indexes.siri.codec", "repro.indexes.siri", "", "encode_node"),
    ("indexes.siri.codec", "repro.indexes.siri", "", "decode_node"),
    ("forkbase.chunk_store.put", "repro.forkbase.chunk_store", "ChunkStore", "put"),
    ("forkbase.chunk_store.get", "repro.forkbase.chunk_store", "ChunkStore", "get"),
    ("core.verifier", "repro.core.verifier", "ClientVerifier", "observe"),
    ("core.verifier", "repro.core.verifier", "ClientVerifier", "verify"),
    ("durability.wal.append", "repro.durability.wal", "WriteAheadLog", "append"),
    ("durability.wal.fsync", "repro.durability.wal", "WriteAheadLog", "sync"),
]
BRIDGE = "core.node"
EDGE = "serve.server.edge"
CLIENT_ROUND_TRIP = "serve.client"
ROOT = "bench.driver"
HASHING = "crypto.hashing"
#: Modules whose ``json`` does the wire framing, and the layer it counts as.
JSON_USERS = {
    "repro.serve.client": "serve.codec.client",
    "repro.serve.server": "serve.codec.server",
}


class Span(NamedTuple):
    layer: str
    start: int
    end: int
    id: int
    parent: Optional[int]
    op: Optional[int]


class CountRecorder:
    """Calls per layer, plus bytes where a ``size`` function is given."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.bytes: Counter = Counter()
        #: Written by the edge wrapper, as on a SpanRecorder; not read.
        self.op: Optional[int] = None

    def wrap(self, fn: Callable, layer: str, size: Optional[Callable] = None):
        calls, sizes = self.calls, self.bytes

        def counted(*args, **kwargs):
            calls[layer] += 1
            result = fn(*args, **kwargs)
            if size is not None:
                sizes[layer] += size(args, result)
            return result

        return counted

    def report(self) -> Dict[str, Dict[str, int]]:
        return {"calls": dict(self.calls), "bytes": dict(self.bytes)}


class SpanRecorder:
    """One span per wrapped call, kept in memory until read out.

    ``sign`` keeps span ids of the two processes apart (the server
    counts down from -1).
    """

    def __init__(self, sign: int = 1) -> None:
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self._ids = (sign * n for n in itertools.count(1))
        self._local = threading.local()
        self._bridge: Optional[int] = None
        self._root: Optional[int] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, layer: str, size: Optional[Callable] = None):
        spans, clock = self.spans, time.perf_counter_ns
        bridge = layer == BRIDGE

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else self._bridge
            if bridge:
                self._bridge = span_id
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if bridge:
                    self._bridge = None
                spans.append(Span(layer, start, end, span_id, parent, self.op))

        return traced

    def begin_op(self, op: int) -> None:
        """Open the op's root span on the calling thread."""
        self.op = op
        self._root = next(self._ids)
        self._stack().append(self._root)

    def end_op(self, start: int, end: int) -> None:
        """Close the root span over the op's measured latency window."""
        self._stack().pop()
        self.spans.append(Span(ROOT, start, end, self._root, None, self.op))
        self.op = None


class _JsonProxy:
    """Stands in for the ``json`` module inside one ``repro.serve`` module."""

    def __init__(self, recorder, layer: str):
        self.dumps = recorder.wrap(
            json.dumps, layer, size=lambda args, result: len(result)
        )
        self.loads = recorder.wrap(
            json.loads, layer, size=lambda args, result: len(args[0])
        )

    def __getattr__(self, name: str):
        return getattr(json, name)


class Probes:
    """Installs ``recorder``'s wrappers; :meth:`remove` restores everything.

    ``service`` is the server process's ``ClusterService``: its edge
    function is bound to the stdlib server object at construction, so
    it is wrapped on that object.
    """

    def __init__(self, recorder, service=None):
        self._undo: List[Tuple[object, str, object]] = []
        counting = isinstance(recorder, CountRecorder)
        for layer, module_name, owner_name, attr in SITES:
            module = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(module, owner_name)
                self._set(owner, attr, recorder.wrap(owner.__dict__[attr], layer))
            else:
                self._wrap_function(getattr(module, attr), attr, recorder, layer)
        for module_name, layer in JSON_USERS.items():
            module = importlib.import_module(module_name)
            self._set(module, "json", _JsonProxy(recorder, layer))
        if counting:
            # Counted only: a timer around a ~1 us call would distort it,
            # so hash time stays in the caller's self-time.
            from repro.crypto.hashing import hash_bytes

            self._wrap_function(
                hash_bytes, "hash_bytes", recorder, HASHING,
                size=lambda args, result: len(args[0]),
            )
        else:
            self._send_op_number(recorder)
        if service is not None:
            self._wrap_edge(service.server._httpd, recorder)

    def _set(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap_function(self, original, attr, recorder, layer, size=None):
        """Rebind ``original`` in every ``repro`` module that imported it."""
        wrapped = recorder.wrap(original, layer, size=size)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and (
                getattr(module, attr, None) is original
            ):
                self._set(module, attr, wrapped)

    def _send_op_number(self, recorder) -> None:
        from repro.serve.client import HttpTransport

        plain = HttpTransport._headers

        def headers(transport):
            result = plain(transport)
            result["X-Request-Id"] = str(recorder.op)
            return result

        self._set(HttpTransport, "_headers", headers)

    def _wrap_edge(self, httpd, recorder) -> None:
        inner = recorder.wrap(httpd.handle_request_route, EDGE)

        def edge(handler, context, body):
            sent = context.headers.get("x-request-id", "")
            recorder.op = int(sent) if sent.isdigit() else None
            return inner(handler, context, body)

        self._set(httpd, "handle_request_route", edge)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _waiting_window(parent: Span, children: List[Span]) -> Tuple[int, int]:
    """The longest stretch of ``parent`` none of ``children`` covers."""
    edges = [parent.start]
    for child in sorted(children, key=lambda span: span.start):
        edges += [child.start, child.end]
    edges.append(parent.end)
    return max(
        zip(edges[::2], edges[1::2]), key=lambda gap: gap[1] - gap[0]
    )


def self_times(
    driver_spans: List[Span], server_spans: List[Span] = ()
) -> Tuple[Dict[int, Dict[str, int]], Dict[int, int]]:
    """Per op: self-nanoseconds by layer, and the client round trip.

    A server span without a parent is the outermost span of its op on
    that side; it parents under the client's round-trip span of the
    same op, so server layers appear once and the round trip keeps only
    what neither end's codec nor the server accounts for.  Both
    processes read ``CLOCK_MONOTONIC``, so their spans share a time
    axis: the server's outermost span counts against the round trip
    only where the client was actually waiting (between its request
    encode and its response decode), and the rest of it counts for
    nothing: the server closes that span after the reply is on the
    wire, and on a shared CPU the client may finish decoding before the
    server gets to run again.  So an op's self-times sum to its latency.
    """
    round_trip = {
        span.op: span
        for span in driver_spans
        if span.layer == CLIENT_ROUND_TRIP
    }
    own: Dict[int, int] = {}
    for span in itertools.chain(driver_spans, server_spans):
        own[span.id] = span.end - span.start
    children = defaultdict(list)
    for span in driver_spans:
        if span.parent in own:
            own[span.parent] -= span.end - span.start
            children[span.parent].append(span)
    for span in server_spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
        elif span.op in round_trip:
            parent = round_trip[span.op]
            low, high = _waiting_window(parent, children[parent.id])
            waited = max(0, min(span.end, high) - max(span.start, low))
            own[parent.id] -= waited
            # What the server did outside the window delayed nobody.
            own[span.id] -= (span.end - span.start) - waited
    by_op: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    round_trips: Dict[int, int] = {}
    for span in itertools.chain(driver_spans, server_spans):
        if span.op is None:
            continue
        by_op[span.op][span.layer] += own[span.id]
        if span.layer == CLIENT_ROUND_TRIP:
            round_trips[span.op] = span.end - span.start
    return by_op, round_trips
