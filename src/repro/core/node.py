"""Processor nodes and the global message queue.

"The control layer consists of multiple processor nodes that accept
and process requests from a global message queue.  Each node has three
main components: a request handler, an auditor, and a transaction
manager" (Section 5).  Here a node is its request handler: the
auditor's role — check a write set and seal it into the ledger, fetch
the proofs a read returns — is the shared database's one commit
function (``SpitzDatabase._commit_locked``, which installs every
committed write set: auto-commit, transaction and WAL replay alike) and
the ledger's ``*_with_proof`` reads, and the transaction manager is the
shared database's too.  A
master node coordinates (footnote 1); here the master is
:class:`SpitzCluster`, which owns the shared storage layer and the
queue and runs each processor in a thread.

Request-loss discipline: every envelope that enters the queue is
*always* completed — with a real response, an error response, a
deadline-shed response, or a ``cluster stopped`` failure — so a client
blocked on :meth:`SpitzCluster.submit` never waits out its timeout
because of a server-side shutdown or crash.  Shutdown is orderly: the
queue closes (new submissions fail fast with
:class:`~repro.errors.ClusterStoppedError`), one poison pill per node
unblocks the serve loops, and anything still queued is drained and
failed explicitly.

Admission discipline (the back-pressure half of the same invariant):
the queue is the cluster's single admission point, so it is also where
overload is decided.  With a ``capacity`` configured, a queue whose
depth has exceeded it for a sustained window rejects new submissions
fast with a retryable :class:`~repro.errors.ClusterOverloadedError`
instead of letting every client block out its timeout.  Envelopes
carry their client's deadline; a node that dequeues an already-expired
envelope *sheds* it — completes it immediately with a retryable error,
counted as ``queue.shed`` — rather than doing work whose answer nobody
is waiting for.  Accepted-envelope accounting therefore always
balances: processed + shed + failed-on-stop == submitted.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.core.database import SpitzDatabase
from repro.core.request_handler import Request, RequestHandler, Response
from repro.errors import ClusterOverloadedError, ClusterStoppedError
from repro.indexes.pos_tree import DEFAULT_MASK_BITS
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.timeseries import TelemetryPlane
from repro.obs.tracing import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    Span,
    Tracer,
)


#: How long past its envelope's deadline :meth:`SpitzCluster.submit`
#: keeps waiting.  A node sheds an envelope it dequeues after the
#: deadline; this grace lets that shed reply reach its client as a
#: retryable response instead of being outrun by a ``TimeoutError``.
SHED_GRACE = 0.05


@dataclass
class Envelope:
    """A request plus the completion event its client waits on.

    The envelope is also the trace-context carrier across the
    client→queue→node thread boundary: :meth:`MessageQueue.submit`
    opens the request's root ``client.submit`` span and attaches it
    (with its tracer) here, the serving node parents its ``node.serve``
    span under it, and :meth:`complete` — the single place an envelope
    is ever finished — closes the root span with the outcome status, so
    shed and errored requests leave a trace instead of vanishing.
    """

    request: Request
    response: Optional[Response] = None
    done: threading.Event = field(default_factory=threading.Event)
    #: Stamped (re-stamped, under the queue lock) at the instant the
    #: envelope actually enters the queue; the serving node measures
    #: queue wait against it.  The construction-time default only
    #: covers envelopes built outside a MessageQueue (unit tests).
    enqueued_at: float = field(default_factory=time.perf_counter)
    #: Absolute ``time.perf_counter()`` instant after which the client
    #: has stopped waiting; a node that dequeues the envelope later
    #: sheds it instead of processing it.  None = wait forever.
    deadline: Optional[float] = None
    #: Root span of this request's trace, opened by the queue at
    #: admission; None when the queue's registry is disabled.
    span: Optional[Span] = None
    #: The tracer that owns :attr:`span` (completion may happen on a
    #: node thread or the cluster's stop path, far from the queue).
    tracer: Optional[Tracer] = None

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else time.perf_counter()) > self.deadline

    def complete(self, response: Response, status: Optional[str] = None) -> None:
        """Finish the envelope exactly once: record the response, close
        the root span with the outcome status, release the client."""
        if self.done.is_set():
            return
        self.response = response
        if self.tracer is not None and self.span is not None:
            if status is None:
                status = STATUS_OK if response.ok else STATUS_ERROR
            self.tracer.finish(self.span, status=status)
        self.done.set()


class _Poison:
    """Shutdown marker: wakes a serve loop and tells it to exit."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<poison>"


_POISON = _Poison()


class MessageQueue:
    """The global queue feeding the processor nodes.

    ``close()`` rejects all later submissions; ``poison(n)`` enqueues
    ``n`` shutdown markers (one per node) behind everything already
    queued; ``drain()`` removes whatever is left so the cluster can
    fail those envelopes instead of stranding their clients.

    Admission control: with ``capacity`` set, a submit that finds the
    queue deeper than capacity starts (or continues) an overload
    window; once the queue has stayed over capacity for
    ``overload_window`` seconds, further submits are rejected fast with
    a retryable :class:`ClusterOverloadedError` until depth falls back
    under capacity.  The grace window lets momentary bursts through —
    only *sustained* overload sheds load.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        capacity: Optional[int] = None,
        overload_window: float = 0.05,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError("queue capacity must be positive")
        if overload_window < 0:
            raise ValueError("overload_window must be non-negative")
        self._queue: "queue.Queue[Union[Envelope, _Poison]]" = queue.Queue()
        self._lock = threading.Lock()
        self._closed = False
        #: Envelopes currently queued (poison pills excluded), tracked
        #: under ``self._lock`` so admission checks and the
        #: ``queue.depth`` gauge can never observe a half-applied
        #: update from an interleaved submit/take.
        self._depth = 0
        self.capacity = capacity
        self.overload_window = overload_window
        #: perf_counter instant when depth first exceeded capacity, or
        #: None while the queue is under capacity.
        self._over_since: Optional[float] = None
        self.submitted = 0
        self.rejected = 0
        self.rejected_overload = 0
        #: Expired envelopes completed-without-processing by nodes.
        self.shed = 0
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._c_submitted = self.metrics.counter("queue.submitted")
        self._c_rejected = self.metrics.counter("queue.rejected")
        self._c_rejected_overload = self.metrics.counter(
            "queue.rejected_overload"
        )
        self._c_shed = self.metrics.counter("queue.shed")
        self._g_depth = self.metrics.gauge("queue.depth")
        self.metrics.gauge("queue.capacity").set(
            capacity if capacity is not None else 0
        )

    @property
    def closed(self) -> bool:
        return self._closed

    def _suggested(self, depth: int) -> float:
        """Suggested client backoff at ``depth``.

        Grows with how far past capacity the queue is, so deeper
        saturation spreads retries out further.  Floored so a zero
        grace window still suggests a real (if tiny) pause.
        """
        pause = max(self.overload_window, 0.001)
        if self.capacity is None:
            return pause
        return pause * (1.0 + depth / self.capacity)

    def suggested_backoff(self) -> float:
        """Current suggested backoff (``retry_after``) at live depth.

        The same formula admission rejections embed; the service edge
        uses it to stamp ``Retry-After`` on responses that bypassed
        admission — e.g. envelopes shed after their deadline — so every
        retryable answer a remote client sees carries the queue's own
        estimate of when capacity will exist again.
        """
        with self._lock:
            depth = self._depth
        return self._suggested(depth)

    def _check_admission(self, now: float) -> None:
        """Reject (under ``self._lock``) on sustained overload."""
        if self.capacity is None:
            return
        depth = self._depth
        if depth < self.capacity:
            self._over_since = None
            return
        if self._over_since is None:
            self._over_since = now
        if now - self._over_since < self.overload_window:
            return  # burst grace: accept while the window is open
        self.rejected_overload += 1
        self._c_rejected_overload.inc()
        raise ClusterOverloadedError(
            depth=depth, capacity=self.capacity,
            retry_after=self._suggested(depth),
        )

    def submit(
        self, request: Request, deadline: Optional[float] = None
    ) -> Envelope:
        now = time.perf_counter()
        envelope = Envelope(request=request, deadline=deadline)
        with self._lock:
            if self._closed:
                self.rejected += 1
                self._c_rejected.inc()
                raise ClusterStoppedError(
                    "message queue is closed: the cluster is stopping"
                )
            self._check_admission(now)
            # Open the request's root span *before* the put: once the
            # envelope is visible, a node may dequeue and complete it
            # immediately, and completion closes this span.
            envelope.tracer = self.metrics.tracer
            envelope.span = envelope.tracer.start_span(
                "client.submit",
                attributes={
                    "kind": request.kind.value,
                    "verify": request.verify,
                },
            )
            self._queue.put(envelope)
            self.submitted += 1
            self._depth += 1
            # Stamped after the actual enqueue, still under the lock:
            # queue wait must not include submit-side lock contention
            # or admission-check time.
            envelope.enqueued_at = time.perf_counter()
            self._c_submitted.inc()
            self._g_depth.set(self._depth)
        return envelope

    def record_shed(self) -> None:
        """Account one expired envelope completed without processing."""
        with self._lock:
            self.shed += 1
        self._c_shed.inc()

    def take(
        self, timeout: Optional[float] = None
    ) -> Optional[Union[Envelope, _Poison]]:
        try:
            item = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        if not isinstance(item, _Poison):
            with self._lock:
                self._depth -= 1
                self._g_depth.set(self._depth)
        return item

    def close(self) -> None:
        """Reject every submission from now on (idempotent)."""
        with self._lock:
            self._closed = True

    def poison(self, count: int) -> None:
        """Enqueue shutdown markers, one per node.

        Poison bypasses the closed check: it is enqueued *after*
        :meth:`close`, behind every accepted envelope, so nodes finish
        real work first and then exit.
        """
        for _ in range(count):
            self._queue.put(_POISON)

    def requeue_poison(self) -> None:
        """Put a taken poison pill back (see ProcessorNode.serve_one).

        A consumer that takes a pill it cannot honour must return it,
        otherwise another serve loop waiting for its shutdown marker
        never gets one.
        """
        self._queue.put(_POISON)

    def drain(self) -> List[Envelope]:
        """Remove and return every queued envelope (skips poison)."""
        stranded: List[Envelope] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if not isinstance(item, _Poison):
                stranded.append(item)
        if stranded:
            with self._lock:
                self._depth -= len(stranded)
                self._g_depth.set(self._depth)
        return stranded


class ProcessorNode:
    """One control-layer node: a request handler over the shared
    database (the storage layer is common to all nodes; Section 5's
    consistency across nodes is the 2PC layer's job, exercised in
    :mod:`repro.txn.two_pc`).
    """

    def __init__(self, name: str, db: SpitzDatabase, mq: MessageQueue):
        self.name = name
        self.handler = RequestHandler(db)
        self._mq = mq
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.processed = 0
        self._metrics = db.metrics
        self._c_processed = self._metrics.counter("node.processed")
        self._h_queue_wait = self._metrics.histogram("queue.wait_seconds")

    def serve_one(self, timeout: float = 0.1) -> bool:
        """Process one queued request; True if one was handled.

        A poison pill taken here goes *back* on the queue: the pill
        belongs to a serve loop, and swallowing it would leave that
        loop (or a loop started later) without its shutdown marker.
        """
        envelope = self._mq.take(timeout=timeout)
        if envelope is None:
            return False
        if isinstance(envelope, _Poison):
            self._mq.requeue_poison()
            return False
        self._handle_envelope(envelope)
        return True

    def _tracer_for(self, envelope: Envelope) -> Tracer:
        # Envelopes submitted through a metrics-less queue still get
        # their node.serve span recorded against the node's registry
        # (as an unparented trace root the flight recorder ignores).
        tracer = envelope.tracer
        if tracer is None or not tracer.enabled:
            tracer = self._metrics.tracer
        return tracer

    def _handle_envelope(self, envelope: Envelope) -> None:
        now = time.perf_counter()
        tracer = self._tracer_for(envelope)
        if envelope.expired(now):
            # The client stopped waiting before any node picked this
            # up: shed it.  Completing the envelope (rather than
            # processing-and-dropping the answer) keeps the
            # request-loss invariant *and* skips the wasted work.
            self._mq.record_shed()
            # Per-kind shed attribution: the aggregate queue.shed says
            # load was dropped, this says *whose* (telemetry windows
            # and spitz top break sheds out by request kind).
            self._metrics.counter(
                f"queue.shed.kind.{envelope.request.kind.value}"
            ).inc()
            with tracer.span(
                "node.serve",
                parent=envelope.span,
                attributes={"node": self.name},
            ) as span:
                if span is not None:
                    span.status = STATUS_SHED
            envelope.complete(
                Response(
                    ok=False,
                    error=(
                        "request shed: its deadline expired before a "
                        "processor node dequeued it"
                    ),
                    retryable=True,
                ),
                status=STATUS_SHED,
            )
            return
        queue_wait = now - envelope.enqueued_at
        self._h_queue_wait.observe(queue_wait)
        with tracer.span(
            "node.serve",
            parent=envelope.span,
            attributes={"node": self.name, "queue_wait": queue_wait},
        ) as span:
            response = self.handler.handle(envelope.request)
            if span is not None and not response.ok:
                span.status = STATUS_ERROR
        self.processed += 1
        self._c_processed.inc()
        envelope.complete(response)

    def start(self) -> None:
        """Run the serve loop in a daemon thread."""
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._serve_loop, name=f"spitz-node-{self.name}",
            daemon=True,
        )
        self._thread.start()

    def _serve_loop(self) -> None:
        # The stop event only exits the loop when the queue is idle;
        # a poison pill exits unconditionally.  Envelopes accepted
        # before shutdown sit ahead of the poison, so they are always
        # processed rather than failed by the cluster's drain.
        while True:
            envelope = self._mq.take(timeout=0.05)
            if envelope is None:
                if self._stop.is_set():
                    break
                continue
            if isinstance(envelope, _Poison):
                break
            self._handle_envelope(envelope)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None


class SpitzCluster:
    """The master: shared storage layer + N processor nodes + queue.

    With ``durable_root`` set, the shared storage layer is opened
    through crash recovery and every commit any node seals is
    write-ahead logged (group commit via ``sync_every``); ``stop``
    syncs and closes the log (releasing the single-writer handle so
    the directory can be reopened), and :meth:`checkpoint` bounds
    replay on the next open.  Commits are serialized by the database's
    commit lock, so one WAL serves all processor threads.
    """

    def __init__(
        self,
        nodes: int = 2,
        mask_bits: int = DEFAULT_MASK_BITS,
        durable_root: Optional[str] = None,
        sync_every: int = 1,
        metrics: Optional[MetricsRegistry] = None,
        queue_capacity: Optional[int] = None,
        overload_window: float = 0.05,
        shards: int = 1,
        telemetry: bool = True,
        telemetry_clock=None,
        indexed_columns: Optional[Sequence[str]] = None,
    ):
        if nodes < 1:
            raise ValueError("need at least one processor node")
        if shards < 1:
            raise ValueError("need at least one shard")
        if indexed_columns and shards > 1:
            raise ValueError(
                "verified search is not available on a sharded cluster "
                "(postings would span shard ledgers); run with shards=1"
            )
        if shards > 1:
            # Imported here: the shard facade sits above core in the
            # layering (same pattern as the durability import below).
            from repro.shard import ShardedDatabase

            self.durable = None
            self.db = ShardedDatabase(
                num_shards=shards,
                mask_bits=mask_bits,
                metrics=metrics,
                durable_root=durable_root,
                sync_every=sync_every,
            )
        elif durable_root is not None:
            # Imported here: durability sits above core in the layering.
            from repro.durability import DurableDatabase

            self.durable: Optional[DurableDatabase] = DurableDatabase.open(
                durable_root,
                sync_every=sync_every,
                mask_bits=mask_bits,
                metrics=metrics,
            )
            self.db = self.durable.db
            if indexed_columns:
                # Logged like a commit, so replay re-enables it where it
                # happened; on a reopen it is already on and this is a
                # no-op.
                self.db.enable_search(indexed_columns)
        else:
            self.durable = None
            self.db = SpitzDatabase(
                mask_bits=mask_bits,
                metrics=metrics,
                indexed_columns=indexed_columns,
            )
        self.metrics = self.db.metrics
        self.queue = MessageQueue(
            metrics=self.metrics,
            capacity=queue_capacity,
            overload_window=overload_window,
        )
        self.nodes: List[ProcessorNode] = [
            ProcessorNode(f"p{i}", self.db, self.queue)
            for i in range(nodes)
        ]
        # The time-series telemetry plane (DESIGN.md §6h): a background
        # ticker samples the shared registry once per slot, giving the
        # service plane windowed rates, percentiles, and SLO burn
        # health.  Disabled entirely when the registry is disabled (the
        # plane would only ever sample a null registry); a test-injected
        # clock puts it in manual mode (no thread, tests call tick()).
        self.telemetry: Optional[TelemetryPlane] = None
        if telemetry and self.metrics.enabled:
            self.telemetry = TelemetryPlane(
                self.metrics, clock=telemetry_clock
            )

    def checkpoint(self):
        """Durable mode only: snapshot state and truncate the WAL."""
        if self.durable is not None:
            return self.durable.checkpoint()
        if getattr(self.db, "_durables", None):
            return self.db.checkpoint()
        raise RuntimeError("cluster is not running in durable mode")

    def start(self) -> None:
        for node in self.nodes:
            node.start()
        if self.telemetry is not None:
            self.telemetry.start()

    def stop(self) -> None:
        """Stop the nodes; drain-or-fail everything still queued.

        Sequence: close the queue (new submissions now raise
        :class:`ClusterStoppedError`), poison one pill per node so the
        serve loops process every already-accepted envelope and then
        exit, join the threads, and fail whatever is left in the queue
        (e.g. when the nodes were never started or died) so no client
        blocks until its submit timeout.  In durable mode the WAL is
        then synced and closed.  Idempotent, and identical to
        :meth:`close`.
        """
        if self.telemetry is not None:
            self.telemetry.stop()
        self.queue.close()
        self.queue.poison(len(self.nodes))
        for node in self.nodes:
            node.stop()
        stranded = self.queue.drain()
        for envelope in stranded:
            envelope.complete(
                Response(
                    ok=False,
                    error="cluster stopped before the request was processed",
                )
            )
        if stranded:
            self.metrics.counter("cluster.failed_on_stop").inc(
                len(stranded)
            )
        if self.durable is not None:
            self.durable.close()
        elif hasattr(self.db, "close"):
            # Sharded facade: releases per-shard WAL handles (no-op for
            # in-memory shards).
            self.db.close()

    def close(self) -> None:
        """Alias of :meth:`stop` (kept for context-manager symmetry)."""
        self.stop()

    def submit(self, request: Request, timeout: float = 10.0) -> Response:
        """Send a request through the queue and await its response.

        The timeout doubles as the envelope's deadline: if no node has
        dequeued the request by then, whichever node eventually takes
        it sheds it instead of processing work this (timed-out) caller
        will never see; the caller waits :data:`SHED_GRACE` longer to
        receive that shed.  Raises :class:`ClusterOverloadedError` fast
        on sustained queue saturation and :class:`ClusterStoppedError`
        after shutdown — both retryable without side effects.
        """
        deadline = time.perf_counter() + timeout
        envelope = self.queue.submit(request, deadline=deadline)
        if not envelope.done.wait(timeout=timeout + SHED_GRACE):
            raise TimeoutError("no processor node answered in time")
        assert envelope.response is not None
        return envelope.response

    def stats(self) -> dict:
        """The shared registry's snapshot (same payload as a
        ``RequestKind.STATS`` request answered by any node)."""
        return self.db.metrics_snapshot()
