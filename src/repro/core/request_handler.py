"""The request handler component and the request/response envelope.

"The request handler accepts query requests and returns the results
with the corresponding proofs" (Section 5).  Requests arrive from the
global message queue; each is a small typed envelope so the simulated
network layer (:mod:`repro.integration.simnet`) can serialize them.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import QueryError, SpitzError
from repro.core.database import SpitzDatabase
from repro.core.ledger import LedgerDigest
from repro.core.query import SearchPredicate


class RequestKind(enum.Enum):
    GET = "get"
    #: Batch point read: ``payload["keys"]`` is a list of keys; with
    #: ``verify=True`` the response carries one
    #: :class:`~repro.core.proofs.LedgerMultiProof` for all of them.
    MULTI_GET = "multi_get"
    PUT = "put"
    DELETE = "delete"
    SCAN = "scan"
    SQL = "sql"
    HISTORY = "history"
    DIGEST = "digest"
    #: Metrics snapshot of the shared storage layer — answerable by
    #: any processor node (they all share one registry).
    STATS = "stats"
    #: Secondary-index search: ``payload["column"]`` names a table
    #: cell column, ``payload["predicate"]`` is a
    #: :meth:`~repro.core.query.SearchPredicate.to_payload` dict;
    #: with ``verify=True`` the response carries a
    #: :class:`~repro.search.proofs.SearchProof` (membership *and*
    #: completeness, DESIGN.md §6i).
    SEARCH = "search"


@dataclass(frozen=True)
class Request:
    """One client request.

    ``verify=True`` asks for proofs alongside results (the paper's
    ``*-verify`` configurations).
    """

    kind: RequestKind
    payload: Dict[str, Any] = field(default_factory=dict)
    verify: bool = False


@dataclass(frozen=True)
class Response:
    """Result + optional proof + the ledger digest at answer time."""

    ok: bool
    result: Any = None
    proof: Any = None
    digest: Optional[LedgerDigest] = None
    error: Optional[str] = None
    #: True when the failure is transient and the request had no side
    #: effects (e.g. it was shed unprocessed after its deadline), so
    #: the client may safely resubmit.  See ClusterClient.
    retryable: bool = False


class RequestHandler:
    """Dispatches requests against one node's database."""

    def __init__(self, db: SpitzDatabase):
        self._db = db
        self._metrics = db.metrics
        self._c_total = self._metrics.counter("requests.total")
        self._c_errors = self._metrics.counter("requests.errors")
        self._c_unexpected = self._metrics.counter(
            "requests.unexpected_errors"
        )
        self._h_latency = self._metrics.histogram("request.latency_seconds")
        # Per-kind instruments, pre-bound once per kind: requests.kind.X
        # (total), .ok / .errors (outcomes) and a per-kind latency
        # histogram.  These are the series the SLO evaluator windows
        # over (DESIGN.md §6h), so they must exist per kind rather than
        # only in aggregate.
        self._kind_instruments = {
            kind: (
                self._metrics.counter(f"requests.kind.{kind.value}"),
                self._metrics.counter(f"requests.kind.{kind.value}.ok"),
                self._metrics.counter(f"requests.kind.{kind.value}.errors"),
                self._metrics.histogram(
                    f"request.kind.{kind.value}.latency_seconds"
                ),
            )
            for kind in RequestKind
        }
        self.handled = 0

    def handle(self, request: Request) -> Response:
        """Execute one request; *every* exception becomes an error
        response.

        Expected failures (:class:`SpitzError`) report their message;
        anything else — e.g. a malformed payload raising ``KeyError``
        — is converted too, so a bad request can never kill a
        processor node's serve loop or leave its client waiting on an
        envelope that will never complete.
        """
        self.handled += 1
        self._c_total.inc()
        c_kind, c_ok, c_kind_errors, h_kind = (
            self._kind_instruments[request.kind]
        )
        c_kind.inc()
        start = time.perf_counter()
        try:
            with self._metrics.tracer.stage("request.handle"):
                result, proof, digest = self._dispatch_with_digest(request)
        except SpitzError as error:
            self._c_errors.inc()
            c_kind_errors.inc()
            return Response(ok=False, error=str(error))
        except Exception as error:
            self._c_errors.inc()
            self._c_unexpected.inc()
            c_kind_errors.inc()
            return Response(
                ok=False,
                error=(
                    f"malformed or unprocessable request "
                    f"({type(error).__name__}: {error})"
                ),
            )
        finally:
            elapsed = time.perf_counter() - start
            self._h_latency.observe(elapsed)
            h_kind.observe(elapsed)
        c_ok.inc()
        return Response(ok=True, result=result, proof=proof, digest=digest)

    def _dispatch_with_digest(self, request: Request):
        """Dispatch; for verified requests also capture the digest.

        Proof and digest are captured under the database's commit lock
        so they describe the *same* ledger state.  Without the lock a
        commit from another node can land between proof generation and
        digest capture, pairing an old-block proof with a new-block
        digest — the client's verification then fails spuriously even
        though nothing was tampered with.
        """
        if not request.verify:
            result, proof = self._dispatch(request)
            return result, proof, None
        lock = getattr(self._db, "commit_lock", None)
        if lock is None:
            lock = self._db.txn_manager.commit_lock
        with lock:
            result, proof = self._dispatch(request)
            # Sharded proofs embed the digest-of-digests they were
            # built against (per-shard leaves are captured atomically
            # inside the facade); re-deriving it here could pair the
            # proof with a root that moved under a concurrent write.
            digest = getattr(proof, "digest", None)
            if digest is None:
                digest = self._db.digest()
        return result, proof, digest

    def _dispatch(self, request: Request):
        payload = request.payload
        kind = request.kind
        if kind is RequestKind.GET:
            if request.verify:
                value, proof = self._db.get_verified(payload["key"])
                return value, proof
            return self._db.get(payload["key"]), None
        if kind is RequestKind.MULTI_GET:
            keys = list(payload["keys"])
            if request.verify:
                values, proof = self._db.get_many_verified(keys)
                return values, proof
            return self._db.get_many(keys), None
        if kind is RequestKind.PUT:
            if request.verify:
                block, proof = self._db.put_with_proof(
                    payload["key"], payload["value"]
                )
                return block.height, proof
            block = self._db.put(payload["key"], payload["value"])
            return block.height, None
        if kind is RequestKind.DELETE:
            block = self._db.delete(payload["key"])
            return block.height, None
        if kind is RequestKind.SCAN:
            if request.verify:
                entries, proof = self._db.scan_verified(
                    payload["low"], payload["high"]
                )
                return entries, proof
            return self._db.scan(payload["low"], payload["high"]), None
        if kind is RequestKind.SEARCH:
            column = payload["column"]
            predicate = SearchPredicate.from_payload(payload["predicate"])
            if request.verify:
                ukeys, proof = self._db.search_verified(column, predicate)
                return ukeys, proof
            return self._db.search(column, predicate), None
        if kind is RequestKind.SQL:
            return self._db.sql(payload["text"]), None
        if kind is RequestKind.HISTORY:
            return self._db.history(payload["key"]), None
        if kind is RequestKind.DIGEST:
            return self._db.digest(), None
        if kind is RequestKind.STATS:
            snapshot = self._db.metrics_snapshot()
            if payload.get("traces"):
                # Opt-in extension: the flight recorder's retained
                # traces and critical-path attribution ride along with
                # the metrics snapshot.  Opt-in keeps the default STATS
                # payload shape stable for existing consumers.
                snapshot = dict(snapshot)
                snapshot["traces"] = self._db.metrics.flight.snapshot()
            return snapshot, None
        raise QueryError(f"unsupported request kind {kind}")
