"""The non-intrusive design (Figure 3; measured in Figure 8).

An unmodified underlying database (the immutable KVS) runs beside a
*separate* ledger database (Spitz "solely waking up the auditor",
Section 5.1).  The client talks to both over the simulated network:

- **read**: fetch the value from the underlying DB (1 round trip),
  fetch the proof from the ledger DB (1 round trip), verify locally;
- **write**: stage on both systems and commit atomically — a
  coordination round on top of the two data round trips.

The extra hops and (de)serialization are exactly the overhead
Section 6.2.3 attributes the 3–6× gap to.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import IntegrationError
from repro.core.ledger import LedgerDigest, SpitzLedger
from repro.core.proofs import LedgerProof, LedgerRangeProof
from repro.core.schema import KV_PREFIX
from repro.integration.simnet import Channel
from repro.kvstore.kvs import ImmutableKVS


class _KvsServer:
    """Server side of the underlying-database channel."""

    def __init__(self) -> None:
        self.kvs = ImmutableKVS()
        self._staged: Dict[int, Tuple[bytes, bytes]] = {}
        self._next_stage = 0

    def handle(self, request: Tuple[str, tuple]) -> Any:
        op, args = request
        if op == "get":
            return self.kvs.get(args[0])
        if op == "scan":
            return self.kvs.scan(args[0], args[1])
        if op == "stage":
            self._next_stage += 1
            self._staged[self._next_stage] = (args[0], args[1])
            return self._next_stage
        if op == "commit":
            key, value = self._staged.pop(args[0])
            self.kvs.put(key, value)
            return True
        if op == "abort":
            self._staged.pop(args[0], None)
            return True
        raise IntegrationError(f"kvs server: unknown op {op!r}")


class _LedgerServer:
    """Server side of the ledger-database channel: Spitz's auditor alone,
    a :class:`SpitzLedger` with no storage or control layer around it."""

    def __init__(self) -> None:
        self.ledger = SpitzLedger()

    def handle(self, request: Tuple[str, tuple]) -> Any:
        op, args = request
        ledger = self.ledger
        if op == "append":
            key, value = args
            ledger.append_block({KV_PREFIX + key: value})
            return ledger.digest()
        if op == "prove":
            value, proof = ledger.get_with_proof(KV_PREFIX + args[0])
            return value, proof, ledger.digest()
        if op == "prove_range":
            entries, proof = ledger.scan_with_proof(
                KV_PREFIX + args[0], KV_PREFIX + args[1]
            )
            return entries, proof, ledger.digest()
        if op == "digest":
            return ledger.digest()
        raise IntegrationError(f"ledger server: unknown op {op!r}")


class NonIntrusiveVDB:
    """Client-side facade over the two remote systems.

    Idempotent operations (reads, proofs, digests) retry through
    :meth:`Channel.call_with_retry` (three attempts) — a lost message
    on either leg (request *or* response) of those calls is absorbed.  Writes are not retried: a response-leg loss
    after the server applied an append must surface, not re-execute.
    """

    def __init__(self, loss_every: int = 0):
        self._kvs_server = _KvsServer()
        self._ledger_server = _LedgerServer()
        self.kvs_channel = Channel(
            self._kvs_server.handle, loss_every=loss_every
        )
        self.ledger_channel = Channel(
            self._ledger_server.handle, loss_every=loss_every
        )

    # -- writes ------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> LedgerDigest:
        """Atomic write to both systems.

        Stage on the underlying DB, append to the ledger, then commit
        the stage — three round trips (abort the stage if the ledger
        append fails, so the two systems never diverge).
        """
        stage_id = self.kvs_channel.call(("stage", (key, value)))
        try:
            digest = self.ledger_channel.call(("append", (key, value)))
        except Exception:
            self.kvs_channel.call(("abort", (stage_id,)))
            raise
        self.kvs_channel.call(("commit", (stage_id,)))
        return digest

    # -- reads -------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Unverified read: underlying database only (1 round trip)."""
        return self.kvs_channel.call_with_retry(("get", (key,)))

    def get_verified(
        self, key: bytes
    ) -> Tuple[Optional[bytes], LedgerProof, LedgerDigest]:
        """Verified read: value from the DB, proof from the ledger.

        Returns (value, proof, ledger digest); the caller verifies
        with a :class:`~repro.core.verifier.ClientVerifier` and must
        also check that the proven value equals the returned one —
        that cross-check is what catches a tampered underlying DB.
        """
        value = self.kvs_channel.call_with_retry(("get", (key,)))
        proven_value, proof, digest = self.ledger_channel.call_with_retry(
            ("prove", (key,))
        )
        if proven_value != value:
            raise IntegrationError(
                "underlying database and ledger disagree on "
                f"{key!r}: {value!r} vs {proven_value!r}"
            )
        return value, proof, digest

    def scan(self, low: bytes, high: bytes) -> List[Tuple[bytes, bytes]]:
        return self.kvs_channel.call_with_retry(("scan", (low, high)))

    def scan_verified(
        self, low: bytes, high: bytes
    ) -> Tuple[List[Tuple[bytes, bytes]], LedgerRangeProof, LedgerDigest]:
        values = self.kvs_channel.call_with_retry(("scan", (low, high)))
        entries, proof, digest = self.ledger_channel.call_with_retry(
            ("prove_range", (low, high))
        )
        stripped = [
            (key[len(KV_PREFIX):], value) for key, value in entries
        ]
        if stripped != values:
            raise IntegrationError(
                "underlying database and ledger disagree on range "
                f"{low!r}..{high!r}"
            )
        return values, proof, digest

    def digest(self) -> LedgerDigest:
        return self.ledger_channel.call_with_retry(("digest", ()))

    # -- accounting -----------------------------------------------------------

    @property
    def round_trips(self) -> int:
        return (
            self.kvs_channel.stats.round_trips
            + self.ledger_channel.stats.round_trips
        )
