"""Client-side verification.

"Clients can use the digest of the ledger to perform verification
locally ... recalculate the digest with the received proof and compare
it with the previous digest saved locally" (Section 5.3).  The
verifier below is that client: it pins the most recent trusted ledger
digest and checks each proof against it as it arrives; the deferred
(batched) write verification of the same section is
:class:`VerifiedWriter`.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TamperDetectedError, VerificationError
from repro.core.ledger import LedgerDigest
from repro.indexes.siri import NodeCache
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY


class ClientVerifier:
    """A client's local trust anchor.

    Counters (``checks``/``detections``/``cache_hits``/``cache_misses``)
    count every proof :meth:`verify` checks.

    Fork detection: :meth:`observe` rejects not only digests *behind*
    the trusted height but also **same-height digests whose chain
    digest or index root differ** (an equal-height fork was previously
    adopted silently), and :meth:`advance` checks the offered
    ``tree_root`` against the trusted digest even when the extension
    is empty (an empty extension previously bypassed the index-root
    comparison entirely).
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self._trusted: Optional[LedgerDigest] = None
        # Content-addressed memoization across proofs: a node whose
        # bytes hashed to its address once never needs re-hashing, and
        # a block header whose chain link was recomputed once stays
        # valid.  This is what makes verification of consecutive reads
        # cheap (they share the ledger index's upper levels).  Both hold
        # what the trusted digest reaches (see :meth:`_adopt`).
        self._node_cache = NodeCache()
        self._block_cache: set = set()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._c_checks = self.metrics.counter("verifier.checks")
        self._c_detections = self.metrics.counter("verifier.detections")
        self._c_cache_hits = self.metrics.counter("verifier.cache_hits")
        self._c_cache_misses = self.metrics.counter(
            "verifier.cache_misses"
        )
        self.checks = 0
        self.detections = 0
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def trusted_digest(self) -> Optional[LedgerDigest]:
        return self._trusted

    def trust(self, digest: LedgerDigest) -> None:
        """Adopt a digest as trusted (first contact / out-of-band)."""
        self._adopt(digest)

    def _adopt(self, digest: LedgerDigest) -> None:
        """Trust ``digest``.  An anchor matches the trusted digest only,
        so when it changes no header sealed and no root walked under the
        old one can be hit again: the block cache empties (a sharded
        digest recomputes each shard's header once per change) and the
        node cache starts a new root set."""
        if digest != self._trusted:
            self._block_cache.clear()
            self._node_cache.roots.clear()
        self._trusted = digest

    def observe(self, digest: LedgerDigest) -> None:
        """Advance the trusted digest after a successful interaction.

        Refuses to move backwards: a server presenting an older digest
        than one already trusted is reporting a forked or truncated
        ledger.  A digest at the *same* height must match the trusted
        one exactly — equal height with a different chain digest or
        index root is a fork, not progress.  Forward moves are
        accepted on faith here; use :meth:`advance` with an extension
        proof when the link between the old and new digests must
        itself be verified.
        """
        if (
            self._trusted is not None
            and digest.__class__ is not self._trusted.__class__
        ):
            # A single-ledger digest offered where a sharded one is
            # pinned (or vice versa) is not progress on the same
            # ledger; heights of different digest kinds are not
            # comparable, so treat the swap as a fork attempt.
            self._record_detection()
            raise TamperDetectedError(
                f"digest kind changed: trusted "
                f"{self._trusted.__class__.__name__}, offered "
                f"{digest.__class__.__name__}"
            )
        if self._trusted is not None and digest.height < self._trusted.height:
            self._record_detection()
            raise TamperDetectedError(
                f"ledger went backwards: trusted height "
                f"{self._trusted.height}, offered {digest.height}"
            )
        if (
            self._trusted is not None
            and digest.height == self._trusted.height
            and (
                digest.chain_digest != self._trusted.chain_digest
                or digest.tree_root != self._trusted.tree_root
            )
        ):
            self._record_detection()
            raise TamperDetectedError(
                f"forked ledger at height {digest.height}: offered "
                "digest disagrees with the trusted one"
            )
        self._adopt(digest)

    def advance(self, digest: LedgerDigest, extension) -> None:
        """Verify that ``digest`` extends the trusted digest, then adopt.

        ``extension`` is the server-supplied list of block witnesses
        from the trusted height up to ``digest.height`` (see
        :meth:`~repro.core.ledger.SpitzLedger.extension_proof`).  The
        chain is replayed link by link from the trusted chain digest;
        any reordering, substitution or truncation breaks a link.
        This is the chain analogue of a Merkle consistency proof.
        """
        if self._trusted is None:
            raise VerificationError(
                "no trusted digest: call trust() first"
            )
        if digest.height < self._trusted.height:
            self._record_detection()
            raise TamperDetectedError("ledger went backwards")
        if len(extension) != digest.height - self._trusted.height:
            self._record_detection()
            raise TamperDetectedError(
                f"extension has {len(extension)} blocks, expected "
                f"{digest.height - self._trusted.height}"
            )
        running = self._trusted.chain_digest
        for witness in extension:
            if witness.previous_chain_digest != running:
                self._record_detection()
                raise TamperDetectedError(
                    f"extension breaks at block #{witness.height}: "
                    "does not chain from the trusted digest"
                )
            if not witness.seals():
                self._record_detection()
                raise TamperDetectedError(
                    f"extension block #{witness.height} has an "
                    "inconsistent chain digest"
                )
            running = witness.chain_digest
        if running != digest.chain_digest:
            self._record_detection()
            raise TamperDetectedError(
                "extension does not reach the offered digest"
            )
        if extension:
            if extension[-1].tree_root != digest.tree_root:
                self._record_detection()
                raise TamperDetectedError(
                    "offered digest's index root does not match the "
                    "last extension block"
                )
        elif digest.tree_root != self._trusted.tree_root:
            # Empty extension means same height and (chain-checked
            # above) same history — the index root must not change.
            self._record_detection()
            raise TamperDetectedError(
                "offered digest forges the index root at the trusted "
                "height"
            )
        self._adopt(digest)

    # -- verification ---------------------------------------------------------

    def verify(self, proof) -> bool:
        """Check ``proof`` against the trusted digest.

        ``proof`` is anything answering the proof protocol
        (:mod:`repro.core.proofs`): ``verify(trusted, node_cache,
        block_cache)``, ``cacheable_nodes``, ``label``, ``size_bytes``.
        Each of the proof's nodes counts as a cache hit or a miss; the
        node cache is swept after the count.
        """
        if self._trusted is None:
            raise VerificationError(
                "no trusted digest: call trust()/observe() first"
            )
        self.checks += 1
        self._c_checks.inc()
        nodes_before = len(self._node_cache)
        with self.metrics.tracer.stage_in_trace("verifier.verify"):
            ok = proof.verify(
                self._trusted.chain_digest,
                self._node_cache,
                self._block_cache,
            )
        misses = len(self._node_cache) - nodes_before
        hits = max(len(proof.cacheable_nodes) - misses, 0)
        self.cache_hits += hits
        self.cache_misses += misses
        self._c_cache_hits.inc(hits)
        self._c_cache_misses.inc(misses)
        self._node_cache.sweep()
        if not ok:
            self._record_detection()
        return ok

    def verify_or_raise(self, proof) -> None:
        """Like :meth:`verify` but raises on failure."""
        if not self.verify(proof):
            raise TamperDetectedError(
                f"proof failed verification: {proof.label}"
            )

    # -- counter plumbing -----------------------------------------------------

    def _record_detection(self) -> None:
        self.detections += 1
        self._c_detections.inc()


class VerifiedWriter:
    """The deferred write-verification client of Section 5.3.

    "To improve verification throughput, we use a deferred scheme,
    which means the transactions are verified asynchronously in
    batch."  Writes go through immediately; every ``batch_size``
    writes the writer seals the pending ledger block, fetches one
    proof per written key against the *current* digest, and verifies
    them all (sharing the index's upper levels through the verifier's
    node cache).

    Detection latency is bounded by the batch size — the trade-off
    the paper accepts for throughput, measured in
    ``bench_ablation_deferred``.
    """

    def __init__(self, db, verifier: "ClientVerifier", batch_size: int = 16):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self._db = db
        self._verifier = verifier
        self._batch_size = batch_size
        self._pending_keys = []
        self.writes = 0
        self.batches = 0

    def put(self, key: bytes, value: bytes) -> None:
        """Write now; proof verification is deferred to the batch."""
        self._db.put(key, value)
        self._pending_keys.append(key)
        self.writes += 1
        if len(self._pending_keys) >= self._batch_size:
            self.flush()

    def flush(self) -> None:
        """Verify every pending write against the current digest."""
        if not self._pending_keys:
            return
        self._verifier.observe(self._db.digest())
        for key in self._pending_keys:
            _value, proof = self._db.get_verified(key)
            self._verifier.verify_or_raise(proof)
        self._pending_keys = []
        self.batches += 1
