"""Unit tests for the client verifier and the deferred writer."""

import pytest

from repro.errors import TamperDetectedError, VerificationError
from repro.core.database import SpitzDatabase
from repro.core.proofs import LedgerProof
from repro.core.verifier import ClientVerifier, VerifiedWriter
from repro.indexes.siri import SiriProof


class TestClientVerifier:
    def test_requires_trusted_digest(self, loaded_db):
        verifier = ClientVerifier()
        _value, proof = loaded_db.get_verified(b"key0001")
        with pytest.raises(VerificationError):
            verifier.verify(proof)

    def test_accepts_honest_proof(self, loaded_db):
        verifier = ClientVerifier()
        verifier.trust(loaded_db.digest())
        value, proof = loaded_db.get_verified(b"key0001")
        assert value == b"value1"
        assert verifier.verify(proof)
        verifier.verify_or_raise(proof)

    def test_rejects_forged_value(self, loaded_db):
        verifier = ClientVerifier()
        verifier.trust(loaded_db.digest())
        _value, proof = loaded_db.get_verified(b"key0001")
        forged = LedgerProof(
            siri=SiriProof(
                key=proof.siri.key, value=b"evil", nodes=proof.siri.nodes
            ),
            block=proof.block,
        )
        assert not verifier.verify(forged)
        assert verifier.detections == 1
        with pytest.raises(TamperDetectedError):
            verifier.verify_or_raise(forged)

    def test_rejects_stale_proof_after_observe(self, loaded_db):
        verifier = ClientVerifier()
        verifier.trust(loaded_db.digest())
        _value, proof = loaded_db.get_verified(b"key0001")
        loaded_db.put(b"new", b"entry")
        verifier.observe(loaded_db.digest())
        assert not verifier.verify(proof)

    def test_observe_refuses_rollback(self, loaded_db):
        verifier = ClientVerifier()
        old = loaded_db.digest()
        loaded_db.put(b"x", b"y")
        verifier.observe(loaded_db.digest())
        with pytest.raises(TamperDetectedError):
            verifier.observe(old)

    def test_observe_rejects_equal_height_fork(self, loaded_db):
        """Regression: a same-height digest with a different chain
        digest or index root was adopted silently."""
        from repro.core.ledger import LedgerDigest
        from repro.crypto.hashing import hash_bytes

        verifier = ClientVerifier()
        digest = loaded_db.digest()
        verifier.trust(digest)
        forked = LedgerDigest(
            height=digest.height,
            chain_digest=hash_bytes(b"forked-chain"),
            tree_root=digest.tree_root,
        )
        with pytest.raises(TamperDetectedError):
            verifier.observe(forked)
        assert verifier.detections == 1
        assert verifier.trusted_digest == digest
        forged_root = LedgerDigest(
            height=digest.height,
            chain_digest=digest.chain_digest,
            tree_root=hash_bytes(b"forged-root"),
        )
        with pytest.raises(TamperDetectedError):
            verifier.observe(forged_root)
        # Re-observing the identical digest is still fine.
        verifier.observe(digest)

    def test_advance_rejects_forged_root_with_empty_extension(
        self, loaded_db
    ):
        """Regression: advance() only compared ``tree_root`` when the
        extension was non-empty, so a same-height digest with the
        right chain digest but a forged index root was adopted."""
        from repro.core.ledger import LedgerDigest
        from repro.crypto.hashing import hash_bytes

        verifier = ClientVerifier()
        digest = loaded_db.digest()
        verifier.trust(digest)
        forged = LedgerDigest(
            height=digest.height,
            chain_digest=digest.chain_digest,
            tree_root=hash_bytes(b"forged-root"),
        )
        with pytest.raises(TamperDetectedError):
            verifier.advance(forged, [])
        assert verifier.detections == 1
        assert verifier.trusted_digest == digest
        # The honest same-height digest still advances (a no-op).
        verifier.advance(digest, [])

    def test_multi_proof_verification(self, loaded_db):
        verifier = ClientVerifier()
        verifier.trust(loaded_db.digest())
        keys = [b"key0003", b"key0042", b"missing"]
        values, proof = loaded_db.get_many_verified(keys)
        assert values == [b"value3", b"value42", None]
        assert verifier.verify(proof)
        # Every deduped node is attributed to exactly one of hit/miss.
        assert (
            verifier.cache_hits + verifier.cache_misses
            == len(proof.multi.nodes)
        )

    def test_caching_keeps_soundness(self, loaded_db):
        verifier = ClientVerifier()
        verifier.trust(loaded_db.digest())
        # Warm the cache with honest proofs...
        for i in range(10):
            _value, proof = loaded_db.get_verified(f"key{i:04d}".encode())
            assert verifier.verify(proof)
        # ...then a forged proof must still fail.
        _value, proof = loaded_db.get_verified(b"key0011")
        forged = LedgerProof(
            siri=SiriProof(
                key=proof.siri.key, value=b"evil", nodes=proof.siri.nodes
            ),
            block=proof.block,
        )
        assert not verifier.verify(forged)

    def test_range_proof_verification(self, loaded_db):
        verifier = ClientVerifier()
        verifier.trust(loaded_db.digest())
        _entries, proof = loaded_db.scan_verified(b"key0010", b"key0019")
        assert verifier.verify(proof)


class TestDeferredMode:
    def test_deferred_queues_then_flushes(self, loaded_db):
        verifier = ClientVerifier(deferred=True, batch_size=100)
        verifier.trust(loaded_db.digest())
        for i in range(5):
            _value, proof = loaded_db.get_verified(f"key{i:04d}".encode())
            assert verifier.verify(proof)  # optimistic True
        assert verifier.pending == 5
        verifier.flush()
        assert verifier.pending == 0

    def test_deferred_detects_on_flush(self, loaded_db):
        verifier = ClientVerifier(deferred=True, batch_size=100)
        verifier.trust(loaded_db.digest())
        _value, proof = loaded_db.get_verified(b"key0001")
        forged = LedgerProof(
            siri=SiriProof(
                key=proof.siri.key, value=b"evil", nodes=proof.siri.nodes
            ),
            block=proof.block,
        )
        assert verifier.verify(forged)  # deferred: optimistic
        with pytest.raises(TamperDetectedError):
            verifier.flush()

    def test_deferred_flush_failure_counts_detection(self, loaded_db):
        """Regression: ``detections`` was never incremented when a
        deferred batch failed inside flush()."""
        verifier = ClientVerifier(deferred=True, batch_size=100)
        verifier.trust(loaded_db.digest())
        for i in range(3):
            _value, proof = loaded_db.get_verified(f"key{i:04d}".encode())
            verifier.verify(proof)
        _value, proof = loaded_db.get_verified(b"key0005")
        forged = LedgerProof(
            siri=SiriProof(
                key=proof.siri.key, value=b"evil", nodes=proof.siri.nodes
            ),
            block=proof.block,
        )
        verifier.verify(forged)
        assert verifier.detections == 0  # nothing has actually run yet
        with pytest.raises(TamperDetectedError):
            verifier.flush()
        assert verifier.detections == 1
        # 3 honest checks passed + 1 forged check ran and failed.
        assert verifier.checks == 4

    def test_deferred_autoflush_failure_counts_detection(self, loaded_db):
        """The batch-full auto-flush inside verify() accounts the same
        way as an explicit flush()."""
        verifier = ClientVerifier(deferred=True, batch_size=2)
        verifier.trust(loaded_db.digest())
        _value, proof = loaded_db.get_verified(b"key0001")
        verifier.verify(proof)
        forged = LedgerProof(
            siri=SiriProof(
                key=proof.siri.key, value=b"evil", nodes=proof.siri.nodes
            ),
            block=proof.block,
        )
        with pytest.raises(TamperDetectedError):
            verifier.verify(forged)  # fills the batch -> auto-flush
        assert verifier.detections == 1
        assert verifier.checks == 2

    def test_deferred_clean_flush_counts_checks(self, loaded_db):
        verifier = ClientVerifier(deferred=True, batch_size=100)
        verifier.trust(loaded_db.digest())
        for i in range(5):
            _value, proof = loaded_db.get_verified(f"key{i:04d}".encode())
            verifier.verify(proof)
        assert verifier.checks == 0
        verifier.flush()
        assert verifier.checks == 5
        assert verifier.detections == 0

    def test_counters_mirror_into_metrics_registry(self, loaded_db):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        verifier = ClientVerifier(metrics=registry)
        verifier.trust(loaded_db.digest())
        _value, proof = loaded_db.get_verified(b"key0001")
        assert verifier.verify(proof)
        snap = registry.snapshot()
        assert snap["counters"]["verifier.checks"] == 1
        assert snap["counters"]["verifier.detections"] == 0
        # Every proof node is attributed to exactly one of hit/miss.
        assert (
            snap["counters"]["verifier.cache_hits"]
            + snap["counters"]["verifier.cache_misses"]
            == len(proof.siri.nodes)
        )

    def test_cache_hits_grow_on_repeat_verification(self, loaded_db):
        verifier = ClientVerifier()
        verifier.trust(loaded_db.digest())
        _value, proof = loaded_db.get_verified(b"key0001")
        verifier.verify(proof)
        first_misses = verifier.cache_misses
        assert first_misses > 0
        verifier.verify(proof)
        # Second pass over the same proof hits the node cache.
        assert verifier.cache_misses == first_misses
        assert verifier.cache_hits >= len(proof.siri.nodes)

    def test_both_modes_account_the_same_cache_hits_and_misses(
        self, loaded_db
    ):
        proofs = [
            loaded_db.get_verified(f"key{i:04d}".encode())[1]
            for i in (1, 2, 90, 199)
        ]
        proofs.append(loaded_db.get_many_verified([b"key0001", b"nope"])[1])
        proofs.append(loaded_db.scan_verified(b"key0040", b"key0060")[1])
        totals = []
        for deferred in (False, True):
            verifier = ClientVerifier(deferred=deferred, batch_size=4)
            verifier.trust(loaded_db.digest())
            for proof in proofs:
                assert verifier.verify(proof)
            verifier.flush()
            totals.append(
                (verifier.checks, verifier.cache_hits, verifier.cache_misses)
            )
        assert totals[0] == totals[1]
        assert totals[0][0] == len(proofs)
        assert totals[0][1] > 0 and totals[0][2] > 0


class TestVerifiedWriter:
    def test_batched_write_verification(self):
        db = SpitzDatabase(block_batch=8)
        verifier = ClientVerifier()
        verifier.trust(db.digest())
        writer = VerifiedWriter(db, verifier, batch_size=8)
        for i in range(20):
            writer.put(f"k{i}".encode(), f"v{i}".encode())
        writer.flush()
        assert writer.writes == 20
        assert writer.batches >= 3
        assert db.get(b"k7") == b"v7"

    def test_invalid_batch_size(self):
        db = SpitzDatabase()
        with pytest.raises(ValueError):
            VerifiedWriter(db, ClientVerifier(), batch_size=0)

    def test_flush_empty_is_noop(self):
        db = SpitzDatabase()
        verifier = ClientVerifier()
        verifier.trust(db.digest())
        VerifiedWriter(db, verifier).flush()
