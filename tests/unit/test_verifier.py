"""Unit tests for the client verifier and the deferred writer."""

import dataclasses

import pytest

from repro.errors import TamperDetectedError, VerificationError
from repro.core.database import SpitzDatabase
from repro.core.proofs import LedgerProof
from repro.core.verifier import ClientVerifier, VerifiedWriter
from repro.indexes.siri import SiriProof
from repro.search.proofs import SearchPredicate
from repro.shard.database import ShardedDatabase


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
        verifier = ClientVerifier()
        verifier.trust(loaded_db.digest())
        for proof in proofs:
            assert verifier.verify(proof)
        assert verifier.checks == len(proofs)
        assert verifier.cache_hits > 0 and verifier.cache_misses > 0


def _flipped(proof):
    """``proof`` with one byte of its claimed value flipped."""
    value = proof.siri.value
    return dataclasses.replace(proof, siri=dataclasses.replace(
        proof.siri, value=bytes([value[0] ^ 1]) + value[1:]
    ))


class TestCachesFollowTheTrustedDigest:
    """An anchor matches the trusted digest only, so the block cache and
    the node cache hold what that digest reaches."""

    def test_the_block_cache_holds_the_trusted_block_only(self):
        """Regression: every chain digest ever trusted stayed cached."""
        db = SpitzDatabase()
        verifier = ClientVerifier()
        verifier.trust(db.digest())
        for i in range(500):
            key = b"k%03d" % (i % 97)
            db.put(key, b"v%d" % i)
            if i % 2:
                verifier.observe(db.digest())
            else:
                height = verifier.trusted_digest.height
                verifier.advance(db.digest(), db.ledger.extension_proof(height))
            assert verifier.verify(db.get_verified(key)[1])
            assert len(verifier._block_cache) <= 1

    def test_a_warm_block_cache_still_checks_the_index_root(self):
        """Regression: the cache held chain digests, so a witness that
        carried the trusted chain digest skipped the header recompute
        and lent its own index root to the evidence — here another
        database's, which proves a value the trusted one never held."""
        honest, other = SpitzDatabase(), SpitzDatabase()
        for i in range(50):
            honest.put(b"k%02d" % i, b"v%d" % i)
            other.put(b"k%02d" % i, b"evil" if i == 7 else b"v%d" % i)
        _value, proof = honest.get_verified(b"k07")
        _value, lie = other.get_verified(b"k07")
        forged = dataclasses.replace(lie, block=dataclasses.replace(
            proof.block, tree_root=lie.block.tree_root
        ))
        verifier = ClientVerifier()
        verifier.trust(honest.digest())
        assert verifier.verify(proof) and verifier._block_cache
        assert not verifier.verify(forged)
        assert verifier.verify(proof)

    def test_a_sharded_multiproof_verifies_across_an_advance(self):
        """One header recompute per shard per new digest, and a proof
        under the digest left behind no longer anchors."""
        db = ShardedDatabase(num_shards=3)
        for i in range(60):
            db.put(b"s%02d" % i, b"v%d" % i)
        keys = [b"s%02d" % i for i in range(0, 60, 7)] + [b"absent"]
        verifier = ClientVerifier()
        verifier.observe(db.digest())
        _values, before = db.get_many_verified(keys)
        assert verifier.verify(before) and len(verifier._block_cache) == 3
        db.put(b"s07", b"changed")
        verifier.observe(db.digest())
        assert not verifier._block_cache
        values, after = db.get_many_verified(keys)
        assert values[1] == b"changed"
        assert verifier.verify(after) and len(verifier._block_cache) == 3
        assert not verifier.verify(before)

    def test_the_node_cache_stays_within_twice_what_it_last_kept(self):
        """2 000 puts and gets through one verifier: every honest proof
        verifies across sweeps — point, search and multi — and a flipped
        value is refused right after one."""
        db = SpitzDatabase(indexed_columns=["items.price"])
        db.sql("CREATE TABLE items (id INT, price INT, PRIMARY KEY (id))")
        for pk in range(40):
            db.sql(f"INSERT INTO items (id, price) VALUES ({pk}, {pk % 9})")
        verifier = ClientVerifier()
        cache = verifier._node_cache
        sweeps = refused = 0
        for i in range(2000):
            key = b"k%04d" % (i * 7919 % 600)
            db.put(key, b"v%d" % i)
            verifier.observe(db.digest())
            before = len(cache)
            value, proof = db.get_verified(key)
            assert value == b"v%d" % i and verifier.verify(proof)
            assert len(cache) <= 2 * cache.kept
            if len(cache) < before:
                sweeps += 1
                assert not verifier.verify(_flipped(proof))
                refused += 1
                _ukeys, found = db.search_verified(
                    "items.price", SearchPredicate.between(2, 5)
                )
                verifier.observe(db.digest())
                assert verifier.verify(found)
                _values, multi = db.get_many_verified([key, b"k0001", b"no"])
                assert verifier.verify(multi)
        assert sweeps > 5 and refused == sweeps
        assert verifier.detections == refused


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
