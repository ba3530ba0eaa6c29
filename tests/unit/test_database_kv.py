"""Unit tests for the SpitzDatabase key-value surface."""

import pytest

from repro.core.database import SpitzDatabase
from repro.core.verifier import ClientVerifier
from repro.durability.checkpoint import load_database, save_database
from repro.errors import QueryError, TransactionAborted


class TestKvBasics:
    def test_put_get(self, db):
        db.put(b"k", b"v")
        assert db.get(b"k") == b"v"

    def test_get_missing(self, db):
        assert db.get(b"ghost") is None

    def test_overwrite(self, db):
        db.put(b"k", b"v1")
        db.put(b"k", b"v2")
        assert db.get(b"k") == b"v2"

    def test_delete(self, db):
        db.put(b"k", b"v")
        db.delete(b"k")
        assert db.get(b"k") is None

    def test_put_batch_single_block(self, db):
        height = db.ledger.height
        db.put_batch({b"a": b"1", b"b": b"2", b"c": b"3"})
        assert db.ledger.height == height + 1
        assert db.get(b"b") == b"2"

    def test_scan(self, loaded_db):
        rows = loaded_db.scan(b"key0010", b"key0014")
        assert [k for k, _ in rows] == [
            f"key{i:04d}".encode() for i in range(10, 15)
        ]

    def test_history(self, db):
        db.put(b"k", b"v1")
        db.put(b"k", b"v2")
        history = db.history(b"k")
        assert [value for _, value in history] == [b"v1", b"v2"]
        stamps = [ts for ts, _ in history]
        assert stamps == sorted(stamps)

    def test_temporal_read(self, db):
        db.put(b"k", b"old")
        height = db.ledger.height - 1
        db.put(b"k", b"new")
        assert db.get_at_block(b"k", height) == b"old"
        assert db.get(b"k") == b"new"


class TestKvVerification:
    def test_verified_read(self, loaded_db):
        verifier = ClientVerifier()
        verifier.trust(loaded_db.digest())
        value, proof = loaded_db.get_verified(b"key0005")
        assert value == b"value5"
        assert verifier.verify(proof)

    def test_verified_absence(self, loaded_db):
        verifier = ClientVerifier()
        verifier.trust(loaded_db.digest())
        value, proof = loaded_db.get_verified(b"nope")
        assert value is None
        assert verifier.verify(proof)

    def test_put_with_proof(self, db):
        verifier = ClientVerifier()
        block, proof = db.put_with_proof(b"k", b"v")
        verifier.trust(db.digest())
        assert verifier.verify(proof)
        assert proof.value == b"v"

    def test_scan_verified(self, loaded_db):
        verifier = ClientVerifier()
        verifier.trust(loaded_db.digest())
        entries, proof = loaded_db.scan_verified(b"key0000", b"key0009")
        assert len(entries) == 10
        assert verifier.verify(proof)
        assert entries == loaded_db.scan(b"key0000", b"key0009")

    def test_chain_audit(self, loaded_db):
        assert loaded_db.verify_chain()

    def test_historical_verified_read(self, db):
        db.put(b"k", b"v1")
        height = db.ledger.height - 1
        db.put(b"k", b"v2")
        value, proof = db.get_at_block_verified(b"k", height)
        assert value == b"v1"
        assert proof.verify(db.ledger.block(height).chain_digest)


class TestBlockBatching:
    def test_batched_writes_seal_fewer_blocks(self):
        db = SpitzDatabase(block_batch=10)
        for i in range(25):
            db.put(f"k{i}".encode(), b"v")
        assert db.ledger.height == 2  # two full batches sealed
        db.flush_ledger()
        assert db.ledger.height == 3

    def test_reads_see_unsealed_writes(self):
        db = SpitzDatabase(block_batch=100)
        db.put(b"k", b"v")
        assert db.get(b"k") == b"v"  # storage layer is immediate

    def test_digest_flushes(self):
        db = SpitzDatabase(block_batch=100)
        db.put(b"k", b"v")
        digest = db.digest()
        assert digest.height == 1
        value, proof = db.get_verified(b"k")
        assert value == b"v"
        assert proof.verify(digest.chain_digest)

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            SpitzDatabase(block_batch=0)


class TestOneVersionStore:
    """A committed write is kept once: one ``Version`` in the manager's
    MVCC store, which is also the access path unverified reads use."""

    def test_a_committed_write_is_kept_once(self, db):
        store = db.txn_manager.store
        assert db.versions is store
        db.put(b"a", b"1")
        db.put_batch({b"a": b"2", b"b": b"x"})
        with db.transaction() as txn:
            txn.put(b"a", b"3")
        db.delete(b"b")
        versions = store.history(b"k\x00a")
        assert [v.value for v in versions] == [b"1", b"2", b"3"]
        assert store.read_latest(b"k\x00a") is versions[-1]
        assert db.get(b"b") is None and db.scan(b"a", b"b") == [(b"a", b"3")]
        assert store.read_latest(b"k\x00b").value is None
        assert store.version_count() == 5

    def test_writes_retain_nothing_in_cell_store_or_universal_keys(self):
        import tracemalloc

        db = SpitzDatabase()
        tracemalloc.start()
        try:
            for block in range(10):
                db.put_batch({
                    b"key%05d" % (block * 1000 + i): b"value%d" % i
                    for i in range(1000)
                })
            retained = tracemalloc.take_snapshot().filter_traces([
                tracemalloc.Filter(True, "*/core/cell_store.py"),
                tracemalloc.Filter(True, "*/core/universal_key.py"),
            ])
        finally:
            tracemalloc.stop()
        assert db.txn_manager.store.version_count() == 10_000
        assert sum(stat.size for stat in retained.statistics("filename")) == 0


class TestKvTransactions:
    def test_commit_reaches_ledger(self, db):
        with db.transaction() as txn:
            txn.put(b"a", b"1")
            txn.put(b"b", b"2")
        assert db.get(b"a") == b"1"
        verifier = ClientVerifier()
        verifier.trust(db.digest())
        value, proof = db.get_verified(b"b")
        assert value == b"2" and verifier.verify(proof)

    def test_abort_leaves_no_trace(self, db):
        height = db.ledger.height
        txn = db.transaction()
        txn.put(b"a", b"1")
        txn.abort()
        assert db.get(b"a") is None
        assert db.ledger.height == height

    def test_transactional_read_sees_autocommit_writes(self, db):
        db.put(b"k", b"auto")
        with db.transaction() as txn:
            assert txn.get(b"k") == b"auto"

    def test_transactional_delete(self, db):
        db.put(b"k", b"v")
        with db.transaction() as txn:
            txn.delete(b"k")
        assert db.get(b"k") is None

    def test_conflicting_transactions(self, db):
        db.put(b"k", b"0")
        a = db.transaction()
        b = db.transaction()
        assert a.get(b"k") == b"0"
        assert b.get(b"k") == b"0"
        a.put(b"k", b"a")
        b.put(b"k", b"b")
        a.commit()
        with pytest.raises(TransactionAborted):
            b.commit()
        assert db.get(b"k") == b"a"

    def test_autocommit_conflicts_with_transaction(self, db):
        db.put(b"k", b"0")
        txn = db.transaction()
        assert txn.get(b"k") == b"0"
        db.put(b"k", b"sneaky")  # auto-commit between read and commit
        txn.put(b"k", b"txn")
        with pytest.raises(TransactionAborted):
            txn.commit()


class TestValuesAreBytes:
    """``None`` in a write set is a delete, so a put refuses any value
    that is not bytes — before it installs anything."""

    BAD = [None, "text", 5]

    def _state(self, db):
        return (
            db.get(b"k"), db.history(b"k"), db.ledger.height, db.digest()
        )

    @pytest.mark.parametrize("bad", BAD)
    def test_put_refuses_and_leaves_no_trace(self, db, bad, tmp_path):
        db.put(b"k", b"good")
        before = self._state(db)
        with pytest.raises(QueryError, match="b'k'"):
            db.put(b"k", bad)
        with pytest.raises(QueryError, match="b'k'"):
            db.put_batch({b"j": b"fine", b"k": bad})
        assert self._state(db) == before
        assert db.get(b"j") is None
        path = tmp_path / "snap.spitz"
        save_database(db, path)
        reloaded = load_database(path)
        assert self._state(reloaded) == before

    @pytest.mark.parametrize("bad", BAD)
    def test_a_transaction_put_refuses(self, db, bad):
        db.put(b"k", b"good")
        before = self._state(db)
        with db.transaction() as txn:
            with pytest.raises(QueryError, match="b'k'"):
                txn.put(b"k", bad)
        assert self._state(db) == before

    def test_the_database_takes_no_certifier(self):
        with pytest.raises(TypeError):
            SpitzDatabase(certifier=None)
