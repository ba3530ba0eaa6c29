"""Tests for the error hierarchy and less-travelled database modes."""

import pytest

from repro import errors
from repro.core.audit import audit_ledger
from repro.core.ledger import SpitzLedger
from repro.core.verifier import ClientVerifier
from repro.core.schema import KV_PREFIX
from repro.integration.nonintrusive import _LedgerServer


class TestErrorHierarchy:
    def test_everything_is_a_spitz_error(self):
        leaf_errors = [
            errors.ChunkNotFoundError("aa"),
            errors.BranchNotFoundError("b"),
            errors.CommitNotFoundError("c"),
            errors.KeyNotFoundError("k"),
            errors.TransactionAborted(1, "why"),
            errors.DeadlockError(2),
            errors.TwoPhaseCommitError("x"),
            errors.VerificationError("v"),
            errors.ProofError("p"),
            errors.TamperDetectedError("t"),
            errors.SqlSyntaxError("sql", 3, "msg"),
            errors.SchemaError("s"),
            errors.NetworkError("n"),
        ]
        for error in leaf_errors:
            assert isinstance(error, errors.SpitzError)

    def test_tamper_is_verification_error(self):
        assert issubclass(
            errors.TamperDetectedError, errors.VerificationError
        )

    def test_deadlock_is_abort(self):
        error = errors.DeadlockError(7)
        assert isinstance(error, errors.TransactionAborted)
        assert error.txn_id == 7

    def test_sql_error_carries_position(self):
        error = errors.SqlSyntaxError("SELECT", 3, "boom")
        assert error.position == 3
        assert "offset 3" in str(error)

    def test_key_not_found_carries_key(self):
        assert errors.KeyNotFoundError(b"k").key == b"k"


class TestNonIntrusiveLedgerServer:
    """Section 5.1: Spitz "can be applied into a non-intrusive design
    ... by solely waking up the auditor" — the ledger server of that
    design is a bare :class:`SpitzLedger`, with no storage layer."""

    def _server(self, keys):
        server = _LedgerServer()
        for key in keys:
            server.handle(("append", (key, b"v-" + key)))
        return server

    def test_appends_seal_blocks_in_a_bare_ledger(self):
        server = self._server([b"k"])
        assert isinstance(server.ledger, SpitzLedger)
        assert server.ledger.height == 1
        assert server.ledger.get(KV_PREFIX + b"k") == b"v-k"
        assert server.handle(("digest", ())) == server.ledger.digest()

    def test_proofs_verify_under_its_digest(self):
        server = self._server([b"a", b"k", b"z"])
        value, proof, digest = server.handle(("prove", (b"k",)))
        verifier = ClientVerifier()
        verifier.trust(digest)
        assert value == b"v-k"
        assert verifier.verify(proof)
        entries, range_proof, digest = server.handle(
            ("prove_range", (b"a", b"k"))
        )
        assert entries == [
            (KV_PREFIX + b"a", b"v-a"), (KV_PREFIX + b"k", b"v-k")
        ]
        assert verifier.verify(range_proof)

    def test_chain_audits_clean(self):
        server = self._server([f"k{i}".encode() for i in range(10)])
        assert server.ledger.verify_chain()
        assert audit_ledger(server.ledger) == []


class TestDatabaseEdgeCases:
    def test_empty_scan(self, db):
        assert db.scan(b"a", b"z") == []

    def test_history_of_unknown_key(self, db):
        assert db.history(b"ghost") == []

    def test_overwrite_same_value_changes_digest(self, db):
        db.put(b"k", b"v")
        first = db.digest()
        db.put(b"k", b"v")  # same value again: still a new block
        assert db.digest().height == first.height + 1

    def test_delete_unknown_key_is_recorded(self, db):
        block = db.delete(b"never-existed")
        assert block.write_count == 1
        assert db.get(b"never-existed") is None

    def test_binary_keys_and_values(self, db):
        key = bytes(range(1, 64))
        value = bytes(range(255, 0, -1))
        db.put(key, value)
        assert db.get(key) == value
        verifier = ClientVerifier()
        verifier.trust(db.digest())
        got, proof = db.get_verified(key)
        assert got == value
        assert verifier.verify(proof)

    def test_large_value_storage_accounting(self, db):
        """A value is stored once: the cell store's chunk is the one the
        ledger leaf names by digest, so a second key holding the same
        50 KB payload costs a new two-pair leaf (the old leaf stays
        readable for history) and not one byte of payload."""
        payload = b"X" * 50_000
        db.put(b"a", payload)
        stats = db.chunks.stats
        before = stats.physical_bytes
        dedup_hits = stats.puts - stats.unique_chunks
        db.put(b"b", payload)
        added = stats.physical_bytes - before
        assert 0 < added < 500  # the new leaf; no value bytes
        assert stats.puts - stats.unique_chunks >= dedup_hits + 1
