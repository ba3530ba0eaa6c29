"""End-to-end integration: write → read → verify → tamper → detect."""

import dataclasses

import pytest

from repro.core.database import SpitzDatabase
from repro.core.proofs import LedgerProof
from repro.core.verifier import ClientVerifier
from repro.errors import TamperDetectedError
from repro.indexes.siri import SiriProof


class TestHonestLifecycle:
    def test_full_kv_lifecycle(self):
        db = SpitzDatabase()
        client = ClientVerifier()

        # 1. writes, with the client tracking digests
        for i in range(100):
            db.put(f"account:{i:03d}".encode(), f"balance={i}".encode())
        client.trust(db.digest())

        # 2. verified point reads
        for i in (0, 42, 99):
            value, proof = db.get_verified(f"account:{i:03d}".encode())
            assert value == f"balance={i}".encode()
            client.verify_or_raise(proof)

        # 3. verified range read
        entries, range_proof = db.scan_verified(
            b"account:010", b"account:019"
        )
        assert len(entries) == 10
        client.verify_or_raise(range_proof)

        # 4. update + delete, client follows the digest
        db.put(b"account:000", b"balance=1000")
        db.delete(b"account:001")
        client.observe(db.digest())
        value, proof = db.get_verified(b"account:000")
        assert value == b"balance=1000"
        client.verify_or_raise(proof)
        value, proof = db.get_verified(b"account:001")
        assert value is None
        client.verify_or_raise(proof)

        # 5. history still verifiable against its own block
        history = db.ledger.key_history(b"k\x00account:001")
        assert history[-1][1] is None

        # 6. full-chain audit
        assert db.verify_chain()

    def test_mixed_sql_and_kv_share_one_ledger(self):
        db = SpitzDatabase()
        db.put(b"raw-key", b"raw-value")
        db.sql("CREATE TABLE t (id INT, v STR, PRIMARY KEY (id))")
        db.sql("INSERT INTO t (id, v) VALUES (1, 'one')")
        client = ClientVerifier()
        client.trust(db.digest())
        value, proof = db.get_verified(b"raw-key")
        assert value == b"raw-value"
        client.verify_or_raise(proof)
        assert db.sql("SELECT v FROM t WHERE id = 1") == [{"v": "one"}]
        assert db.verify_chain()


class TestTamperDetection:
    def _client_and_proof(self, db):
        client = ClientVerifier()
        client.trust(db.digest())
        value, proof = db.get_verified(b"key0001")
        return client, value, proof

    def test_forged_value_detected(self, loaded_db):
        client, _value, proof = self._client_and_proof(loaded_db)
        forged = LedgerProof(
            siri=SiriProof(
                key=proof.siri.key, value=b"evil", nodes=proof.siri.nodes
            ),
            block=proof.block,
        )
        with pytest.raises(TamperDetectedError):
            client.verify_or_raise(forged)

    def test_forged_tree_root_detected(self, loaded_db):
        client, _value, proof = self._client_and_proof(loaded_db)
        other = SpitzDatabase()
        other.put(b"key0001", b"evil")
        other_value, other_proof = other.get_verified(b"key0001")
        # A proof from a parallel universe fails against our digest.
        with pytest.raises(TamperDetectedError):
            client.verify_or_raise(other_proof)

    def test_forged_block_header_detected(self, loaded_db):
        client, _value, proof = self._client_and_proof(loaded_db)
        forged_block = dataclasses.replace(
            proof.block, writes_digest=proof.block.statements_digest
        )
        forged = dataclasses.replace(proof, block=forged_block)
        with pytest.raises(TamperDetectedError):
            client.verify_or_raise(forged)

    def test_truncated_ledger_detected(self, loaded_db):
        client = ClientVerifier()
        old_digest = loaded_db.digest()
        loaded_db.put(b"newer", b"write")
        client.trust(loaded_db.digest())
        with pytest.raises(TamperDetectedError):
            client.observe(old_digest)  # server presents shorter history

    def test_storage_level_tamper_breaks_proof_generation(self):
        """An attacker rewriting chunk bytes in place cannot produce a
        valid proof: the node's address no longer matches its content."""
        db = SpitzDatabase()
        for i in range(50):
            db.put(f"k{i:02d}".encode(), b"honest")
        client = ClientVerifier()
        client.trust(db.digest())
        value, proof = db.get_verified(b"k25")
        # Tamper with one proof node's bytes the way a malicious
        # storage layer would.
        nodes = list(proof.siri.nodes)
        nodes[-1] = nodes[-1].replace(b"honest", b"evil!!")
        forged = LedgerProof(
            siri=SiriProof(
                key=proof.siri.key, value=b"evil!!", nodes=tuple(nodes)
            ),
            block=proof.block,
        )
        assert not client.verify(forged)

    def test_range_result_manipulation_detected(self, loaded_db):
        client = ClientVerifier()
        client.trust(loaded_db.digest())
        entries, proof = loaded_db.scan_verified(b"key0010", b"key0019")
        # Drop a row from the claimed results.
        forged_range = dataclasses.replace(
            proof.range_proof, entries=proof.range_proof.entries[1:]
        )
        forged = dataclasses.replace(proof, range_proof=forged_range)
        assert not client.verify(forged)
