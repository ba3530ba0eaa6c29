"""Integration tests for the extension surfaces working together:
documents + durability + audit + extension proofs + cluster."""

import threading

import pytest

from repro import (
    DocumentStore,
    compare_replicas,
    make_bundle,
    verify_bundle,
)
from repro.core.database import SpitzDatabase
from repro.core.node import SpitzCluster
from repro.core.provenance import key_provenance, verify_statements
from repro.core.request_handler import Request, RequestKind
from repro.core.verifier import ClientVerifier
from repro.durability import DurableDatabase
from repro.errors import TamperDetectedError


class TestDocumentLifecycle:
    def test_documents_survive_persistence(self, tmp_path):
        path = tmp_path / "docs.d"
        with DurableDatabase.open(path) as durable:
            orders = DocumentStore(durable.db).collection("orders")
            orders.put("o1", {"sku": "widget", "qty": 3})
            orders.put("o1", {"sku": "widget", "qty": 5})
            digest = durable.db.digest()

        with DurableDatabase.open(path) as reopened:
            assert reopened.db.digest() == digest
            restored_orders = DocumentStore(reopened.db).collection("orders")
            assert restored_orders.get("o1") == {"sku": "widget", "qty": 5}
            states = [s for _, s in restored_orders.history("o1")]
            assert [s["qty"] if s else None for s in states] == [3, 5]

    def test_document_proof_bundle_round_trip(self):
        store = DocumentStore()
        c = store.collection("c")
        c.put("d1", {"claim": "important"})
        store.db.flush_ledger()
        bundle = make_bundle(store.db.ledger, c._key("d1"), "doc d1")
        ok, message = verify_bundle(
            bundle.deserialize(bundle.serialize()),
            trusted=store.db.digest(),
        )
        assert ok, message

    def test_documents_and_sql_share_provenance(self):
        db = SpitzDatabase()
        store = DocumentStore(db)
        db.sql("CREATE TABLE t (id INT, PRIMARY KEY (id))")
        db.sql("INSERT INTO t (id) VALUES (1)")
        store.collection("c").put("d", {"x": 1})
        db.put(b"raw", b"kv")
        assert verify_statements(db.ledger) == []
        lineage = key_provenance(db.ledger, b"k\x00raw")
        assert len(lineage) == 1


class TestClientDigestLifecycle:
    def test_long_lived_client_with_extension_proofs(self):
        """A client that only syncs periodically still never accepts
        rewritten history."""
        db = SpitzDatabase()
        db.put(b"genesis", b"block")
        client = ClientVerifier()
        client.trust(db.digest())

        for epoch in range(5):
            synced_height = client.trusted_digest.height
            for i in range(7):
                db.put(f"e{epoch}-k{i}".encode(), b"v")
            client.advance(
                db.digest(), db.ledger.extension_proof(synced_height)
            )
            value, proof = db.get_verified(f"e{epoch}-k0".encode())
            assert value == b"v"
            client.verify_or_raise(proof)
        assert client.trusted_digest.height == 36

    def test_forked_server_caught_on_sync(self):
        honest = SpitzDatabase()
        for i in range(5):
            honest.put(f"k{i}".encode(), b"v")
        client = ClientVerifier()
        client.trust(honest.digest())

        # The server is replaced by a forked history of equal length +
        # new growth; the extension cannot chain from the client's
        # trusted digest.
        forked = SpitzDatabase()
        for i in range(5):
            forked.put(f"k{i}".encode(), b"DIFFERENT")
        for i in range(3):
            forked.put(f"new{i}".encode(), b"v")
        with pytest.raises(TamperDetectedError):
            client.advance(
                forked.digest(), forked.ledger.extension_proof(5)
            )

    def test_replica_comparison_localizes_the_fork(self):
        a = SpitzDatabase()
        b = SpitzDatabase()
        for i in range(4):
            a.put(f"k{i}".encode(), b"v")
            b.put(f"k{i}".encode(), b"v")
        a.put(b"k4", b"honest")
        b.put(b"k4", b"forged")
        report = compare_replicas(a.ledger, b.ledger)
        assert not report.consistent
        assert report.fork_height == 4


class TestClusterVerifiedTraffic:
    def test_concurrent_clients_with_verification(self):
        cluster = SpitzCluster(nodes=3)
        cluster.start()
        errors = []
        try:
            for i in range(20):
                cluster.submit(
                    Request(
                        RequestKind.PUT,
                        {"key": f"seed{i}".encode(), "value": b"v"},
                    )
                )

            def client_worker(worker_id):
                try:
                    verifier = ClientVerifier()
                    for i in range(15):
                        response = cluster.submit(
                            Request(
                                RequestKind.GET,
                                {"key": f"seed{(worker_id + i) % 20}".encode()},
                                verify=True,
                            )
                        )
                        assert response.ok
                        verifier.trust(response.digest)
                        verifier.verify_or_raise(response.proof)
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            workers = [
                threading.Thread(target=client_worker, args=(w,))
                for w in range(4)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            cluster.stop()
        assert errors == []
        assert cluster.db.verify_chain()
