"""Integration tests for the verifiable search plane, end to end.

Covers the full thread the ISSUE specifies: index maintenance on the
normal write path, SEARCH requests through the cluster, the
``$search_proof`` wire framing, client-side verification over HTTP,
durable reopen, shard refusal, and the ``search.*`` telemetry series
under the strict Prometheus parser.
"""

import tempfile

import pytest

from repro.core.client import ClusterClient
from repro.core.database import SpitzDatabase
from repro.core.node import SpitzCluster
from repro.core.request_handler import Request, RequestKind
from repro.core.verifier import ClientVerifier
from repro.errors import QueryError, TamperDetectedError
from repro.obs.exposition import parse_prometheus, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.search.proofs import SearchPredicate, SearchProof
from repro.serve.client import HttpClusterClient
from repro.serve.codec import (
    WireCodecError,
    decode_response,
    encode_response,
)
from repro.serve.server import serve_cluster
from repro.shard.database import ShardedDatabase


def _seeded_db(metrics=None):
    db = SpitzDatabase(
        metrics=metrics,
        indexed_columns=["items.name", "items.price"],
    )
    db.sql(
        "CREATE TABLE items (id INT, name STR, price INT, "
        "PRIMARY KEY (id))"
    )
    rows = [
        (1, "apple", 10),
        (2, "banana", 20),
        (3, "cherry", 20),
        (4, "date", 30),
        (5, "apple", 40),
    ]
    for pk, name, price in rows:
        db.sql(
            f"INSERT INTO items (id, name, price) "
            f"VALUES ({pk}, '{name}', {price})"
        )
    return db


class TestDatabaseSearch:
    def test_unverified_and_verified_agree(self):
        db = _seeded_db()
        predicate = SearchPredicate.between(15, 35)
        plain = db.search("items.price", predicate)
        ukeys, proof = db.search_verified("items.price", predicate)
        assert set(plain) == set(ukeys)
        assert len(ukeys) == 3
        verifier = ClientVerifier()
        verifier.trust(db.digest())
        assert verifier.verify(proof)

    def test_keyword_search_verifies(self):
        db = _seeded_db()
        ukeys, proof = db.search_verified(
            "items.name", SearchPredicate.eq("apple")
        )
        assert len(ukeys) == 2
        verifier = ClientVerifier()
        verifier.trust(db.digest())
        verifier.verify_or_raise(proof)

    def test_write_path_maintains_postings(self):
        db = _seeded_db()
        db.sql("INSERT INTO items (id, name, price) VALUES (6, 'elder', 25)")
        ukeys, proof = db.search_verified(
            "items.price", SearchPredicate.between(15, 35)
        )
        assert len(ukeys) == 4
        verifier = ClientVerifier()
        verifier.trust(db.digest())
        assert verifier.verify(proof)

    def test_delete_removes_postings(self):
        db = _seeded_db()
        db.sql("DELETE FROM items WHERE id = 2")
        ukeys, proof = db.search_verified(
            "items.price", SearchPredicate.eq(20)
        )
        assert len(ukeys) == 1
        verifier = ClientVerifier()
        verifier.trust(db.digest())
        assert verifier.verify(proof)

    def test_update_moves_postings(self):
        db = _seeded_db()
        db.sql("UPDATE items SET price = 99 WHERE id = 1")
        before, _ = db.search_verified(
            "items.price", SearchPredicate.eq(10)
        )
        after, proof = db.search_verified(
            "items.price", SearchPredicate.eq(99)
        )
        assert before == []
        assert len(after) == 1
        verifier = ClientVerifier()
        verifier.trust(db.digest())
        assert verifier.verify(proof)

    def test_eq_zero_finds_a_row_stored_as_negative_zero(self):
        db = SpitzDatabase(indexed_columns=["readings.t"])
        db.sql("CREATE TABLE readings (id INT, t FLOAT, PRIMARY KEY (id))")
        db.insert("readings", {"id": 1, "t": -0.0})
        db.insert("readings", {"id": 2, "t": 1.5})
        predicate = SearchPredicate.eq(0)
        ukeys, proof = db.search_verified("readings.t", predicate)
        assert ukeys == db.search("readings.t", predicate)
        assert len(ukeys) == 1
        verifier = ClientVerifier()
        verifier.trust(db.digest())
        assert verifier.verify(proof)

    def test_search_without_index_raises(self):
        db = SpitzDatabase()
        with pytest.raises(QueryError):
            db.search_verified("items.price", SearchPredicate.eq(1))

    def test_enable_search_backfills(self):
        db = SpitzDatabase()
        db.sql("CREATE TABLE t (a INT, b STR, PRIMARY KEY (a))")
        db.sql("INSERT INTO t (a, b) VALUES (1, 'x')")
        db.enable_search(["t.b"])
        ukeys, proof = db.search_verified("t.b", SearchPredicate.eq("x"))
        assert len(ukeys) == 1
        verifier = ClientVerifier()
        verifier.trust(db.digest())
        assert verifier.verify(proof)
        with pytest.raises(QueryError):
            db.enable_search(["t.other"])  # different set refused

    def test_stale_proof_detected_after_writes(self):
        db = _seeded_db()
        _, proof = db.search_verified(
            "items.name", SearchPredicate.eq("apple")
        )
        db.sql("INSERT INTO items (id, name, price) VALUES (7, 'apple', 1)")
        db.flush_ledger()
        verifier = ClientVerifier()
        verifier.trust(db.digest())
        with pytest.raises(TamperDetectedError):
            verifier.verify_or_raise(proof)

    def test_search_counters_populate(self):
        metrics = MetricsRegistry()
        db = _seeded_db(metrics=metrics)
        db.search("items.price", SearchPredicate.ge(0))
        db.search_verified("items.price", SearchPredicate.ge(0))
        snapshot = metrics.snapshot()["counters"]
        assert snapshot["search.queries"] == 2
        assert snapshot["search.matches"] > 0
        assert snapshot["search.proof_bytes"] > 0
        assert snapshot["search.maintained_postings"] > 0


class TestClusterSearch:
    def test_search_request_kind_round_trips_the_codec(self):
        cluster = SpitzCluster(
            nodes=2, indexed_columns=["items.name", "items.price"]
        )
        cluster.start()
        try:
            client = ClusterClient(cluster)
            cluster.submit(Request(RequestKind.SQL, {
                "text": (
                    "CREATE TABLE items (id INT, name STR, price INT, "
                    "PRIMARY KEY (id))"
                )
            }))
            for pk, name, price in [(1, "ant", 5), (2, "bee", 15)]:
                cluster.submit(Request(RequestKind.SQL, {
                    "text": (
                        f"INSERT INTO items (id, name, price) "
                        f"VALUES ({pk}, '{name}', {price})"
                    )
                }))
            response = client.search(
                "items.price", ">= 10", verify=True
            )
            assert response.ok
            assert isinstance(response.proof, SearchProof)
            assert len(response.result) == 1
            # Round-trip the full response through the wire codec.
            frame = encode_response(response)
            decoded = decode_response(frame)
            assert isinstance(decoded.proof, SearchProof)
            verifier = ClientVerifier()
            verifier.trust(decoded.digest)
            assert verifier.verify(decoded.proof)
            assert decoded.proof.ukeys == response.proof.ukeys
        finally:
            cluster.stop()

    def test_tampered_proof_over_the_wire_fails_verification(self):
        cluster = SpitzCluster(nodes=1, indexed_columns=["t.v"])
        cluster.start()
        try:
            client = ClusterClient(cluster)
            cluster.submit(Request(RequestKind.SQL, {
                "text": "CREATE TABLE t (a INT, v INT, PRIMARY KEY (a))"
            }))
            cluster.submit(Request(RequestKind.SQL, {
                "text": "INSERT INTO t (a, v) VALUES (1, 7)"
            }))
            response = client.search("t.v", "== 7", verify=True)
            frame = encode_response(response)
            # Drop the claimed match but keep everything else intact.
            frame["proof"]["$search_proof"]["matches"] = []
            decoded = decode_response(frame)
            verifier = ClientVerifier()
            verifier.trust(decoded.digest)
            assert not verifier.verify(decoded.proof)
        finally:
            cluster.stop()

    def test_malformed_proof_frame_is_a_codec_error(self):
        cluster = SpitzCluster(nodes=1, indexed_columns=["t.v"])
        cluster.start()
        try:
            client = ClusterClient(cluster)
            cluster.submit(Request(RequestKind.SQL, {
                "text": "CREATE TABLE t (a INT, v INT, PRIMARY KEY (a))"
            }))
            cluster.submit(Request(RequestKind.SQL, {
                "text": "INSERT INTO t (a, v) VALUES (1, 7)"
            }))
            response = client.search("t.v", "== 7", verify=True)
            frame = encode_response(response)
            del frame["proof"]["$search_proof"]["anchor"]
            with pytest.raises(WireCodecError):
                decode_response(frame)
        finally:
            cluster.stop()

    def test_durable_cluster_rebuilds_search_on_reopen(self):
        with tempfile.TemporaryDirectory() as root:
            cluster = SpitzCluster(
                nodes=1, durable_root=root, indexed_columns=["t.v"]
            )
            cluster.start()
            try:
                cluster.submit(Request(RequestKind.SQL, {
                    "text": (
                        "CREATE TABLE t (a INT, v INT, PRIMARY KEY (a))"
                    )
                }))
                cluster.submit(Request(RequestKind.SQL, {
                    "text": "INSERT INTO t (a, v) VALUES (1, 42)"
                }))
            finally:
                cluster.stop()
            reopened = SpitzCluster(
                nodes=1, durable_root=root, indexed_columns=["t.v"]
            )
            reopened.start()
            try:
                client = ClusterClient(reopened)
                response = client.search("t.v", "== 42", verify=True)
                assert response.ok
                verifier = ClientVerifier()
                verifier.trust(response.digest)
                assert verifier.verify(response.proof)
                assert len(response.result) == 1
            finally:
                reopened.stop()

    def test_sharded_database_refuses_search(self):
        sharded = ShardedDatabase(num_shards=2)
        with pytest.raises(QueryError):
            sharded.search("t.v", SearchPredicate.eq(1))
        with pytest.raises(QueryError):
            sharded.search_verified("t.v", SearchPredicate.eq(1))
        with pytest.raises(ValueError):
            SpitzCluster(nodes=1, shards=2, indexed_columns=["t.v"])


def _chain(db):
    return [db.ledger.block(h).tree_root for h in range(db.ledger.height)]


class TestDurableSearchChain:
    """A durable database whose blocks commit a search manifest
    recovers the chain a client pinned before the restart: enabling
    search and a manifest-only seal block go through the log and are
    replayed where they happened, not re-derived after replay."""

    def _assert_recovers(self, db, reopen):
        pinned = db.digest()
        roots = _chain(db)
        verifier = ClientVerifier()
        verifier.trust(pinned)
        reopened = reopen()
        try:
            assert reopened.db.digest() == pinned
            assert _chain(reopened.db) == roots
            _value, proof = reopened.db.get_verified(b"k")
            assert verifier.verify(proof)
            _ukeys, proof = reopened.db.search_verified("t.v", ">= 0")
            assert reopened.db.digest() == pinned  # no new seal block
            assert verifier.verify(proof)
        finally:
            reopened.stop()

    def test_search_enabled_at_creation_then_writes(self, tmp_path):
        root = str(tmp_path / "db.d")

        def cluster():
            return SpitzCluster(
                nodes=1, durable_root=root, indexed_columns=["t.v"]
            )

        first = cluster()
        first.db.sql("CREATE TABLE t (a INT, v INT, PRIMARY KEY (a))")
        first.db.sql("INSERT INTO t (a, v) VALUES (1, 42)")
        first.db.sql("INSERT INTO t (a, v) VALUES (2, 7)")
        first.stop()
        self._assert_recovers(first.db, cluster)

    def test_cold_seal_on_an_empty_indexed_database_then_put(
        self, tmp_path
    ):
        root = str(tmp_path / "db.d")

        def cluster():
            return SpitzCluster(
                nodes=1, durable_root=root, indexed_columns=["t.v"]
            )

        first = cluster()
        ukeys, _proof = first.db.search_verified("t.v", ">= 0")
        assert ukeys == [] and first.db.ledger.height == 1  # the seal
        first.db.put(b"k", b"v")
        first.stop()
        self._assert_recovers(first.db, cluster)

    def test_enable_on_rows_then_verified_search_then_put(self, tmp_path):
        root = tmp_path / "db.d"
        first = SpitzCluster(nodes=1, durable_root=str(root))
        first.db.sql("CREATE TABLE t (a INT, v INT, PRIMARY KEY (a))")
        first.db.sql("INSERT INTO t (a, v) VALUES (1, 42)")
        first.db.enable_search(["t.v"])
        ukeys, _proof = first.db.search_verified("t.v", "== 42")
        assert len(ukeys) == 1
        first.db.put(b"k", b"v")
        first.stop()
        # Reopened without naming the column: the log remembers it.
        self._assert_recovers(
            first.db, lambda: SpitzCluster(nodes=1, durable_root=str(root))
        )


class TestHttpSearch:
    def test_verified_search_over_the_wire(self):
        service = serve_cluster(
            nodes=2, indexed_columns=["items.name", "items.price"]
        )
        try:
            with HttpClusterClient(
                "127.0.0.1", service.port, attempts=1
            ) as client:
                client.call(Request(RequestKind.SQL, {
                    "text": (
                        "CREATE TABLE items (id INT, name STR, price "
                        "INT, PRIMARY KEY (id))"
                    )
                }))
                for pk, name, price in [
                    (1, "apple", 10), (2, "banana", 25), (3, "apple", 30),
                ]:
                    client.call(Request(RequestKind.SQL, {
                        "text": (
                            f"INSERT INTO items (id, name, price) "
                            f"VALUES ({pk}, '{name}', {price})"
                        )
                    }))
                response = client.search(
                    "items.name", "apple", verify=True
                )
                assert response.ok
                assert isinstance(response.proof, SearchProof)
                verifier = ClientVerifier()
                verifier.trust(response.digest)
                verifier.verify_or_raise(response.proof)
                assert len(response.result) == 2
                # Range over the same socket.
                ranged = client.search(
                    "items.price", "between 5 27", verify=True
                )
                verifier.observe(ranged.digest)
                verifier.verify_or_raise(ranged.proof)
                assert len(ranged.result) == 2
        finally:
            service.stop()


class TestSearchTelemetry:
    def test_search_series_render_and_parse_strictly(self):
        metrics = MetricsRegistry()
        db = _seeded_db(metrics=metrics)
        db.search_verified("items.price", SearchPredicate.ge(0))
        text = render_prometheus(metrics.exposition_snapshot())
        series = parse_prometheus(text)  # raises on malformed output
        assert series["spitz_search_queries_total"] == 1.0
        assert series["spitz_search_proof_bytes_total"] > 0
        assert series["spitz_search_maintained_postings_total"] > 0
        assert any(
            name.startswith("spitz_span_search_maintain")
            for name in series
        )
