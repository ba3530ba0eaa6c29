"""Unit tests for the immutable KVS and the integration designs."""

import pytest

from repro.core.verifier import ClientVerifier
from repro.errors import IntegrationError, NetworkError
from repro.integration.intrusive import migrate_kvs_to_spitz
from repro.integration.nonintrusive import NonIntrusiveVDB
from repro.integration.simnet import Channel
from repro.kvstore.kvs import ImmutableKVS


class TestImmutableKVS:
    def test_put_get(self):
        kvs = ImmutableKVS()
        kvs.put(b"k", b"v")
        assert kvs.get(b"k") == b"v"
        assert kvs.get(b"ghost") is None

    def test_versions_kept(self):
        kvs = ImmutableKVS()
        kvs.put(b"k", b"v1")
        kvs.put(b"k", b"v2")
        assert kvs.get(b"k") == b"v2"
        assert [v for _, v in kvs.history(b"k")] == [b"v1", b"v2"]

    def test_delete_preserves_history(self):
        kvs = ImmutableKVS()
        kvs.put(b"k", b"v")
        kvs.delete(b"k")
        assert kvs.get(b"k") is None
        assert len(kvs.history(b"k")) == 1

    def test_scan(self):
        kvs = ImmutableKVS()
        for i in range(10):
            kvs.put(f"k{i}".encode(), str(i).encode())
        assert len(kvs.scan(b"k2", b"k5")) == 4

    def test_values_deduplicated(self):
        kvs = ImmutableKVS()
        kvs.put(b"a", b"same-payload")
        before = kvs.chunks.stats.physical_bytes
        kvs.put(b"b", b"same-payload")
        assert kvs.chunks.stats.physical_bytes == before

    def test_storage_report(self):
        kvs = ImmutableKVS()
        kvs.put(b"k", b"v")
        assert kvs.storage_report()["physical_bytes"] > 0


class TestChannel:
    def test_round_trip_decodes(self):
        channel = Channel(lambda req: {"echo": req})
        assert channel.call([1, "two"]) == {"echo": [1, "two"]}

    def test_stats_accumulate(self):
        channel = Channel(lambda req: req)
        channel.call("x")
        channel.call("y")
        assert channel.stats.round_trips == 2
        assert channel.stats.messages == 4
        assert channel.stats.bytes_sent > 0

    def test_loss_injection(self):
        channel = Channel(lambda req: req, loss_every=3)
        # Each call sends two messages; with loss_every=3 the first
        # call survives and the second call's request (message 3) is
        # the lost one.
        channel.call("ok")
        with pytest.raises(NetworkError):
            channel.call("request-lost")


class TestCallWithRetry:
    def test_request_leg_loss_retried(self):
        channel = Channel(lambda req: req, loss_every=3)
        channel.call("warmup")  # messages 1, 2
        # Message 3 (the next request) is lost; the retry succeeds.
        assert channel.call_with_retry("x") == "x"
        assert channel.stats.retries == 1
        assert channel.stats.backoff_units == 1.0

    def test_response_leg_loss_retried(self):
        served = []

        def handler(req):
            served.append(req)
            return req

        channel = Channel(handler, loss_every=4)
        channel.call("warmup")  # messages 1, 2
        # Message 4 is the *response* of the next call: the server ran
        # but the client never heard back. The retry re-executes it.
        assert channel.call_with_retry("x") == "x"
        assert served == ["warmup", "x", "x"]
        assert channel.stats.retries == 1

    def test_attempts_exhausted_reraises(self):
        channel = Channel(lambda req: req, loss_every=1)  # lose all
        with pytest.raises(NetworkError):
            channel.call_with_retry("x", attempts=3, backoff=2.0)
        assert channel.stats.retries == 2
        # Exponential accounting: 2*2**0 + 2*2**1 units, no sleeping.
        assert channel.stats.backoff_units == 6.0

    def test_nonintrusive_reads_survive_lossy_network(self):
        vdb = NonIntrusiveVDB(loss_every=5)
        vdb.put(b"k", b"v")
        for _ in range(10):
            value, proof, digest = vdb.get_verified(b"k")
            assert value == b"v"
            verifier = ClientVerifier()
            verifier.trust(digest)
            assert verifier.verify(proof)
        assert (
            vdb.kvs_channel.stats.retries
            + vdb.ledger_channel.stats.retries
        ) > 0

    def test_nonintrusive_writes_not_retried(self):
        vdb = NonIntrusiveVDB(loss_every=2)  # every call's response lost
        with pytest.raises(NetworkError):
            vdb.put(b"k", b"v")


class TestNonIntrusive:
    def test_put_get(self):
        vdb = NonIntrusiveVDB()
        vdb.put(b"k", b"v")
        assert vdb.get(b"k") == b"v"

    def test_verified_read(self):
        vdb = NonIntrusiveVDB()
        vdb.put(b"k", b"v")
        value, proof, digest = vdb.get_verified(b"k")
        verifier = ClientVerifier()
        verifier.trust(digest)
        assert value == b"v"
        assert verifier.verify(proof)

    def test_tampered_underlying_db_detected(self):
        vdb = NonIntrusiveVDB()
        vdb.put(b"k", b"honest")
        # An insider rewrites the underlying KVS directly, bypassing
        # the ledger (the attack the design exists to catch).
        vdb._kvs_server.kvs.put(b"k", b"tampered")
        with pytest.raises(IntegrationError):
            vdb.get_verified(b"k")

    def test_scan_verified(self):
        vdb = NonIntrusiveVDB()
        for i in range(10):
            vdb.put(f"k{i}".encode(), str(i).encode())
        entries, proof, digest = vdb.scan_verified(b"k2", b"k5")
        assert len(entries) == 4
        verifier = ClientVerifier()
        verifier.trust(digest)
        assert verifier.verify(proof)

    def test_write_costs_three_round_trips(self):
        vdb = NonIntrusiveVDB()
        before = vdb.round_trips
        vdb.put(b"k", b"v")
        assert vdb.round_trips - before == 3

    def test_read_costs_one_round_trip(self):
        vdb = NonIntrusiveVDB()
        vdb.put(b"k", b"v")
        before = vdb.round_trips
        vdb.get(b"k")
        assert vdb.round_trips - before == 1


class TestMigration:
    def _loaded_kvs(self):
        kvs = ImmutableKVS()
        for i in range(30):
            kvs.put(f"k{i:02d}".encode(), f"v{i}".encode())
        kvs.put(b"k00", b"v0-updated")
        return kvs

    def test_migrates_current_state(self):
        spitz = migrate_kvs_to_spitz(self._loaded_kvs())
        assert spitz.get(b"k00") == b"v0-updated"
        assert spitz.get(b"k29") == b"v29"

    def test_migrates_history(self):
        spitz = migrate_kvs_to_spitz(self._loaded_kvs())
        assert [v for _, v in spitz.history(b"k00")] == [
            b"v0", b"v0-updated",
        ]

    def test_current_only_migration_drops_history(self):
        spitz = migrate_kvs_to_spitz(
            self._loaded_kvs(), include_history=False
        )
        assert spitz.get(b"k00") == b"v0-updated"
        assert len(spitz.history(b"k00")) == 1

    def test_migrated_data_is_verifiable(self):
        spitz = migrate_kvs_to_spitz(self._loaded_kvs())
        verifier = ClientVerifier()
        verifier.trust(spitz.digest())
        value, proof = spitz.get_verified(b"k15")
        assert value == b"v15"
        assert verifier.verify(proof)

    def test_a_deleted_keys_history_migrates(self):
        """Regression: ``delete`` used to drop the key from the only
        structure migration walked, so its history never moved."""
        kvs = ImmutableKVS()
        kvs.put(b"a", b"1")
        kvs.delete(b"a")
        assert kvs.history(b"a") == [(1, b"1")]
        spitz = migrate_kvs_to_spitz(kvs)
        assert [value for _height, value in spitz.ledger.key_history(
            b"k\x00a"
        )] == [b"1", None]
        assert spitz.get(b"a") is None
        assert [v for _, v in spitz.history(b"a")] == [b"1"]

    def test_a_delete_between_versions_migrates_as_a_delete(self):
        """Regression: put 1, delete, put 2 used to migrate as 1 → 2
        with no deletion block between them."""
        kvs = ImmutableKVS()
        kvs.put(b"a", b"1")
        kvs.delete(b"a")
        kvs.put(b"a", b"2")
        spitz = migrate_kvs_to_spitz(kvs)
        changes = spitz.ledger.key_history(b"k\x00a")
        assert [value for _height, value in changes] == [b"1", None, b"2"]
        assert len({height for height, _value in changes}) == 3
        assert spitz.get(b"a") == b"2"
