"""Unit tests for the sharded ledger plane.

Router determinism, the digest-of-digests commitment, the facade's
read/write paths (direct and 2PC), and the tamper matrix: every way a
sharded proof or digest can lie must be caught client-side.
"""

import dataclasses

import pytest

from repro.core.database import SpitzDatabase
from repro.core.verifier import ClientVerifier
from repro.errors import QueryError, TamperDetectedError
from repro.core.schema import KV_PREFIX
from repro.shard import (
    ShardRouter,
    ShardedDatabase,
    anchor_shards,
    digest_of_digests,
    shard_for_key,
)


def _seed_digests(count, writes=3):
    """Independent single-ledger digests to fold under one root."""
    digests = []
    for shard_id in range(count):
        db = SpitzDatabase()
        for i in range(writes):
            db.put(b"s%d-k%d" % (shard_id, i), b"v%d" % i)
        digests.append(db.digest())
    return digests


class TestRouter:
    def test_deterministic_and_in_range(self):
        router = ShardRouter(4)
        for i in range(200):
            key = b"key-%d" % i
            shard = router.shard_of(key)
            assert 0 <= shard < 4
            assert shard == router.shard_of(key)
            assert shard == shard_for_key(key, 4)

    def test_covers_every_shard(self):
        router = ShardRouter(4)
        hit = {router.shard_of(b"key-%d" % i) for i in range(200)}
        assert hit == {0, 1, 2, 3}

    def test_single_shard_shortcut(self):
        assert all(
            shard_for_key(b"k%d" % i, 1) == 0 for i in range(50)
        )

    def test_split_keys_keeps_positions(self):
        router = ShardRouter(3)
        keys = [b"a", b"b", b"c", b"d"]
        split = router.split_keys(keys)
        flat = sorted(
            (pos, key) for entries in split.values()
            for pos, key in entries
        )
        assert flat == list(enumerate(keys))


class TestDigestOfDigests:
    def test_height_is_sum_and_root_binds_every_shard(self):
        digests = _seed_digests(4)
        top = digest_of_digests(digests)
        assert top.num_shards == 4
        assert top.height == sum(d.height for d in digests)
        # Advancing any single shard changes the root.
        moved = SpitzDatabase()
        moved.put(b"x", b"y")
        swapped = list(digests)
        swapped[2] = moved.digest()
        assert digest_of_digests(swapped).root != top.root

    def test_digest_views_are_the_root(self):
        top = digest_of_digests(_seed_digests(2))
        assert top.chain_digest == top.root
        assert top.tree_root == top.root

    def test_membership_anchors_and_forgeries_fail(self):
        digests = _seed_digests(4)
        top, (membership,) = anchor_shards(digests, [2])
        assert top == digest_of_digests(digests)
        assert membership.anchor(top.root, ()) == digests[2].chain_digest
        # Claiming the branch proves a different shard id fails.
        relabeled = dataclasses.replace(membership, shard_id=1)
        assert relabeled.anchor(top.root, ()) is None
        # A forged shard digest under a real branch fails.
        forged = dataclasses.replace(
            membership, shard_digest=_seed_digests(1)[0]
        )
        assert forged.anchor(top.root, ()) is None

    def test_membership_binds_the_fleet_size_and_the_keys(self):
        digests = _seed_digests(4)
        top, (membership,) = anchor_shards(digests, [2])
        assert membership.num_shards == 4
        # The leaf commits to num_shards: a branch claiming another
        # fleet size (which would re-route every key) does not reach
        # the root.
        resized = dataclasses.replace(
            membership,
            proof=dataclasses.replace(membership.proof, tree_size=3),
        )
        assert resized.anchor(top.root, ()) is None
        owned = [
            KV_PREFIX + b"k%d" % i
            for i in range(40)
            if shard_for_key(b"k%d" % i, 4) == 2
        ]
        foreign = KV_PREFIX + next(
            b"k%d" % i for i in range(40) if shard_for_key(b"k%d" % i, 4) != 2
        )
        assert membership.anchor(top.root, owned) is not None
        assert membership.anchor(top.root, owned + [foreign]) is None
        # A key outside the KV keyspace has no owning shard at all.
        assert membership.anchor(top.root, [owned[0][len(KV_PREFIX):]]) is None

    def test_nonsense_membership_values_fail_without_raising(self):
        digests = _seed_digests(2)
        top, (membership,) = anchor_shards(digests, [1])
        huge = dataclasses.replace(
            membership,
            shard_digest=dataclasses.replace(
                membership.shard_digest, height=2**70
            ),
        )
        assert huge.anchor(top.root, ()) is None
        negative = dataclasses.replace(
            membership,
            shard_digest=dataclasses.replace(
                membership.shard_digest, height=-1
            ),
        )
        assert negative.anchor(top.root, ()) is None


class TestShardedFacade:
    def test_put_get_delete_roundtrip(self):
        db = ShardedDatabase(num_shards=4)
        for i in range(40):
            db.put(b"k%02d" % i, b"v%02d" % i)
        assert db.get(b"k07") == b"v07"
        assert db.get(b"missing") is None
        db.delete(b"k07")
        assert db.get(b"k07") is None
        # Same semantics as the single ledger: history lists live
        # versions, not the tombstone.
        assert [v for _, v in db.history(b"k07")] == [b"v07"]

    def test_get_many_reads_a_one_shot_iterator_like_the_single_ledger(self):
        for db in (SpitzDatabase(), ShardedDatabase(num_shards=2)):
            db.put(b"a", b"1")
            db.put(b"b", b"2")
            keys = (key for key in (b"a", b"b", b"nope"))
            assert db.get_many(keys) == [b"1", b"2", None]

    def test_single_shard_batch_stays_direct(self):
        db = ShardedDatabase(num_shards=4)
        key = b"solo"
        sibling = b"solo-2"
        # Find a second key on the same shard so the batch is single-
        # shard without being a single-item special case.
        shard = db.shard_of(key)
        i = 0
        while db.shard_of(sibling) != shard:
            i += 1
            sibling = b"solo-%d" % i
        db.put_batch({key: b"1", sibling: b"2"})
        counters = db.metrics_snapshot()["counters"]
        assert counters.get("shard.writes_direct", 0) >= 1
        assert counters.get("shard.writes_2pc", 0) == 0
        assert db.get(key) == b"1"

    def test_cross_shard_batch_commits_atomically_via_2pc(self):
        db = ShardedDatabase(num_shards=4)
        items = {b"batch-%d" % i: b"val-%d" % i for i in range(16)}
        assert len({db.shard_of(k) for k in items}) > 1
        db.put_batch(items)
        for key, value in items.items():
            assert db.get(key) == value
        counters = db.metrics_snapshot()["counters"]
        assert counters.get("shard.writes_2pc", 0) >= 1
        # No stranded prepared branches after a clean commit.
        assert db.recover_participants() == 0

    def test_digest_height_is_monotone(self):
        db = ShardedDatabase(num_shards=2)
        heights = []
        for i in range(10):
            db.put(b"m%d" % i, b"v")
            heights.append(db.digest().height)
        assert heights == sorted(heights)
        assert heights[-1] == 10

    def test_verified_point_read_against_top_digest(self):
        db = ShardedDatabase(num_shards=4)
        for i in range(30):
            db.put(b"p%02d" % i, b"val%02d" % i)
        value, proof = db.get_verified(b"p11")
        assert value == b"val11"
        verifier = ClientVerifier()
        verifier.trust(proof.digest)
        assert verifier.verify(proof)
        # Proven absence rides the same path (no writes in between, so
        # the same pinned digest anchors it).
        none_value, absence = db.get_verified(b"nope")
        assert none_value is None
        assert absence.digest == proof.digest
        assert verifier.verify(absence)

    def test_verified_multi_read_spans_shards_in_order(self):
        db = ShardedDatabase(num_shards=4)
        for i in range(30):
            db.put(b"mm%02d" % i, b"val%02d" % i)
        keys = [b"mm03", b"absent", b"mm17", b"mm28"]
        values, proof = db.get_many_verified(keys)
        assert values == [b"val03", None, b"val17", b"val28"]
        assert len(proof.parts) >= 2
        verifier = ClientVerifier()
        verifier.trust(proof.digest)
        assert verifier.verify(proof)
        assert [v for _, v in proof.entries] == values

    def test_tampered_value_fails_verification(self):
        db = ShardedDatabase(num_shards=4)
        for i in range(20):
            db.put(b"t%02d" % i, b"v%02d" % i)
        _value, proof = db.get_verified(b"t05")
        verifier = ClientVerifier()
        verifier.trust(proof.digest)
        forged_inner = dataclasses.replace(
            proof.inner,
            siri=dataclasses.replace(proof.inner.siri, value=b"evil"),
        )
        forged = dataclasses.replace(proof, inner=forged_inner)
        with pytest.raises(TamperDetectedError):
            verifier.verify_or_raise(forged)

    def test_membership_swap_fails_verification(self):
        db = ShardedDatabase(num_shards=4)
        for i in range(20):
            db.put(b"s%02d" % i, b"v%02d" % i)
        _value, proof = db.get_verified(b"s05")
        relabeled = dataclasses.replace(
            proof,
            membership=dataclasses.replace(
                proof.membership,
                shard_id=(proof.membership.shard_id + 1) % 4,
            ),
        )
        verifier = ClientVerifier()
        verifier.trust(proof.digest)
        assert not verifier.verify(relabeled)

    @staticmethod
    def _verifiers(digest):
        """A verifier warmed by an honest read and a cold one."""
        warm, cold = ClientVerifier(), ClientVerifier()
        warm.trust(digest)
        cold.trust(digest)
        return warm, cold

    def test_absence_from_a_shard_that_does_not_own_the_key_is_rejected(self):
        # The record exists on its own shard; every other shard can
        # honestly prove it absent *from that shard*.  Pairing such an
        # inner proof with that shard's genuine membership branch used
        # to verify, letting the server hide any record.
        db = ShardedDatabase(num_shards=4)
        for i in range(30):
            db.put(b"h%02d" % i, b"v%02d" % i)
        key = b"h11"
        honest_value, honest = db.get_verified(key)
        assert honest_value == b"v11"
        wrong = (db.shard_of(key) + 1) % 4
        none_value, inner = db.shards[wrong].get_verified(key)
        assert none_value is None
        top, (membership,) = anchor_shards(
            [shard.digest() for shard in db.shards], [wrong]
        )
        assert top == honest.digest
        forged = dataclasses.replace(
            honest, inner=inner, membership=membership
        )
        assert forged.value is None
        warm, cold = self._verifiers(top)
        assert warm.verify(honest)
        assert not warm.verify(forged)
        assert not cold.verify(forged)

    def test_multi_part_answered_by_the_wrong_shard_is_rejected(self):
        db = ShardedDatabase(num_shards=4)
        for i in range(30):
            db.put(b"g%02d" % i, b"v%02d" % i)
        keys = [b"g03", b"g17", b"g28"]
        _values, honest = db.get_many_verified(keys)
        victim = honest.parts[0]
        hidden = [key[len(KV_PREFIX):] for key in victim.multi.keys]
        wrong = next(
            shard for shard in range(4)
            if shard not in {part.shard_id for part in honest.parts}
        )
        none_values, multi = db.shards[wrong].get_many_verified(hidden)
        assert none_values == [None] * len(hidden)
        _top, (membership,) = anchor_shards(
            [shard.digest() for shard in db.shards], [wrong]
        )
        forged_part = dataclasses.replace(
            victim, membership=membership, multi=multi
        )
        forged = dataclasses.replace(
            honest, parts=(forged_part,) + honest.parts[1:]
        )
        assert dict(forged.entries)[victim.multi.keys[0]] is None
        warm, cold = self._verifiers(honest.digest)
        assert warm.verify(honest)
        assert not warm.verify(forged)
        assert not cold.verify(forged)

    def test_fork_detection_rejects_backwards_and_kind_swap(self):
        db = ShardedDatabase(num_shards=2)
        db.put(b"f1", b"v1")
        early = db.digest()
        db.put(b"f2", b"v2")
        late = db.digest()
        verifier = ClientVerifier()
        verifier.trust(early)
        verifier.observe(late)
        with pytest.raises(TamperDetectedError):
            verifier.observe(early)  # rollback
        # Swapping in a single-ledger digest (height could be made to
        # match) is a fork attempt, not an upgrade.
        plain = SpitzDatabase()
        plain.put(b"x", b"y")
        plain.put(b"z", b"w")
        with pytest.raises(TamperDetectedError):
            verifier.observe(plain.digest())

    def test_scan_fans_out_sorted(self):
        db = ShardedDatabase(num_shards=4)
        for i in range(30):
            db.put(b"scan%02d" % i, b"v%02d" % i)
        entries = db.scan(b"scan05", b"scan15")
        assert [k for k, _ in entries] == [
            b"scan%02d" % i for i in range(5, 16)
        ]
        with pytest.raises(QueryError):
            db.scan_verified(b"a", b"z")
        with pytest.raises(QueryError):
            db.sql("SELECT 1")

    def test_metrics_snapshot_sums_shards(self):
        db = ShardedDatabase(num_shards=4)
        for i in range(12):
            db.put(b"c%d" % i, b"v")
            db.get(b"c%d" % i)
        snapshot = db.metrics_snapshot()
        assert snapshot["gauges"]["shard.count"] == 4
        assert snapshot["counters"]["shard.writes_direct"] == 12
        assert snapshot["counters"]["shard.reads"] == 12
        # Per-shard ledger counters are summed under the shared names.
        assert snapshot["counters"]["db.commits"] == 12

    def test_verify_chain_covers_every_shard(self):
        db = ShardedDatabase(num_shards=3)
        for i in range(9):
            db.put(b"vc%d" % i, b"v")
        assert db.verify_chain()


class TestDurableShards:
    def test_reopen_recovers_every_shard(self, tmp_path):
        root = tmp_path / "fleet"
        db = ShardedDatabase(num_shards=2, durable_root=str(root))
        try:
            for i in range(8):
                db.put(b"d%d" % i, b"v%d" % i)
            before = db.digest()
        finally:
            db.close()
        reopened = ShardedDatabase(num_shards=2, durable_root=str(root))
        try:
            for i in range(8):
                assert reopened.get(b"d%d" % i) == b"v%d" % i
            after = reopened.digest()
            assert after.root == before.root
            assert after.height == before.height
            # Writes keep flowing after recovery (oracle advanced past
            # every replayed commit timestamp).
            reopened.put(b"post", b"recovery")
            assert reopened.get(b"post") == b"recovery"
        finally:
            reopened.close()
