"""Unit tests for the Merkle Bucket Tree."""

import random

import pytest

from repro.indexes.mbt import MerkleBucketTree
from repro.indexes.siri import SiriProof


def _items(n):
    return [(f"item-{i:05d}".encode(), f"v{i}".encode()) for i in range(n)]


class TestMbtBasics:
    def test_bucket_count_must_be_power_of_two(self, store):
        with pytest.raises(ValueError):
            MerkleBucketTree.empty(store, buckets=100)

    def test_empty_get(self, store):
        tree = MerkleBucketTree.empty(store, buckets=16)
        assert tree.get(b"x") is None

    def test_set_get(self, store):
        tree = MerkleBucketTree.empty(store, buckets=16).set(b"k", b"v")
        assert tree.get(b"k") == b"v"

    def test_overwrite(self, store):
        tree = MerkleBucketTree.empty(store, buckets=16)
        tree = tree.set(b"k", b"1").set(b"k", b"2")
        assert tree.get(b"k") == b"2"

    def test_delete(self, store):
        tree = MerkleBucketTree.from_items(store, _items(30), buckets=16)
        dropped = tree.apply({b"item-00005": None})
        assert dropped.get(b"item-00005") is None
        assert tree.get(b"item-00005") == b"v5"

    def test_items_sorted(self, store):
        items = _items(120)
        tree = MerkleBucketTree.from_items(store, items, buckets=32)
        assert list(tree.items()) == sorted(items)

    def test_empty_batch_returns_self(self, store):
        tree = MerkleBucketTree.empty(store, buckets=8)
        assert tree.apply({}) is tree


class TestMbtInvariance:
    def test_order_independence(self, store):
        items = _items(200)
        bulk = MerkleBucketTree.from_items(store, items, buckets=64)
        shuffled = list(items)
        random.Random(5).shuffle(shuffled)
        incremental = MerkleBucketTree.empty(store, buckets=64)
        for start in range(0, len(shuffled), 11):
            incremental = incremental.apply(
                dict(shuffled[start:start + 11])
            )
        assert incremental.root == bulk.root

    def test_delete_matches_fresh_build(self, store):
        items = _items(80)
        full = MerkleBucketTree.from_items(store, items, buckets=32)
        dropped = full.apply({items[3][0]: None})
        rebuilt = MerkleBucketTree.from_items(
            store, items[:3] + items[4:], buckets=32
        )
        assert dropped.root == rebuilt.root

    def test_different_bucket_counts_different_roots(self, store):
        items = _items(50)
        a = MerkleBucketTree.from_items(store, items, buckets=16)
        b = MerkleBucketTree.from_items(store, items, buckets=32)
        assert a.root != b.root


class TestMbtProofs:
    def test_presence_proof(self, store):
        tree = MerkleBucketTree.from_items(store, _items(150), buckets=64)
        value, proof = tree.get_with_proof(b"item-00042")
        assert value == b"v42"
        assert MerkleBucketTree.verify_proof(proof, tree.root, buckets=64)

    def test_absence_proof(self, store):
        tree = MerkleBucketTree.from_items(store, _items(150), buckets=64)
        value, proof = tree.get_with_proof(b"missing")
        assert value is None
        assert MerkleBucketTree.verify_proof(proof, tree.root, buckets=64)

    def test_forged_value_rejected(self, store):
        tree = MerkleBucketTree.from_items(store, _items(50), buckets=32)
        _value, proof = tree.get_with_proof(b"item-00001")
        forged = SiriProof(key=proof.key, value=b"evil", nodes=proof.nodes)
        assert not MerkleBucketTree.verify_proof(
            forged, tree.root, buckets=32
        )

    def test_wrong_bucket_count_rejected(self, store):
        tree = MerkleBucketTree.from_items(store, _items(50), buckets=32)
        _value, proof = tree.get_with_proof(b"item-00001")
        assert not MerkleBucketTree.verify_proof(
            proof, tree.root, buckets=64
        )

    def test_truncated_proof_rejected(self, store):
        tree = MerkleBucketTree.from_items(store, _items(50), buckets=32)
        _value, proof = tree.get_with_proof(b"item-00001")
        forged = SiriProof(
            key=proof.key, value=proof.value, nodes=proof.nodes[:-1]
        )
        assert not MerkleBucketTree.verify_proof(
            forged, tree.root, buckets=32
        )

    def test_proof_path_length_is_fixed(self, store):
        tree = MerkleBucketTree.from_items(store, _items(50), buckets=32)
        _value, proof = tree.get_with_proof(b"item-00001")
        # log2(32) interior nodes + 1 bucket node
        assert len(proof.nodes) == 6
