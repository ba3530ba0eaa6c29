"""Unit tests for the Merkle Patricia Trie."""

import random

import pytest

from repro.indexes.mpt import MerklePatriciaTrie
from repro.indexes.siri import SiriProof


def _items(n):
    return [(f"user:{i:05d}".encode(), f"v{i}".encode()) for i in range(n)]


class TestMptBasics:
    def test_empty(self, store):
        trie = MerklePatriciaTrie.empty(store)
        assert trie.get(b"x") is None

    def test_set_get(self, store):
        trie = MerklePatriciaTrie.empty(store).set(b"key", b"value")
        assert trie.get(b"key") == b"value"

    def test_overwrite(self, store):
        trie = MerklePatriciaTrie.empty(store).set(b"k", b"1").set(b"k", b"2")
        assert trie.get(b"k") == b"2"

    def test_prefix_keys_coexist(self, store):
        trie = MerklePatriciaTrie.from_items(
            store, [(b"do", b"1"), (b"dog", b"2"), (b"doge", b"3")]
        )
        assert trie.get(b"do") == b"1"
        assert trie.get(b"dog") == b"2"
        assert trie.get(b"doge") == b"3"
        assert trie.get(b"d") is None

    def test_items_sorted(self, store):
        items = _items(200)
        shuffled = list(items)
        random.Random(2).shuffle(shuffled)
        trie = MerklePatriciaTrie.from_items(store, shuffled)
        assert sorted(trie.items()) == sorted(items)

    def test_persistence(self, store):
        base = MerklePatriciaTrie.from_items(store, _items(50))
        modified = base.set(b"user:00001", b"changed")
        assert base.get(b"user:00001") == b"v1"
        assert modified.get(b"user:00001") == b"changed"


class TestMptInvariance:
    def test_order_independence(self, store):
        items = _items(300)
        bulk = MerklePatriciaTrie.from_items(store, items)
        shuffled = list(items)
        random.Random(7).shuffle(shuffled)
        incremental = MerklePatriciaTrie.empty(store)
        for key, value in shuffled:
            incremental = incremental.set(key, value)
        assert incremental.root == bulk.root

    def test_delete_restores_structure(self, store):
        items = _items(100)
        without = MerklePatriciaTrie.from_items(store, items[:-1])
        trie = MerklePatriciaTrie.from_items(store, items)
        dropped = trie.delete(items[-1][0])
        assert dropped.root == without.root

    def test_delete_all_restores_empty_root(self, store):
        items = _items(60)
        trie = MerklePatriciaTrie.from_items(store, items)
        emptied = trie.apply({key: None for key, _ in items})
        assert emptied.root == MerklePatriciaTrie.empty(store).root

    def test_delete_absent_key_is_noop(self, store):
        trie = MerklePatriciaTrie.from_items(store, _items(20))
        assert trie.delete(b"ghost").root == trie.root

    def test_branch_collapse_after_delete(self, store):
        # Two keys diverging at one nibble; deleting one must collapse
        # the branch back into a leaf/extension chain.
        trie = MerklePatriciaTrie.from_items(
            store, [(b"aa", b"1"), (b"ab", b"2")]
        )
        only_aa = MerklePatriciaTrie.from_items(store, [(b"aa", b"1")])
        assert trie.delete(b"ab").root == only_aa.root


class TestMptProofs:
    def test_presence_proof(self, store):
        trie = MerklePatriciaTrie.from_items(store, _items(200))
        value, proof = trie.get_with_proof(b"user:00123")
        assert value == b"v123"
        assert MerklePatriciaTrie.verify_proof(proof, trie.root)

    def test_absence_proof(self, store):
        trie = MerklePatriciaTrie.from_items(store, _items(200))
        value, proof = trie.get_with_proof(b"user:99999")
        assert value is None
        assert MerklePatriciaTrie.verify_proof(proof, trie.root)

    def test_forged_value_rejected(self, store):
        trie = MerklePatriciaTrie.from_items(store, _items(50))
        _value, proof = trie.get_with_proof(b"user:00001")
        forged = SiriProof(key=proof.key, value=b"evil", nodes=proof.nodes)
        assert not MerklePatriciaTrie.verify_proof(forged, trie.root)

    def test_wrong_root_rejected(self, store):
        trie = MerklePatriciaTrie.from_items(store, _items(50))
        other = trie.set(b"user:00001", b"x")
        _value, proof = trie.get_with_proof(b"user:00002")
        assert not MerklePatriciaTrie.verify_proof(
            proof, other.root
        ) or other.get(b"user:00002") == b"v2"

    def test_empty_proof_rejected(self, store):
        trie = MerklePatriciaTrie.from_items(store, _items(5))
        forged = SiriProof(key=b"k", value=None, nodes=())
        assert not MerklePatriciaTrie.verify_proof(forged, trie.root)

    def test_empty_trie_absence_proof(self, store):
        trie = MerklePatriciaTrie.empty(store)
        value, proof = trie.get_with_proof(b"anything")
        assert value is None
        assert MerklePatriciaTrie.verify_proof(proof, trie.root)
