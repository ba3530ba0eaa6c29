"""The SIRI contract, checked uniformly across all three members.

Structural invariance, recyclability and integrated proofs are the
three properties [59] uses to define the family; every member must
satisfy all of them.
"""

import random

import pytest

from repro.indexes.mbt import MerkleBucketTree
from repro.indexes.mpt import MerklePatriciaTrie
from repro.indexes.pos_tree import PosTree


def _make(kind, store):
    if kind == "pos":
        return PosTree.empty(store)
    if kind == "mpt":
        return MerklePatriciaTrie.empty(store)
    return MerkleBucketTree.empty(store, buckets=32)


def _verify(kind, proof, root):
    if kind == "pos":
        return PosTree.verify_proof(proof, root)
    if kind == "mpt":
        return MerklePatriciaTrie.verify_proof(proof, root)
    return MerkleBucketTree.verify_proof(proof, root, buckets=32)


ITEMS = [(f"key:{i:04d}".encode(), f"val{i}".encode()) for i in range(150)]


@pytest.mark.parametrize("kind", ["pos", "mpt", "mbt"])
class TestSiriContract:
    def test_structural_invariance(self, store, kind):
        one = _make(kind, store).apply(dict(ITEMS))
        shuffled = list(ITEMS)
        random.Random(13).shuffle(shuffled)
        other = _make(kind, store)
        for start in range(0, len(shuffled), 17):
            other = other.apply(dict(shuffled[start:start + 17]))
        assert one.root == other.root

    def test_recyclability_persistence(self, store, kind):
        base = _make(kind, store).apply(dict(ITEMS))
        updated = base.set(ITEMS[0][0], b"changed")
        assert base.get(ITEMS[0][0]) == ITEMS[0][1]
        assert updated.get(ITEMS[0][0]) == b"changed"
        reverted = updated.set(ITEMS[0][0], ITEMS[0][1])
        assert reverted.root == base.root

    def test_node_sharing_on_update(self, store, kind):
        base = _make(kind, store).apply(dict(ITEMS))
        before = store.stats.unique_chunks
        base.set(ITEMS[10][0], b"new-value")
        added = store.stats.unique_chunks - before
        # Far fewer new nodes than the index holds in total.
        assert added < 15

    def test_integrated_presence_proof(self, store, kind):
        index = _make(kind, store).apply(dict(ITEMS))
        value, proof = index.get_with_proof(ITEMS[42][0])
        assert value == ITEMS[42][1]
        assert _verify(kind, proof, index.root)

    def test_integrated_absence_proof(self, store, kind):
        index = _make(kind, store).apply(dict(ITEMS))
        value, proof = index.get_with_proof(b"zzz:absent")
        assert value is None
        assert _verify(kind, proof, index.root)

    def test_proofs_do_not_transfer_between_roots(self, store, kind):
        index = _make(kind, store).apply(dict(ITEMS))
        changed = index.set(ITEMS[42][0], b"other")
        _value, proof = index.get_with_proof(ITEMS[42][0])
        assert not _verify(kind, proof, changed.root)

    def test_delete_returns_to_prior_root(self, store, kind):
        base = _make(kind, store).apply(dict(ITEMS))
        extended = base.set(b"zzz:extra", b"x")
        shrunk = extended.delete(b"zzz:extra")
        assert shrunk.root == base.root

    def test_items_cover_everything(self, store, kind):
        index = _make(kind, store).apply(dict(ITEMS))
        assert sorted(index.items()) == sorted(ITEMS)

    def test_len(self, store, kind):
        index = _make(kind, store).apply(dict(ITEMS))
        assert len(index) == len(ITEMS)

    def test_apply_delete_sentinel(self, store, kind):
        index = _make(kind, store).apply(dict(ITEMS))
        dropped = index.apply({ITEMS[0][0]: None})
        assert dropped.get(ITEMS[0][0]) is None
