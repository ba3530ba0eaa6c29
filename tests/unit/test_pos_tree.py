"""Unit tests for the POS-tree (SIRI member Spitz's ledger uses)."""

import random
import tracemalloc

import pytest

from repro.core.database import SpitzDatabase
from repro.crypto.hashing import hash_bytes
from repro.durability.checkpoint import load_database, save_database
from repro.forkbase.chunk_store import Delta
from repro.indexes.pos_tree import DEFAULT_MASK_BITS, PosTree
from repro.indexes.siri import SiriProof, decode_node

#: The most a delta's head takes in these trees: varints of its base's
#: position, ``prefix << 1 | cut`` and the suffix, two bytes each.
DELTA_HEAD = 6
#: A multi-hunk delta's head: the same, then a copy count (u16); each
#: copy is three u16s.
MULTI_HUNK_HEAD = DELTA_HEAD + 2


def _delta(store, address):
    """``(stored form, base address, cut, head length)`` of the delta
    ``address`` is held as; its base is named by position."""
    stored = dict(store.items())[address]
    assert isinstance(stored, Delta)
    position, word, _suffix, head = stored.head()
    return stored, list(store.addresses())[position], bool(word & 1), head


def _items(n, prefix="k"):
    return [
        (f"{prefix}{i:06d}".encode(), f"v{i}".encode()) for i in range(n)
    ]


class TestConstruction:
    def test_empty(self, store):
        tree = PosTree.empty(store)
        assert tree.count == 0
        assert tree.get(b"anything") is None

    def test_from_items(self, store):
        tree = PosTree.from_items(store, _items(100))
        assert tree.count == 100
        assert tree.get(b"k000042") == b"v42"

    def test_from_items_duplicate_keys_last_wins(self, store):
        tree = PosTree.from_items(store, [(b"k", b"1"), (b"k", b"2")])
        assert tree.get(b"k") == b"2"

    def test_load_reconstructs(self, store):
        tree = PosTree.from_items(store, _items(500))
        loaded = PosTree.load(store, tree.root)
        assert loaded.root == tree.root
        assert loaded.count == 500
        assert loaded.get(b"k000123") == b"v123"

    def test_load_single_leaf_tree(self, store):
        tree = PosTree.from_items(store, _items(3))
        loaded = PosTree.load(store, tree.root)
        assert list(loaded.items()) == list(tree.items())


class TestStructuralInvariance:
    def test_insertion_order_irrelevant(self, store):
        items = _items(300)
        bulk = PosTree.from_items(store, items)
        shuffled = list(items)
        random.Random(9).shuffle(shuffled)
        incremental = PosTree.empty(store)
        for key, value in shuffled:
            incremental = incremental.apply({key: value})
        assert incremental.root == bulk.root

    def test_batching_irrelevant(self, store):
        items = _items(300)
        one_batch = PosTree.empty(store).apply(dict(items))
        many = PosTree.empty(store)
        for start in range(0, 300, 7):
            many = many.apply(dict(items[start:start + 7]))
        assert one_batch.root == many.root

    def test_update_then_revert_restores_root(self, store):
        tree = PosTree.from_items(store, _items(200))
        modified = tree.apply({b"k000050": b"other"})
        reverted = modified.apply({b"k000050": b"v50"})
        assert reverted.root == tree.root

    def test_delete_matches_fresh_build(self, store):
        items = _items(200)
        tree = PosTree.from_items(store, items)
        dropped = tree.apply({items[17][0]: None})
        rebuilt = PosTree.from_items(
            store, items[:17] + items[18:]
        )
        assert dropped.root == rebuilt.root

    def test_delete_everything_is_canonical_empty(self, store):
        tree = PosTree.from_items(store, _items(64))
        emptied = tree.apply({key: None for key, _ in _items(64)})
        assert emptied.root == PosTree.empty(store).root


class TestPersistence:
    def test_apply_does_not_mutate_receiver(self, store):
        tree = PosTree.from_items(store, _items(50))
        tree.apply({b"k000001": b"changed"})
        assert tree.get(b"k000001") == b"v1"

    def test_node_sharing(self, store):
        tree = PosTree.from_items(store, _items(2000))
        before = store.stats.unique_chunks
        tree.apply({b"k001000": b"changed"})
        # Only the path to one leaf is rewritten.
        assert store.stats.unique_chunks - before <= 2 * tree.height

    def test_empty_apply_returns_self(self, store):
        tree = PosTree.from_items(store, _items(10))
        assert tree.apply({}) is tree


def _decoded_path(tree, key):
    """The store's decoded nodes on ``key``'s path, root first."""
    path = []
    address = tree.root
    while True:
        node = tree.store.decode_cache[address]
        path.append(node)
        if node[0] == "L":
            return path
        listed = [first_key for first_key, _child in node[1]]
        index = max(
            sum(first_key <= key for first_key in listed) - 1, 0
        )
        address = node[1][index][1]


def _decoded_nodes(tree):
    """The store's decoded nodes of the whole tree."""
    pending = [tree.root]
    while pending:
        node = tree.store.decode_cache[pending.pop()]
        yield node
        if node[0] == "B":
            pending += [child for _first_key, child in node[1]]


class TestVersionSharing:
    def test_versions_share_unchanged_pairs_by_identity(self, store):
        """Captured before the apply: the apply drops from the decode
        cache the old nodes its new version stops sharing."""
        tree = PosTree.from_items(store, _items(3000), mask_bits=3)
        # A key whose rewrite keeps the height: branch split points hash
        # their children's addresses, so they move with the node bytes.
        key = b"k001501"
        old_path = _decoded_path(tree, key)
        # A level's rewritten node may share nothing with its
        # predecessor (a one-pair branch whose one child changed), so
        # the property is asserted over the whole old tree.
        was = {pair: pair for node in _decoded_nodes(tree) for pair in node[1]}
        changed = tree.apply({key: b"changed"})
        assert tree.root not in store.decode_cache
        new_path = _decoded_path(changed, key)
        assert len(old_path) == len(new_path) == changed.height > 2
        for old, new in zip(old_path, new_path):
            assert new is not old
            assert all(pair is was[pair] for pair in new[1] if pair in was)
        assert set(new_path[-1][1]) & set(old_path[-1][1])

    def test_handle_state_is_the_root(self, store):
        tree = PosTree.from_items(store, _items(500))
        assert set(vars(tree)) == {"store", "mask_bits", "_root"}

    def test_single_key_apply_allocates_a_path_not_a_level(self, store):
        """Memory guard: one single-key apply on a 200k-key tree (6 000
        leaves) peaks under 64 KB — the nodes on one path — where
        per-level lists cost 8 bytes a leaf, twice over."""
        tree = PosTree.from_items(
            store,
            [(b"k%07d" % i, b"v%07d" % i + b"x" * 92) for i in range(200_000)],
        )
        tree.apply({b"k0100000": b"warm"})
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _peak = tracemalloc.get_traced_memory()
            tree.apply({b"k0100001": b"changed" + b"y" * 93})
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 64 * 1024, f"apply peak {peak - before} bytes"


class TestHistoryAsDeltas:
    """Node layout v4 makes an insert, a delete or an overwrite one
    contiguous edit, so every node an apply retires is stored as about
    the one row it differs by from its successor."""

    def test_an_insert_retires_its_leaf_as_a_delta_of_one_row(self, store):
        tree = PosTree.from_items(store, _items(1000))
        key = b"k000500x"  # between k000500 and k000501: a new pair
        old_leaf = _leaf_address(tree, key)
        row = 1 + len(key) + 32  # at most: length, whole key, digest
        newer = tree.apply({key: b"inserted"})
        stored, base, cut, head = _delta(store, old_leaf)
        assert not cut and head <= DELTA_HEAD
        assert len(stored) <= head + row
        assert base == _leaf_address(newer, key)
        assert hash_bytes(store.get(old_leaf)) == old_leaf
        assert tree.get(b"k000500") == b"v500" and tree.get(key) is None

    def test_a_one_row_overwrite_of_a_leaf_stores_a_head_of_8_bytes(
        self, store
    ):
        """A ≈ 1 KB leaf, one row overwritten: its delta names its
        successor by position in a head of at most 8 bytes, where an
        address alone took 32."""
        tree = PosTree.from_items(store, _items(5000, prefix="key "))
        leaf, pairs = next(
            (address, pairs) for address, pairs in _leaves(tree)
            if 900 <= len(store.get(address)) <= 1200
        )
        key = pairs[len(pairs) // 2][0]
        newer = tree.apply({key: b"overwritten"})
        stored, base, cut, head = _delta(store, leaf)
        assert base == _leaf_address(newer, key) and not cut
        assert head <= 8 and len(stored) <= head + 32 + 2

    def test_a_batch_that_edits_a_leaf_twice_stores_its_edits(self, store):
        """Two inserts near the two ends of one leaf, in one batch: a
        one-hunk delta would hold every row between them, but the
        retired leaf's delta copies those rows from its successor — its
        multi-hunk head, one copy, and no row at all."""
        tree = PosTree.from_items(store, [
            (b"k%06d" % i, b"v%d" % i) for i in range(0, 2000, 2)
        ])
        old_leaf = _leaf_address(tree, b"k001000")
        keys = [key for key, _digest in decode_node(store.get(old_leaf))[1]]
        low, high = (
            b"k%06d" % (int(key[1:]) + 1) for key in (keys[0], keys[-2])
        )
        newer = tree.apply({low: b"a", high: b"b"})
        assert _leaf_address(newer, low) == _leaf_address(newer, high)
        stored, _base, cut, head = _delta(store, old_leaf)
        assert cut and head <= DELTA_HEAD
        # The rows strictly between the two edits, each at least a
        # length byte and a digest.
        between = (len(keys) - 3) * (1 + 32)
        assert len(stored) == head + 2 + 6 < head + between
        assert hash_bytes(store.get(old_leaf)) == old_leaf
        assert tree.get(low) is None and newer.get(low) == b"a"

    def test_a_split_stores_its_leaf_against_the_sibling_with_its_rows(
        self, store
    ):
        """An overwrite makes a leaf's first pair a split point: the pair
        goes off on its own and the leaf's other rows stay together.
        The retired leaf is stored against the node holding those rows,
        as the one row it differs by."""
        tree = PosTree.from_items(store, _items(1000))
        leaf = _leaf_address(tree, b"k000500")
        keys = [key for key, _digest in decode_node(store.get(leaf))[1]]
        first, second = keys[:2]
        value = next(
            value for value in (b"s%d" % n for n in range(10_000))
            if _splits_after(first, value)
        )
        newer = tree.apply({first: value})
        sibling = _leaf_address(newer, second)
        assert _leaf_address(newer, first) != sibling
        assert decode_node(store.get(sibling))[1][-1][0] == keys[-1]
        stored, base, _cut, _head = _delta(store, leaf)
        assert base == sibling
        row = 1 + len(first) + 32  # at most: length, whole key, digest
        assert len(stored) <= DELTA_HEAD + row
        assert hash_bytes(store.get(leaf)) == leaf

    def test_a_merge_that_shortens_the_prefix_copies_each_shared_row(
        self, store
    ):
        """An overwrite takes the split point off a leaf's last pair, so
        it merges with its right neighbour under a shorter prefix: every
        row it shares with the merged leaf is a copy shifted by the
        prefix difference, costing a copy (6 B) and its length byte, and
        the rewritten row and the header are literal."""
        tree = PosTree.from_items(store, _items(1000))
        leaves = _leaves(tree)
        cut, leaf, pairs = next(
            (cut, address, pairs)
            for (address, pairs), (_right, after) in zip(leaves, leaves[1:])
            if (cut := _prefix(pairs[0][0], pairs[-1][0]))
            > _prefix(pairs[0][0], after[-1][0])
        )
        last = pairs[-1][0]
        value = next(
            value for value in (b"m%d" % n for n in range(10_000))
            if not _splits_after(last, value)
        )
        newer = tree.apply({last: value})
        merged = _leaf_address(newer, last)
        assert _leaf_address(newer, pairs[0][0]) == merged
        assert decode_node(store.get(merged))[1][-1][0] > last
        stored, base, cut, _head = _delta(store, leaf)
        assert base == merged and cut
        shared = len(pairs) - 1
        unshared = 1 + len(last) - cut + 32
        header = 2 + cut
        assert len(stored) <= (
            MULTI_HUNK_HEAD + header + 7 * shared + unshared
        )
        assert hash_bytes(store.get(leaf)) == leaf
        assert newer.get(last) == value and tree.get(last) != value

    def test_every_historical_node_rebuilds_after_a_checkpoint(
        self, tmp_path
    ):
        """Random insert, delete and overwrite batches, then a
        ``save_database``/``load_database`` round trip: every node under
        every block's root rebuilds to bytes that hash to its address."""
        rng = random.Random(35)
        db = SpitzDatabase()
        live = set()
        for _batch in range(12):
            writes = {}
            for _ in range(rng.randint(1, 60)):
                key = b"k%04d" % rng.randrange(400)
                writes[key] = (
                    None if key in live and rng.random() < 0.3
                    else b"v%d" % rng.randrange(10**6)
                )
            for key, value in writes.items():
                if value is None:
                    db.delete(key)
                    live.discard(key)
            db.put_batch({k: v for k, v in writes.items() if v is not None})
            live.update(k for k, v in writes.items() if v is not None)
        save_database(db, tmp_path / "snapshot")
        restored = load_database(tmp_path / "snapshot")
        chunks = restored.chunks
        assert sum(isinstance(data, Delta) for _a, data in chunks.items()) > 50
        seen = set()
        for height in range(restored.ledger.height):
            pending = [restored.ledger.block(height).tree_root]
            while pending:
                address = pending.pop()
                if address in seen:
                    continue
                seen.add(address)
                raw = chunks.get(address)
                assert hash_bytes(raw) == address
                tag, pairs = decode_node(raw)
                if tag == "B":
                    pending += [child for _key, child in pairs]
        assert restored.digest() == db.digest()


class TestPinnedHistory:
    """One deterministic history — a 5 000-record preload in five
    blocks, then 500 single puts and 50 deletes — and what it stores:
    physical bytes, the tip root and the chain digest, pinned.  An apply
    splices a rewritten node's kept rows from their stored bytes and
    names a retired node's delta from the same edit; neither may move a
    byte of what is stored, and a moved byte moves one of these."""

    PHYSICAL_BYTES = 1_113_427
    TIP_ROOT = (
        "82da999d1f15d8ab435f8fc571301da04c448de36b92083eea2ebdfb1a01cef5"
    )
    CHAIN_DIGEST = (
        "9a80ce353a3871cd0533c94fdc780192d4d1d5ff1a67e55fdd2176a4d504ef8c"
    )

    @staticmethod
    def _history():
        def key(n):
            return hash_bytes(b"key %d" % n)[:8].hex().encode()

        def value(n, version=0):
            return (hash_bytes(b"value %d %d" % (n, version)) * 4)[:100]

        db = SpitzDatabase()
        for block in range(5):
            db.put_batch({
                key(n): value(n)
                for n in range(block * 1000, block * 1000 + 1000)
            })
        for n in range(500):
            # Overwrites, every fourth a new key beyond the preload.
            target = 5000 + n if n % 4 == 3 else (n * 7919) % 5000
            db.put(key(target), value(target, 1))
        for n in range(50):
            db.delete(key((n * 104729) % 5000))
        return db

    def test_the_history_stores_the_pinned_bytes(self):
        db = self._history()
        digest = db.digest()
        assert db.chunks.stats.physical_bytes == self.PHYSICAL_BYTES
        assert digest.tree_root.hex() == self.TIP_ROOT
        assert digest.chain_digest.hex() == self.CHAIN_DIGEST


def _splits_after(key, value):
    """Whether the leaf pair ``key → value`` is a split point at the
    default width (``pos_tree._Run._ends_node``)."""
    digest = hash_bytes(key + hash_bytes(value))
    mask = (1 << DEFAULT_MASK_BITS) - 1
    return int.from_bytes(digest[:4], "big") & mask == 0


def _prefix(first, last):
    """The length of the longest common prefix of two keys."""
    return next(
        (at for at, (a, b) in enumerate(zip(first, last)) if a != b),
        min(len(first), len(last)),
    )


def _leaves(tree):
    """Every leaf as ``(address, pairs)``, left to right."""
    found = []

    def walk(address):
        tag, pairs = decode_node(tree.store.get(address))
        if tag == "L":
            found.append((address, pairs))
        else:
            for _key, child in pairs:
                walk(child)

    walk(tree.root)
    return found


def _leaf_address(tree, key):
    """The address of the leaf on ``key``'s path."""
    address = tree.root
    node = decode_node(tree.store.get(address))
    while node[0] == "B":
        listed = [first_key for first_key, _child in node[1]]
        index = max(sum(first <= key for first in listed) - 1, 0)
        address = node[1][index][1]
        node = decode_node(tree.store.get(address))
    return address


class TestReads:
    def test_absent_key(self, store):
        tree = PosTree.from_items(store, _items(100))
        assert tree.get(b"zzz") is None
        assert tree.get(b"") is None

    def test_items_sorted(self, store):
        items = _items(150)
        shuffled = list(items)
        random.Random(4).shuffle(shuffled)
        tree = PosTree.from_items(store, shuffled)
        assert list(tree.items()) == sorted(items)

    def test_scan_inclusive_bounds(self, store):
        tree = PosTree.from_items(store, _items(100))
        result = tree.scan(b"k000010", b"k000019")
        assert [k for k, _ in result] == [
            f"k{i:06d}".encode() for i in range(10, 20)
        ]

    def test_scan_empty_range(self, store):
        tree = PosTree.from_items(store, _items(20))
        assert tree.scan(b"x", b"y") == []

    def test_scan_whole_tree(self, store):
        tree = PosTree.from_items(store, _items(64))
        assert len(tree.scan(b"", b"\xff" * 8)) == 64

    def test_len_matches_count(self, store):
        tree = PosTree.from_items(store, _items(37))
        assert len(tree) == tree.count == 37


class TestProofs:
    def test_present_key_proof(self, store):
        tree = PosTree.from_items(store, _items(500))
        value, proof = tree.get_with_proof(b"k000321")
        assert value == b"v321"
        assert PosTree.verify_proof(proof, tree.root)

    def test_absence_proof(self, store):
        tree = PosTree.from_items(store, _items(500))
        value, proof = tree.get_with_proof(b"not-there")
        assert value is None
        assert PosTree.verify_proof(proof, tree.root)

    def test_forged_value_rejected(self, store):
        tree = PosTree.from_items(store, _items(100))
        _value, proof = tree.get_with_proof(b"k000001")
        forged = SiriProof(key=proof.key, value=b"evil", nodes=proof.nodes)
        assert not PosTree.verify_proof(forged, tree.root)

    def test_forged_absence_rejected(self, store):
        tree = PosTree.from_items(store, _items(100))
        _value, proof = tree.get_with_proof(b"k000001")
        forged = SiriProof(key=proof.key, value=None, nodes=proof.nodes)
        assert not PosTree.verify_proof(forged, tree.root)

    def test_wrong_root_rejected(self, store):
        tree = PosTree.from_items(store, _items(100))
        other = tree.apply({b"k000001": b"new"})
        _value, proof = tree.get_with_proof(b"k000002")
        # Same value exists in both trees, but the proof binds to the
        # old root's node set.
        assert PosTree.verify_proof(proof, tree.root)

    def test_tampered_node_bytes_rejected(self, store):
        tree = PosTree.from_items(store, _items(100))
        _value, proof = tree.get_with_proof(b"k000001")
        nodes = list(proof.nodes)
        nodes[0] = nodes[0][:-1] + bytes([nodes[0][-1] ^ 1])
        forged = SiriProof(
            key=proof.key, value=proof.value, nodes=tuple(nodes)
        )
        assert not PosTree.verify_proof(forged, tree.root)

    def test_empty_proof_rejected(self, store):
        tree = PosTree.from_items(store, _items(10))
        forged = SiriProof(key=b"k", value=None, nodes=())
        assert not PosTree.verify_proof(forged, tree.root)

    def test_proof_with_cache_consistent(self, store):
        tree = PosTree.from_items(store, _items(300))
        cache = {}
        for key in (b"k000001", b"k000002", b"k000003"):
            _value, proof = tree.get_with_proof(key)
            assert PosTree.verify_proof(proof, tree.root, cache)
        assert cache  # upper nodes were memoized
        # A forged proof must still fail with a warm cache.
        _value, proof = tree.get_with_proof(b"k000004")
        forged = SiriProof(key=proof.key, value=b"bad", nodes=proof.nodes)
        assert not PosTree.verify_proof(forged, tree.root, cache)


class TestRangeProofs:
    def test_range_proof_verifies(self, store):
        tree = PosTree.from_items(store, _items(400))
        entries, proof = tree.scan_with_proof(b"k000100", b"k000149")
        assert len(entries) == 50
        assert proof.verify(tree.root)

    def test_dropped_entry_rejected(self, store):
        tree = PosTree.from_items(store, _items(200))
        _entries, proof = tree.scan_with_proof(b"k000010", b"k000029")
        forged = type(proof)(
            low=proof.low,
            high=proof.high,
            entries=proof.entries[:-1],
            nodes=proof.nodes,
            root=proof.root,
        )
        assert not forged.verify(tree.root)

    def test_added_entry_rejected(self, store):
        tree = PosTree.from_items(store, _items(200))
        _entries, proof = tree.scan_with_proof(b"k000010", b"k000029")
        forged = type(proof)(
            low=proof.low,
            high=proof.high,
            entries=proof.entries + ((b"k999999", b"bogus"),),
            nodes=proof.nodes,
            root=proof.root,
        )
        assert not forged.verify(tree.root)

    def test_wrong_root_rejected(self, store):
        tree = PosTree.from_items(store, _items(200))
        other = tree.apply({b"k000000": b"x"})
        _entries, proof = tree.scan_with_proof(b"k000010", b"k000029")
        assert not proof.verify(other.root)

    def test_empty_range_proof(self, store):
        tree = PosTree.from_items(store, _items(50))
        entries, proof = tree.scan_with_proof(b"zzz", b"zzzz")
        assert entries == []
        assert proof.verify(tree.root)


class TestMaskBits:
    @pytest.mark.parametrize("mask_bits", [2, 3, 5, 7])
    def test_invariance_across_node_sizes(self, store, mask_bits):
        items = _items(200)
        bulk = PosTree.from_items(store, items, mask_bits=mask_bits)
        incremental = PosTree.empty(store, mask_bits=mask_bits)
        for start in range(0, 200, 13):
            incremental = incremental.apply(dict(items[start:start + 13]))
        assert incremental.root == bulk.root

    def test_different_mask_different_root(self, store):
        items = _items(100)
        a = PosTree.from_items(store, items, mask_bits=3)
        b = PosTree.from_items(store, items, mask_bits=6)
        # Different node geometry => different node set => different root.
        assert a.root != b.root
