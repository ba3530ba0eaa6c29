"""Unit tests for the content-addressed chunk store."""

import pickle

import pytest

from repro.errors import ChunkNotFoundError
from repro.forkbase.chunk_store import ChunkStore
from repro.indexes.pos_tree import PosTree


class TestChunkStore:
    def test_put_get_round_trip(self, store):
        address = store.put(b"hello")
        assert store.get(address) == b"hello"

    def test_content_addressing_deduplicates(self, store):
        first = store.put(b"same")
        second = store.put(b"same")
        assert first == second
        assert len(store) == 1
        assert store.stats.physical_bytes == 4
        assert store.stats.logical_bytes == 8

    def test_distinct_content_distinct_addresses(self, store):
        assert store.put(b"a") != store.put(b"b")

    def test_missing_chunk_raises(self, store):
        from repro.crypto.hashing import hash_bytes

        with pytest.raises(ChunkNotFoundError):
            store.get(hash_bytes(b"never stored"))

    def test_get_optional_returns_none(self, store):
        from repro.crypto.hashing import hash_bytes

        assert store.get_optional(hash_bytes(b"nope")) is None

    def test_dedup_ratio(self, store):
        for _ in range(4):
            store.put(b"0123456789")
        assert store.stats.dedup_ratio == pytest.approx(4.0)

    def test_empty_store_ratio_is_one(self, store):
        assert store.stats.dedup_ratio == 1.0

    def test_addresses_iteration(self, store):
        a = store.put(b"1")
        b = store.put(b"2")
        assert {a, b} == set(store.addresses())


class TestChunkStorePickling:
    def test_snapshot_leaves_the_derived_cache_out(self, store):
        """The decode cache restates the chunks; a pickled store carries
        the chunks only and serves the same roots and proofs once
        reloaded."""
        items = [(b"k%04d" % i, b"v%d" % i) for i in range(2000)]
        tree = PosTree.from_items(store, items).apply({b"k1000": b"new"})
        assert store.decode_cache
        _value, proof = tree.get_with_proof(b"k1000")
        _entries, range_proof = tree.scan_with_proof(b"k0990", b"k1010")

        blob = pickle.dumps(store)
        assert "decode_cache" not in store.__getstate__()
        carrying_it = pickle.dumps(
            dict(vars(store), _stripes=None, _stats_lock=None)
        )
        assert len(blob) < len(carrying_it)
        reloaded = pickle.loads(blob)
        assert reloaded.decode_cache == {}
        assert reloaded.stats == store.stats

        again = PosTree.load(reloaded, tree.root)
        assert again.get_with_proof(b"k1000") == (b"new", proof)
        assert again.scan_with_proof(b"k0990", b"k1010")[1] == range_proof
        assert list(again.items()) == list(tree.items())
        update = {b"k0500": b"later", b"k1500": b"later"}
        assert again.apply(update).root == tree.apply(update).root

    def test_a_chunk_is_its_bytes_and_round_trips(self, store):
        """An immutable store frees nothing, so a chunk is its bytes —
        no per-chunk record beside them — and checkpoints still pickle
        it under every protocol."""
        kept = store.put(b"kept")
        store.put(b"kept")
        assert type(store._entries[kept]) is bytes
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            reloaded = pickle.loads(pickle.dumps(store, protocol=protocol))
            assert reloaded.stats == store.stats
            assert reloaded.get(kept) == b"kept"


class TestChunkStoreThreadSafety:
    """Regression: put() was a lockless check-then-act on the entry
    dict, so two nodes putting the same new content concurrently could
    double-insert — double-counting unique_chunks/physical_bytes.  The
    store now stripes locks by address prefix; this hammer asserts the
    accounting is *exact*, not merely close."""

    @pytest.mark.stress
    def test_concurrent_puts_of_same_content_count_exactly(self):
        import threading

        store = ChunkStore()
        threads_n, rounds = 8, 200
        # Every thread puts the same `rounds` distinct payloads, racing
        # the first-insert of each address `threads_n` ways.
        payloads = [f"chunk-{i:04d}".encode() for i in range(rounds)]
        barrier = threading.Barrier(threads_n)

        def worker():
            barrier.wait()
            for payload in payloads:
                store.put(payload)

        threads = [
            threading.Thread(target=worker) for _ in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        expected_bytes = sum(len(p) for p in payloads)
        assert len(store) == rounds
        assert store.stats.unique_chunks == rounds
        assert store.stats.physical_bytes == expected_bytes
        assert store.stats.puts == threads_n * rounds
        assert store.stats.logical_bytes == threads_n * expected_bytes
