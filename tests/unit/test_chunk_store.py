"""Unit tests for the content-addressed chunk store."""

import pickle

import pytest

from repro.core.database import SpitzDatabase
from repro.core.schema import KV_PREFIX
from repro.durability.checkpoint import load_database, save_database
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


class TestChunkStoreCheckpoint:
    """A store is not pickled: a checkpoint writes its chunks as
    records and references the store from the pickled remainder."""

    def test_a_checkpoint_leaves_the_derived_cache_out(self, tmp_path):
        """The decode cache restates the chunks; a checkpoint carries
        the chunks only, and the reloaded store serves the same roots
        and proofs."""
        db = SpitzDatabase()
        db.put_batch({b"k%04d" % i: b"v%d" % i for i in range(2000)})
        db.put(b"k1000", b"new")
        store, tree = db.chunks, db.ledger.tree
        assert store.decode_cache
        _value, proof = tree.get_with_proof(KV_PREFIX + b"k1000")
        _entries, range_proof = tree.scan_with_proof(
            KV_PREFIX + b"k0990", KV_PREFIX + b"k1010"
        )

        path = tmp_path / "db.spitz"
        size = save_database(db, path)
        # Header, the pickled remainder, then each chunk once as a
        # record: the decode cache went nowhere.
        remainder = int.from_bytes(path.read_bytes()[40:48], "big")
        assert size == 48 + remainder + 36 * len(store) + (
            store.stats.physical_bytes
        )
        reloaded = load_database(path).chunks
        assert reloaded.decode_cache == {}
        assert reloaded.stats == store.stats

        again = PosTree.load(reloaded, tree.root)
        assert again.get_with_proof(KV_PREFIX + b"k1000") == (b"new", proof)
        assert again.scan_with_proof(
            KV_PREFIX + b"k0990", KV_PREFIX + b"k1010"
        )[1] == range_proof
        assert list(again.items()) == list(tree.items())
        update = {
            KV_PREFIX + b"k0500": b"later", KV_PREFIX + b"k1500": b"later"
        }
        assert again.apply(update).root == tree.apply(update).root

    def test_a_chunk_is_its_bytes_and_is_written_as_a_record(self, store):
        """An immutable store frees nothing, so a chunk is its bytes —
        no per-chunk record beside them.  A checkpoint reads them through
        ``items()``, uncounted, and the store itself refuses pickling:
        the only way it reaches a file is as content-addressed records."""
        kept = store.put(b"kept")
        store.put(b"kept")
        assert type(store._entries[kept]) is bytes
        before = store.stats.gets
        assert list(store.items()) == [(kept, b"kept")]
        assert store.stats.gets == before
        with pytest.raises(TypeError):
            pickle.dumps(store)


class TestChunkStoreThreadSafety:
    """Regression: put() was a lockless check-then-act on the entry
    dict, so two nodes putting the same new content concurrently could
    double-insert — double-counting unique_chunks/physical_bytes.  The
    store now checks, inserts and counts under one lock; this hammer
    asserts the accounting is *exact*, not merely close."""

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
