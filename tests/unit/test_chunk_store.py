"""Unit tests for the content-addressed chunk store."""

import pickle
import struct

import pytest

from repro.core.database import SpitzDatabase
from repro.core.schema import KV_PREFIX
from repro.durability.checkpoint import load_database, save_database
from repro.errors import ChunkNotFoundError
from repro.forkbase.chunk_store import MAX_CHAIN, ChunkStore, Delta
from repro.indexes.pos_tree import PosTree
from repro.indexes.siri import decode_node, varint, varint_at


def _reloaded(store):
    """The addresses a checkpoint's load derives for ``store``'s chunks
    in their stored forms, in order (None: a delta that does not
    rebuild); ``store``'s own addresses when every delta rebuilds to
    bytes that hash to its address."""
    return ChunkStore().load(
        (data, isinstance(data, Delta)) for _address, data in store.items()
    )


def _nodes_under(store, address):
    """Addresses of every node under (and including) ``address``."""
    tag, pairs = decode_node(store.get(address))
    found = {address}
    if tag == "B":
        for _key, child in pairs:
            found |= _nodes_under(store, child)
    return found


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
    records after a manifest that names their count and bytes."""

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
        # Header, the manifest, then each chunk once as a record: the
        # decode cache went nowhere.
        manifest = int.from_bytes(path.read_bytes()[40:48], "big")
        assert size == 48 + manifest + sum(
            len(varint(len(data) << 1)) + len(data)
            for _address, data in store.items()
        )
        reloaded = load_database(path).chunks
        assert reloaded.stats == store.stats
        # Load decodes the tip from the chunks (its live-set check walks
        # it); beside it is only the empty leaf every ledger starts from.
        tip = _nodes_under(reloaded, tree.root)
        assert tip <= set(reloaded.decode_cache)
        assert len(reloaded.decode_cache) == len(tip) + 1

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


class TestReverseDeltas:
    """A node an apply retires is stored as the bytes it differs by
    from the node that replaced it; reads rebuild it."""

    OLD, NEW = b"x" * 100 + b"old" + b"y" * 100, b"x" * 100 + b"new" + b"y" * 100

    def _superseded(self, store):
        old, new = store.put(self.OLD), store.put(self.NEW)
        before = store.stats.physical_bytes
        store.supersede(old, new)
        return old, new, before

    def test_a_superseded_chunk_reads_back_whole(self, store):
        old, new, before = self._superseded(store)
        held = dict(store.items())
        assert isinstance(held[old], Delta) and type(held[new]) is bytes
        # new's position 1 ‖ prefix 100 << 1 ‖ suffix 100 ‖ the 3
        # differing bytes
        assert held[old] == varint(1) + varint(200) + varint(100) + b"old"
        assert store.stats.physical_bytes == before - len(self.OLD) + 7
        assert store.get(old) == store.get_optional(old) == self.OLD
        assert len(store) == store.stats.unique_chunks == 2

    def test_only_whole_chunks_that_shrink_are_deltaed(self, store):
        """Any length: a chunk one byte longer or shorter than the chunk
        that replaced it (an insert's or a delete's retired node) is a
        delta against it; a delta is never a base nor deltaed again, and
        a delta that would not shrink its chunk is not kept."""
        old, new, _before = self._superseded(store)
        longer = store.put(self.NEW + b"!")
        shorter = store.put(self.NEW[:-1])
        unlike = store.put(bytes(len(self.OLD)))
        for pair in ((new, old), (old, longer), (new, unlike), (unlike, new)):
            before = dict(store.items())
            store.supersede(*pair)
            assert dict(store.items()) == before
        store.supersede(longer, new)
        store.supersede(shorter, new)
        held = dict(store.items())
        # new's position 1 ‖ prefix 203 << 1 ‖ suffix 0 ‖ the one extra
        # byte
        assert held[longer] == varint(1) + varint(406) + b"\0!"
        assert held[shorter] == varint(1) + varint(404) + b"\0"
        assert type(held[new]) is bytes
        assert store.get(longer) == self.NEW + b"!"
        assert store.get(shorter) == self.NEW[:-1]
        assert store.get(old) == self.OLD
        assert _reloaded(store) == list(store.addresses())

    def test_a_middle_is_cut_at_the_spans_named_shared(self):
        """Two edits 100 bytes apart: a one-hunk delta holds the 100
        bytes between them.  Named as shared, they are one copy from
        the base, and the delta holds the two edits; a span that does
        not match, or a cut that would not shrink the delta, leaves the
        one-hunk delta."""
        old = b"a" * 50 + b"X" + bytes(range(100)) + b"Y" + b"z" * 50
        new = b"a" * 50 + b"P" + bytes(range(100)) + b"Q" + b"z" * 50
        one_hunk = varint(50 << 1) + varint(50) + old[50:152]
        for spans, tail in (
            ([(51, 51, 100)], varint(50 << 1 | 1) + varint(50)
             + struct.pack(">H3H", 1, 1, 51, 100) + b"XY"),
            ([(51, 52, 100)], one_hunk),
            ([(60, 60, 3)], one_hunk),
        ):
            store = ChunkStore()
            a, b = store.put(old), store.put(new)
            store.supersede(a, b, lambda *_chunks: spans)
            assert dict(store.items())[a] == varint(1) + tail
            assert store.get(a) == old
            assert _reloaded(store) == list(store.addresses())

    def test_a_base_far_back_is_found_once_and_remembered(self, store):
        """A revert's base sits where it was first held, however much
        was stored after it: found once past the last 16 places and
        remembered, and each delta against it names that position."""
        new = store.put(self.NEW)
        for n in range(100):
            store.put(b"filler %d" % n)
        olds = [store.put(self.OLD), store.put(self.OLD + b"?")]
        for old in olds:
            store.supersede(old, new)
        held = dict(store.items())
        assert [held[old].head()[0] for old in olds] == [0, 0]
        assert store._far == {new: 0}
        assert store.get(olds[0]) == self.OLD
        assert store.get(olds[1]) == self.OLD + b"?"
        assert _reloaded(store) == list(store.addresses())

    def test_a_delta_whose_base_is_gone_is_missing(self, store):
        old, new, _before = self._superseded(store)
        del store._entries[new]
        assert store.get_optional(old) is None
        with pytest.raises(ChunkNotFoundError):
            store.get(old)
        assert _reloaded(store) == [None]

    def test_a_re_put_stores_a_delta_whole_again(self, store):
        """A value toggled A → B → A: the tree's first version is
        retired, then written again, so it is held whole and the second
        version is a delta against it — no chain can close a cycle."""
        key = KV_PREFIX + b"k0500"
        items = [(KV_PREFIX + b"k%04d" % i, b"a") for i in range(1000)]
        first = PosTree.from_items(store, items)
        second = first.apply({key: b"b"})
        assert isinstance(dict(store.items())[first.root], Delta)
        third = second.apply({key: b"a"})
        assert third.root == first.root
        held = dict(store.items())
        order = list(held)
        assert type(held[first.root]) is bytes
        assert isinstance(held[second.root], Delta)
        assert order[held[second.root].head()[0]] == first.root
        assert _reloaded(store) == list(store.addresses())
        assert store.stats.physical_bytes == sum(map(len, held.values()))
        assert second.get(key) == b"b" and third.get(key) == b"a"

    def test_no_chain_grows_past_max_chain(self, store):
        versions = [store.put(b"v%03d" % n + bytes(200)) for n in range(40)]
        for old, new in zip(versions, versions[1:]):
            store.supersede(old, new)
        held = dict(store.items())
        order = list(held)

        def links(data):
            count = 0
            while isinstance(data, Delta):
                data, count = held[order[data.head()[0]]], count + 1
            return count

        assert max(map(links, held.values())) == MAX_CHAIN
        assert _reloaded(store) == list(store.addresses())
        for n, address in enumerate(versions):
            assert store.get(address) == b"v%03d" % n + bytes(200)


class TestDamagedHeads:
    """A delta's head is ``varint(base position) ‖ varint(prefix << 1 |
    cut) ‖ varint(suffix)``.  Each damage below leaves a delta with no
    base to rebuild from: a read raises :class:`ChunkNotFoundError`, and
    a load of the store's records names none for it."""

    OLD, NEW = TestReverseDeltas.OLD, TestReverseDeltas.NEW

    @staticmethod
    def _padded(position):
        minimal = varint(position)
        return minimal[:-1] + bytes((minimal[-1] | 0x80, 0))

    @pytest.mark.parametrize("damage", [
        "itself", "each other", "past the store", "cut short",
        "not minimal",
    ])
    def test_a_damaged_head_rebuilds_nothing(self, store, damage):
        old, new = store.put(self.OLD), store.put(self.NEW)
        other = store.put(self.NEW + b"!")
        store.supersede(old, new)
        store.supersede(other, new)
        held = dict(store.items())
        body = held[old][held[old].head()[3]:]
        rest = held[old][1:]  # after the base's position
        damaged = {
            "itself": [(old, varint(0) + rest)],
            "each other": [
                (old, varint(2) + rest),
                (other, varint(0) + held[other][1:]),
            ],
            "past the store": [(old, varint(3) + rest)],
            "cut short": [(old, held[old][:2])],
            "not minimal": [(old, self._padded(1) + rest)],
        }[damage]
        assert store.get(old) == self.OLD and body == b"old"
        for address, stored in damaged:
            store._entries[address] = Delta(stored)
        for address, _stored in damaged:
            with pytest.raises(ChunkNotFoundError):
                store.get(address)
            assert store.get_optional(address) is None
        reloaded = _reloaded(store)
        assert [
            address for address, derived in zip(store.addresses(), reloaded)
            if derived is None
        ] == [address for address, _stored in damaged]

    def test_a_head_is_read_as_its_three_numbers(self):
        """Any width of varint, each width's first and last number, the
        body after it; the node codec's reader, which refuses a varint
        that is not minimal, agrees."""
        for numbers in (
            (0, 127, 128), (16_383, 16_384, (1 << 21) - 1),
            (1 << 21, (1 << 28) - 1, 1 << 63),
        ):
            head = b"".join(map(varint, numbers))
            assert Delta(head + b"body").head() == (*numbers, len(head))
            at = 0
            for number in numbers:
                read, at = varint_at(head, at, 1 << 64)
                assert read == number


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
