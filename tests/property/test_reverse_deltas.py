"""Reverse deltas under random batches, and a strict multi-hunk record.

- **the apply's own spans** — for random trees and batches (inserts,
  overwrites, deletes, splits and merges, a leaf's prefix moving at its
  ends, keys of mixed widths and a suffix of 128 bytes or more), every
  node an apply writes is the bytes ``encode_node`` makes of its pairs
  with no rows copied, and every node it retires is stored against
  the node of its run that a lookup of the most of its keys lands in
  (:func:`_reference_base`), as the delta ``supersede`` makes, on a
  twin store, from the spans a walk over its rows finds — each shifted
  by the prefix difference where the prefix moved
  (:func:`_reference_shared_rows`, the oracle);
- **round trip** — for random insert, delete and overwrite batches on a
  POS-tree (keys of one width, or of mixed widths), every chunk the
  store holds as a delta rebuilds to bytes that hash to its address,
  and no delta is longer than the one-hunk delta of the same two chunks
  (:func:`_reference_delta`, the contiguous diff kept here as it was
  before a delta's middle could be cut): cutting never grows a delta;
- **strictness** — a multi-hunk record with a byte flipped, cut short,
  extended, a copy pointed past its base or a literal run past the
  record's end, loaded by ``ChunkStore.load``, rebuilds to no chunk or
  another (never an ``IndexError`` or a ``struct.error``), and a
  checkpoint holding it fails to load as tampered.

Runs under one fixed Hypothesis profile: same examples every run.
"""

import struct
from bisect import bisect_left, bisect_right
from itertools import accumulate, compress, count
from operator import is_not
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.database import SpitzDatabase
from repro.crypto.hashing import hash_bytes
from repro.durability.checkpoint import load_database, save_database
from repro.errors import TamperDetectedError
from repro.forkbase.chunk_store import MAX_CHAIN, ChunkStore, Delta
from repro.indexes import pos_tree
from repro.indexes.pos_tree import PosTree
from repro.indexes.siri import decode_node, encode_node, varint

settings.register_profile(
    "reverse-deltas", derandomize=True, deadline=None, max_examples=60
)
FIXED = settings.get_profile("reverse-deltas")

def _reference_delta(old: bytes, new: bytes, position: int) -> int:
    """The length of ``old`` as a one-hunk delta against ``new`` held at
    ``position``: the head, varints of ``position``, ``prefix << 1`` and
    ``suffix``, plus what lies between their shared ends, the two ends
    clamped to the shorter chunk."""
    size = min(len(old), len(new))
    prefix = 0
    while prefix < size and old[prefix] == new[prefix]:
        prefix += 1
    suffix = 0
    while suffix < size - prefix and old[-1 - suffix] == new[-1 - suffix]:
        suffix += 1
    head = varint(position) + varint(prefix << 1) + varint(suffix)
    return len(head) + len(old) - prefix - suffix


def _hunked(delta: Delta) -> bool:
    return delta.head()[1] & 1 == 1


def _count_at(delta: Delta) -> int:
    """Where a multi-hunk delta's copy count is: just past its head."""
    return delta.head()[3]


def _reference_shared_rows(old_pairs, new_pairs, was, now, prefix, suffix):
    """The row walk that found the spans a retired node shares with its
    successor before the apply named them itself: ``was``'s rows from
    the one holding byte ``prefix`` to the last one before the shared
    suffix, each found in ``now`` by key, a run of pairs both nodes
    hold as the same objects taken whole, an overwritten pair's
    ``length ‖ suffix`` shared, and spans that follow each other in
    both made one; none unless the middle is wider than the first row
    and no suffix needs a two-byte varint.  Where the two prefixes
    differ in length, each shared row is a span of its own: the key
    bytes past the longer prefix and the digest if it is the same,
    found in each row past its length byte and the prefix bytes the
    other node's prefix holds."""
    cut, now_cut = was[1], now[1]
    head = 2 + cut
    if (
        cut >= 0x80 or now_cut >= 0x80 or head >= len(was)
        or len(was) - suffix - prefix <= was[head] + 1 + 32
    ):
        return []

    def starts(pairs, cut):
        return list(accumulate(
            (len(key) - cut + 1 + 32 for key, _digest in pairs),
            initial=2 + cut,
        ))

    old_starts, new_starts = starts(old_pairs, cut), starts(new_pairs, now_cut)
    if old_starts[-1] != len(was) or new_starts[-1] != len(now):
        return []
    spans = []
    end = None
    at, to = max(bisect_right(old_starts, prefix) - 1, 0), 0
    old_stop = bisect_left(old_starts, len(was) - suffix, at)
    new_stop = bisect_left(new_starts, len(now) - suffix)
    while at < old_stop:
        old = old_pairs[at]
        if to >= new_stop or new_pairs[to] is not old:
            to = bisect_left(new_pairs, (old[0],), to, new_stop)
            if to == new_stop:
                break
        new = new_pairs[to]
        if old[0] != new[0]:
            at += 1
            continue
        start, source = old_starts[at], new_starts[to]
        if cut != now_cut:
            same = 1
            longer = max(cut, now_cut)
            start += 1 + longer - cut
            source += 1 + longer - now_cut
            size = len(old[0]) - longer + (32 if old[1] == new[1] else 0)
        elif old is new:
            same = next(compress(count(1), map(
                is_not, old_pairs[at + 1:old_stop],
                new_pairs[to + 1:new_stop],
            )), min(old_stop - at, new_stop - to))
            size = old_starts[at + same] - old_starts[at]
        else:
            same = 1
            size = old_starts[at + 1] - old_starts[at] - (
                0 if old[1] == new[1] else 32
            )
        if start == end and spans[-1][1] + spans[-1][2] == source:
            spans[-1][2] += size
        else:
            spans.append([start, source, size])
        end = start + size
        at += same
        to += same
    return spans


def _reference_base(retired: bytes, written) -> int:
    """The written node a lookup of the most of ``retired``'s keys lands
    in — the last listed at or before the key; a key before them all is
    in none — the first such on a tie, by its index in ``written``."""
    spanned = [0] * len(written)
    for key, _digest in decode_node(retired)[1]:
        landed = [i for i, (first, _address) in enumerate(written)
                  if first <= key]
        if landed:
            spanned[landed[-1]] += 1
    return spanned.index(max(spanned))


def _mixed_key(n: int) -> bytes:
    """Keys of several widths; every 50th has a 131-byte tail, past
    what a one-byte varint holds, and the ``k1…``/``kx…`` families move
    a leaf's common prefix when one is added or dropped at its ends."""
    if n % 50 == 49:
        return b"z" + b"x" * 130 + b"%03d" % n
    return b"k" + b"x" * (n % 3) + b"%d" % n


@pytest.mark.parametrize("width", ["one", "mixed"])
@pytest.mark.parametrize("mask_bits", [2, 4])
@settings(FIXED)
@given(first=st.sets(st.integers(0, 299), max_size=250), batches=st.lists(
    st.dictionaries(st.integers(0, 299),
                    st.one_of(st.none(), st.integers(0, 9)),
                    min_size=1, max_size=60),
    min_size=1, max_size=6,
))
def test_the_apply_writes_and_retires_what_the_oracle_does(
    width, mask_bits, first, batches
):
    key = (lambda n: b"k%04d" % n) if width == "one" else _mixed_key
    store = ChunkStore()
    tree = PosTree.from_items(
        store, [(key(n), b"v") for n in first], mask_bits
    )

    def encode(node, kept=()):
        data = encode_node(node, kept)
        assert data == encode_node(node)
        return data

    write, supersede = pos_tree._Run.write, ChunkStore.supersede
    written = []

    def recorded(self):
        written[:] = write(self)
        return written[:]

    def checked(self, old, new, shared=None):
        was, now = self._entries.get(old), self._entries.get(new)
        # The base is the run's new node spanning the most of its rows.
        assert written[_reference_base(self.get(old), written)][1] == new
        twin = None
        if (
            was.__class__ is bytes and now.__class__ is bytes and old != new
            and self._depths.get(old, 0) < MAX_CHAIN
        ):
            twin = ChunkStore()
            twin.put(was)
            twin.put(now)
            # The twin names the base where the store holds it.
            position = list(self.addresses()).index(new)
            twin._position = lambda _address: position
            old_pairs, new_pairs = (
                shared.args[:2] if shared is not None
                else (decode_node(was)[1], decode_node(now)[1])
            )
            supersede(twin, old, new, lambda *ends: _reference_shared_rows(
                old_pairs, new_pairs, *ends
            ))
        supersede(self, old, new, shared)
        if twin is not None:
            assert self._entries[old] == twin._entries[old]

    with mock.patch.object(pos_tree, "encode_node", encode), \
            mock.patch.object(pos_tree._Run, "write", recorded), \
            mock.patch.object(ChunkStore, "supersede", checked):
        for batch in batches:
            tree = tree.apply({
                key(n): None if value is None else b"v%d" % value
                for n, value in batch.items()
            })
    assert dict(tree.digests()) == dict(
        PosTree.from_items(ChunkStore(), list(tree.items()), mask_bits)
        .digests()
    )


keys = st.integers(0, 299)
batches = st.lists(
    st.dictionaries(keys, st.one_of(st.none(), st.integers(0, 9)),
                    min_size=1, max_size=40),
    min_size=1, max_size=8,
)


@pytest.mark.parametrize("width", ["one", "mixed"])
@settings(FIXED)
@given(first=st.sets(keys, max_size=250), batches=batches)
def test_every_delta_rebuilds_and_none_outgrows_one_hunk(
    width, first, batches
):
    key = (
        (lambda n: b"k%04d" % n) if width == "one"
        else (lambda n: b"k" + b"x" * (n % 3) + b"%d" % n)
    )
    store = ChunkStore()
    tree = PosTree.from_items(store, [(key(n), b"v") for n in first])
    for batch in batches:
        tree = tree.apply({
            key(n): None if value is None else b"v%d" % value
            for n, value in batch.items()
        })
    held = dict(store.items())
    order = list(held)
    for address, data in held.items():
        if not isinstance(data, Delta):
            continue
        position = data.head()[0]
        old, base = store.get(address), store.get(order[position])
        assert hash_bytes(old) == address
        assert data.patch(base) == old
        assert len(data) <= _reference_delta(old, base, position)


@pytest.fixture(scope="module")
def hunked_record():
    """``(base bytes, address, stored form)`` of one multi-hunk delta
    with at least two copies, from a batch that re-points every third
    pair of one stretch of keys; the stored form names position 0,
    where a load of ``[base, record]`` holds the base."""
    store = ChunkStore()
    tree = PosTree.from_items(
        store, [(b"k%04d" % n, b"v") for n in range(400)]
    )
    tree.apply({b"k%04d" % n: b"w" for n in range(100, 200, 3)})
    order = list(store.addresses())
    for address, data in store.items():
        if isinstance(data, Delta) and _hunked(data):
            if struct.unpack_from(">H", data, _count_at(data))[0] >= 2:
                position, word, suffix, at = data.head()
                return store.get(order[position]), address, b"".join((
                    varint(0), varint(word), varint(suffix), data[at:]
                ))
    raise AssertionError("no multi-hunk delta with two copies")


def _mutations(base: bytes, record: bytes):
    """Every way the sweep damages ``record``, by name."""
    start = _count_at(Delta(record))
    count = struct.unpack_from(">H", record, start)[0]
    table = start + 2 + 6 * count
    for at in range(len(record)):
        for bit in (0x01, 0x80):
            flipped = bytearray(record)
            flipped[at] ^= bit
            yield f"flip {at}:{bit:#x}", bytes(flipped)
    for size in range(len(record)):
        yield f"cut to {size}", record[:size]
    for extra in (b"\x00", b"junk", record[-6:]):
        yield f"extended by {extra!r}", record + extra
    for copy in range(count):
        at = start + 2 + 6 * copy
        literal, offset, length = struct.unpack_from(">3H", record, at)
        for offset_, length_ in (
            (len(base) - length + 1, length), (len(base), length),
            (0xFFFF, length), (offset, 0xFFFF),
        ):
            yield f"copy {copy} past its base", (
                record[:at] + struct.pack(">3H", literal, offset_, length_)
                + record[at + 6:]
            )
        yield f"literal {copy} past the record", (
            record[:at] + struct.pack(">3H", 0xFFFF, offset, length)
            + record[at + 6:]
        )
    yield "count past the table", (
        record[:start] + struct.pack(">H", 0xFFFF) + record[start + 2:]
    )
    yield "count short of the table", (
        record[:start] + struct.pack(">H", count - 1) + record[start + 2:]
    )
    assert table <= len(record)


def test_a_damaged_multi_hunk_record_is_named(hunked_record):
    base, address, record = hunked_record
    named = 0
    for name, damaged in _mutations(base, record):
        loaded = ChunkStore().load([(base, False), (damaged, True)])
        assert loaded[1] != address, name
        named += 1
    assert named > 2 * len(record)


def test_a_checkpoint_holding_a_damaged_multi_hunk_record_is_tamper(
    tmp_path,
):
    db = SpitzDatabase()
    db.put_batch({b"k%04d" % n: b"v" for n in range(400)})
    db.put_batch({b"k%04d" % n: b"w" for n in range(100, 200, 3)})
    path = tmp_path / "snapshot"
    save_database(db, path)
    blob = path.read_bytes()
    stored = dict(db.chunks.items())
    address, record = next(
        (address, bytes(data)) for address, data in stored.items()
        if isinstance(data, Delta) and _hunked(data)
    )
    at = blob.index(varint(len(record) << 1 | 1) + record)
    base = db.chunks.get(list(stored)[Delta(record).head()[0]])
    damaged = dict(_mutations(base, record))
    for name in (
        f"flip {_count_at(Delta(record)) + 1}:0x1", f"cut to {len(record) - 1}", "extended by b'junk'",
        "copy 0 past its base", "literal 0 past the record",
        "count past the table",
    ):
        forged = damaged[name]
        head = varint(len(forged) << 1 | 1)
        path.write_bytes(blob[:at] + head + forged + blob[
            at + len(varint(len(record) << 1)) + len(record):
        ])
        with pytest.raises(TamperDetectedError, match="does not rebuild"):
            load_database(path)
