"""Reverse deltas under random batches, and a strict multi-hunk record.

- **round trip** — for random insert, delete and overwrite batches on a
  POS-tree (keys of one width, or of mixed widths), every chunk the
  store holds as a delta rebuilds to bytes that hash to its address,
  and no delta is longer than the one-hunk delta of the same two chunks
  (:func:`_reference_delta`, the contiguous diff kept here as it was
  before a delta's middle could be cut): cutting never grows a delta;
- **strictness** — a multi-hunk record with a byte flipped, cut short,
  extended, a copy pointed past its base or a literal run past the
  record's end, loaded through ``put_delta``, is named by
  ``check_deltas`` (never an ``IndexError`` or a ``struct.error``), and
  a checkpoint holding it fails to load as tampered.

Runs under one fixed Hypothesis profile: same examples every run.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.database import SpitzDatabase
from repro.crypto.hashing import hash_bytes
from repro.durability.checkpoint import load_database, save_database
from repro.errors import TamperDetectedError
from repro.forkbase.chunk_store import ChunkStore, Delta
from repro.indexes.pos_tree import PosTree

settings.register_profile(
    "reverse-deltas", derandomize=True, deadline=None, max_examples=60
)
FIXED = settings.get_profile("reverse-deltas")

#: A multi-hunk delta's head: base, prefix | 2³¹, suffix, copy count.
HUNKED_HEAD = 42


def _reference_delta(old: bytes, new: bytes) -> int:
    """The length of ``old`` as a one-hunk delta against ``new``: the
    40-byte head plus what lies between their shared ends, the two ends
    clamped to the shorter chunk."""
    size = min(len(old), len(new))
    prefix = 0
    while prefix < size and old[prefix] == new[prefix]:
        prefix += 1
    suffix = 0
    while suffix < size - prefix and old[-1 - suffix] == new[-1 - suffix]:
        suffix += 1
    return 40 + len(old) - prefix - suffix


def _hunked(delta: bytes) -> bool:
    return delta[32] & 0x80 != 0


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
    for address, data in held.items():
        if not isinstance(data, Delta):
            continue
        old, base = store.get(address), store.get(data[:32])
        assert hash_bytes(old) == address
        assert data.patch(base) == old
        assert len(data) <= _reference_delta(old, base)


@pytest.fixture(scope="module")
def hunked_record():
    """``(base bytes, address, stored form)`` of one multi-hunk delta
    with at least two copies, from a batch that re-points every third
    pair of one stretch of keys."""
    store = ChunkStore()
    tree = PosTree.from_items(
        store, [(b"k%04d" % n, b"v") for n in range(400)]
    )
    tree.apply({b"k%04d" % n: b"w" for n in range(100, 200, 3)})
    for address, data in store.items():
        if isinstance(data, Delta) and _hunked(data):
            if struct.unpack_from(">H", data, 40)[0] >= 2:
                return store.get(data[:32]), address, bytes(data)
    raise AssertionError("no multi-hunk delta with two copies")


def _mutations(base: bytes, record: bytes):
    """Every way the sweep damages ``record``, by name."""
    count = struct.unpack_from(">H", record, 40)[0]
    table = HUNKED_HEAD + 6 * count
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
        at = HUNKED_HEAD + 6 * copy
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
        record[:40] + struct.pack(">H", 0xFFFF) + record[42:]
    )
    yield "count short of the table", (
        record[:40] + struct.pack(">H", count - 1) + record[42:]
    )
    assert table <= len(record)


def test_a_damaged_multi_hunk_record_is_named(hunked_record):
    base, address, record = hunked_record
    named = 0
    for name, damaged in _mutations(base, record):
        store = ChunkStore()
        store.put(base)
        if store.put_delta(address, damaged):
            assert store.check_deltas() == address, name
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
    at = blob.index(address + (len(record) | 1 << 31).to_bytes(4, "big"))
    base = db.chunks.get(record[:32])
    damaged = dict(_mutations(base, record))
    for name in (
        "flip 41:0x1", f"cut to {len(record) - 1}", "extended by b'junk'",
        "copy 0 past its base", "literal 0 past the record",
        "count past the table",
    ):
        forged = damaged[name]
        head = address + (len(forged) | 1 << 31).to_bytes(4, "big")
        path.write_bytes(
            blob[:at] + head + forged + blob[at + 36 + len(record):]
        )
        with pytest.raises(TamperDetectedError, match="does not rebuild"):
            load_database(path)
