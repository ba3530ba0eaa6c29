"""Checkpoints: integrity-checked snapshots that bound WAL replay.

A checkpoint ``checkpoint-<lsn>.spitz`` (``<lsn>``: the last WAL record
folded in) is layout 14: ``magic ‖ SHA-256(manifest) ‖ manifest
length(u64) ‖ manifest ‖ chunk section`` (DESIGN.md §6).  This module
owns the bytes; :meth:`SpitzDatabase.persisted_versions` and
:meth:`SpitzDatabase.restore` own what they mean.

**Persisted** is what cannot be derived.  The manifest holds the
configuration (``mask_bits``, ``block_batch``, the indexed columns),
the oracle's high-water mark, the chunk store's accounting and
``hash_many`` of the section's addresses in record order, the schemas,
each block's ``tree_root``, ``writes_digest``, ``write_count`` and
statements, the commit timestamp of each key the tip tree holds live,
in the tip's key order (its postings aside), and every other version —
the older ones and a newest delete — as sorted ``(logical key ‖
timestamp(u64), value digest | 0³² for a delete)`` pairs in
:func:`~repro.indexes.siri.encode_node`'s codec.  The chunk section
holds every chunk as a record ``varint(length << 1 | delta) ‖ stored
bytes``, without its address, in the store's order: record *i* is the
chunk at position *i*, so a delta, which names its base by position,
is written as it is held.

**Derived** on load, through the ordinary constructor with the caller's
metrics, oracle and certifier: each chunk's address (a whole chunk's
hash, a delta's the hash of what it rebuilds to from its base), each
block's statement digest and chain link, the tip tree, each live key
and value digest (the tip's leaf pairs), the version map (each key's
newest version in the MVCC store's B+-tree), the versions' values, the
inverted index and the postings the tip commits.  The section is
accepted once every delta rebuilds and the addresses are the ones the
manifest names, in its order, so damage to any record is caught,
history no tip walk reaches included; the manifest's digest catches
damage to it, and an editor is caught by the tip's keys having to be
exactly those whose newest version is live, no version of them newer,
plus the postings derived from them.  Any failure is a
:class:`~repro.errors.TamperDetectedError`.  A file of another layout
is refused by name before anything past the magic is read; there is no
migration: layout 13 named each delta's base by its 32-byte address,
layout 12 wrote an address ahead of every record and every live
version's key and digest, layout 11 held one-hunk deltas only, layout
10 committed postings in per-column trees beside the ledger.
"""

from __future__ import annotations

import os
import re
import struct
from dataclasses import astuple
from pathlib import Path
from typing import (
    BinaryIO, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.core.database import SpitzDatabase
from repro.core.schema import TableSchema
from repro.crypto.hashing import hash_bytes, hash_many
from repro.errors import (
    FormatVersionError,
    SpitzError,
    StorageError,
    TamperDetectedError,
)
from repro.forkbase.chunk_store import ChunkStore, Delta, StoreStats
from repro.indexes.siri import decode_node, encode_node, varint, varint_at

CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".spitz"
_CHECKPOINT_RE = re.compile(
    re.escape(CHECKPOINT_PREFIX) + r"(\d{12})" + re.escape(CHECKPOINT_SUFFIX)
)
#: Layouts 1–9 were stamped ``SPITZDB`` and one digit; from layout 10
#: on the stamp is ``SPITZ`` and three digits.
_MAGIC = b"SPITZ014"
_LAYOUT = re.compile(rb"SPITZ(?:DB(\d)|(\d{3}))")
#: After the magic: the manifest's digest and length.
_HEADER = struct.Struct(">32sQ")
#: The manifest's fixed head: ``mask_bits``, ``block_batch``, the
#: oracle's high-water mark, the chunk store's accounting
#: (:class:`StoreStats`, field by field), then ``hash_many`` of the
#: chunk section's addresses in record order.
_FIXED = struct.Struct(">BIQQQQQQ32s")
#: A block ahead of its statements: tree root, writes digest, writes.
_BLOCK = struct.Struct(">32s32sQ")
#: The version table's digest for a delete (no value hashes to it).
_DELETED = bytes(32)
#: The largest commit timestamp a varint in the manifest may grow to.
_STAMP_MOST = 1 << 64
#: Older checkpoints retained beside the newest, as fallbacks for one
#: that fails its integrity check.
KEEP_OLDER = 2


def save_database(db: SpitzDatabase, path: Union[str, Path]) -> int:
    """Write a snapshot of ``db``; returns the snapshot size in bytes.

    Pending ledger writes are flushed first so the snapshot is a
    sealed, verifiable state, all under the commit lock.  The write is
    atomic: the file lands in a temp file that is fsynced and then
    renamed over ``path``, so a crash mid-save leaves the previous
    snapshot untouched rather than a half-written one.  The chunks are
    streamed from the store, never copied into the manifest.
    """
    path = Path(path)
    temp = path.with_name(path.name + f".tmp.{os.getpid()}")
    with db.txn_manager.commit_lock:
        db.flush_ledger()
        manifest = _manifest(db)
        try:
            with open(temp, "wb") as handle:
                handle.write(_MAGIC)
                handle.write(_HEADER.pack(hash_bytes(manifest), len(manifest)))
                handle.write(manifest)
                for _address, data in db.chunks.items():
                    handle.write(varint(
                        len(data) << 1 | (data.__class__ is Delta)
                    ))
                    handle.write(data)
                size = handle.tell()
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, path)
        finally:
            if temp.exists():
                temp.unlink()
    return size


def _texts(texts: Sequence[str]) -> bytes:
    """A count, then each text as its UTF-8 length and bytes."""
    encoded = [text.encode("utf-8") for text in texts]
    return varint(len(encoded)) + b"".join(
        varint(len(text)) + text for text in encoded
    )


def _manifest(db: SpitzDatabase) -> bytes:
    """What of ``db`` cannot be derived (see the module docstring)."""
    # First: putting a value no block sealed moves the chunk accounting.
    rows, stamps = db.persisted_versions()
    ledger = db.ledger
    parts = [
        _FIXED.pack(
            ledger.tree.mask_bits, db.block_batch, db.oracle.current(),
            *astuple(db.chunks.stats), hash_many(db.chunks.addresses()),
        ),
        _texts(db.search_columns),
        varint(len(db.tables())),
    ]
    for schema in map(db.table, db.tables()):
        parts.append(_texts([schema.name, schema.primary_key, *(
            part for column in schema.columns
            for part in (column.name, column.type)
        )]))
    parts.append(varint(ledger.height))
    for block in map(ledger.block, range(ledger.height)):
        parts.append(_BLOCK.pack(
            block.tree_root, block.writes_digest, block.write_count
        ) + _texts(ledger.statements(block.height)))
    parts += (varint(len(stamps)), *map(varint, stamps))
    parts.append(encode_node(("L", tuple(sorted(
        (key + stamp.to_bytes(8, "big"), digest or _DELETED)
        for key, stamp, digest in rows
    )))))
    return b"".join(parts)


class _Manifest:
    """A parsed manifest: ``ValueError`` or ``struct.error`` for bytes
    cut short, running on, or not decoding."""

    def __init__(self, data: bytes):
        self._data, self._at = data, 0
        mask_bits, block_batch, self.high_water, *stats, self.section = (
            self._fixed(_FIXED)
        )
        self.stats = StoreStats(*stats)
        self.config = dict(mask_bits=mask_bits, block_batch=block_batch)
        # For ``restore``: the constructor would seal a block of the
        # indexed columns' postings.
        self.indexed = self._texts()
        self.tables = []
        for _ in range(self._varint()):
            name, primary_key, *columns = self._texts()
            self.tables.append(TableSchema.make(
                name, list(zip(columns[::2], columns[1::2], strict=True)),
                primary_key,
            ))
        self.blocks = [
            (*self._fixed(_BLOCK), self._texts())
            for _ in range(self._varint())
        ]
        self.stamps = [
            self._varint(_STAMP_MOST) for _ in range(self._varint())
        ]
        tag, pairs = decode_node(data[self._at:])
        if tag != "L" or any(len(key) < 8 for key, _ in pairs):
            raise ValueError("a version table entry has no timestamp")
        # Sorted, a key's pairs differ only in a fixed-width timestamp:
        # they come in commit order.
        self.versions = [
            (key[:-8], int.from_bytes(key[-8:], "big"),
             None if digest == _DELETED else digest)
            for key, digest in pairs
        ]
        del self._data

    def _fixed(self, layout: struct.Struct) -> tuple:
        fields = layout.unpack_from(self._data, self._at)
        self._at += layout.size
        return fields

    def _varint(self, most: Optional[int] = None) -> int:
        number, self._at = varint_at(self._data, self._at, most)
        return number

    def _texts(self) -> List[str]:
        texts = []
        for _ in range(self._varint()):
            length = self._varint()
            start, self._at = self._at, self._at + length
            if self._at > len(self._data):
                raise ValueError("a text runs past the manifest")
            texts.append(self._data[start:self._at].decode("utf-8"))
        return texts


def load_database(path: Union[str, Path], **db_kwargs) -> SpitzDatabase:
    """Load a snapshot (see the module docstring), building the database
    from ``db_kwargs`` — what :func:`~repro.durability.recovery.recover`
    passes: metrics, oracle, certifier — and the manifest's
    configuration, which wins.

    Raises :class:`FormatVersionError` for another snapshot layout and
    :class:`TamperDetectedError` for any failed check.
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(_MAGIC))
        if magic != _MAGIC:
            layout = _LAYOUT.fullmatch(magic)
            if layout:
                raise FormatVersionError(
                    f"{path} holds a snapshot in layout "
                    f"{int(layout.group(1) or layout.group(2))}; this build "
                    f"reads and writes snapshot layout {int(_MAGIC[5:])} "
                    "only, and there is no migration"
                )
            raise StorageError(f"{path} is not a Spitz snapshot")
        header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise TamperDetectedError(f"snapshot {path} is cut short")
        digest, size = _HEADER.unpack(header)
        data = handle.read(size)
        if len(data) != size or hash_bytes(data) != digest:
            raise TamperDetectedError(
                f"snapshot {path} does not match its recorded digest"
            )
        try:
            manifest = _Manifest(data)
            db = SpitzDatabase(**{**db_kwargs, **manifest.config})
        except (ValueError, struct.error, SpitzError) as error:
            raise TamperDetectedError(
                f"snapshot {path}: the manifest does not parse ({error})"
            ) from None
        del data
        _read_chunks(handle, path, db.chunks, manifest)
    try:
        db.restore(
            manifest.blocks, manifest.tables, manifest.versions,
            manifest.stamps, manifest.high_water, manifest.indexed,
        )
    except SpitzError as error:
        raise TamperDetectedError(f"snapshot {path}: {error}") from None
    # The store's accounting as saved, not as loading and checking moved it.
    db.chunks.stats = manifest.stats
    return db


def _read_chunks(
    handle: BinaryIO, path, store: ChunkStore, manifest: _Manifest
) -> None:
    """The chunk section into ``store``, accepted once every delta
    rebuilds from a base in the section, the addresses derived are the
    ones the manifest names, in its order, and the store holds the
    chunks and bytes it names."""
    addresses = store.load(_records(handle, path))
    if None in addresses:
        raise TamperDetectedError(
            f"snapshot {path}: chunk record {addresses.index(None)} does "
            "not rebuild from a base in the section"
        )
    if hash_many(addresses) != manifest.section:
        raise TamperDetectedError(
            f"snapshot {path}: the chunk section does not rebuild to the "
            "addresses the manifest names"
        )
    held, named = store.stats, manifest.stats
    if (held.unique_chunks, held.physical_bytes) != (
        named.unique_chunks, named.physical_bytes
    ):
        raise TamperDetectedError(
            f"snapshot {path}: the chunk section is not the one named"
        )


def _records(handle: BinaryIO, path) -> Iterator[Tuple[bytes, bool]]:
    """Each chunk record to the file's end as ``(stored bytes, is a
    delta)``: ``varint(length << 1 | delta) ‖ stored bytes``, the varint
    minimal and no record running past the file."""
    at, end = handle.tell(), os.fstat(handle.fileno()).st_size
    while at < end:
        head = b""
        for byte in iter(lambda: handle.read(1), b""):
            head += byte
            if byte < b"\x80" or len(head) == 10:
                break
        try:
            word, width = varint_at(head, 0, end)
            at += width + (word >> 1)
        except ValueError:  # cut short in the head, or not minimal
            at = end + 1
        if at > end:
            raise TamperDetectedError(
                f"snapshot {path}: a chunk record is cut short"
            )
        yield handle.read(word >> 1), bool(word & 1)


def checkpoint_path(root: Union[str, Path], lsn: int) -> Path:
    return Path(root) / f"{CHECKPOINT_PREFIX}{lsn:012d}{CHECKPOINT_SUFFIX}"


def list_checkpoints(root: Union[str, Path]) -> List[Tuple[int, Path]]:
    """(lsn, path) pairs for every checkpoint, oldest first."""
    out: List[Tuple[int, Path]] = []
    for entry in sorted(Path(root).glob(
        f"{CHECKPOINT_PREFIX}*{CHECKPOINT_SUFFIX}"
    )):
        match = _CHECKPOINT_RE.fullmatch(entry.name)
        if match:
            out.append((int(match.group(1)), entry))
    return out


def write_checkpoint(db, wal) -> Tuple[int, Path]:
    """Snapshot ``db`` and truncate ``wal`` (the directory's live
    :class:`~repro.durability.wal.WriteAheadLog`) behind the retained
    set; returns ``(lsn, path)`` of the new checkpoint.

    All of it runs under the commit lock, which every append to the log
    holds: the WAL is synced first so the snapshot never runs ahead of
    the durable log, no commit lands between the LSN read and the
    snapshot, and none is appended while truncation rotates the active
    segment.  The new checkpoint plus up to :data:`KEEP_OLDER` older
    ones are retained — recovery falls back past one that fails its
    checks — so the WAL is truncated only through the *oldest*
    retained one's LSN: each keeps the log suffix it needs for replay.
    """
    with db.txn_manager.commit_lock:
        wal.sync()
        lsn = wal.last_lsn
        path = checkpoint_path(wal.root, lsn)
        save_database(db, path)
        checkpoints = list_checkpoints(wal.root)
        for _old_lsn, old_path in checkpoints[:-(KEEP_OLDER + 1)]:
            old_path.unlink()
        retained = list_checkpoints(wal.root)
        wal.truncate_through(retained[0][0])
    return lsn, path
