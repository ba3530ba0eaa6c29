"""Checkpoints: integrity-checked snapshots that bound WAL replay.

A checkpoint ``checkpoint-<lsn>.spitz`` (``<lsn>``: the last WAL record
folded in) is layout 8: ``magic ‖ SHA-256(manifest) ‖ manifest
length(u64) ‖ manifest ‖ chunk section`` (DESIGN.md §6).  This module
owns the bytes; :meth:`SpitzDatabase.persisted_versions` and
:meth:`SpitzDatabase.restore` own what they mean.

**Persisted** is what cannot be derived.  The manifest holds the
configuration (``mask_bits``, ``ledger_only``, ``block_batch``, the
indexed columns), the oracle's high-water mark, the chunk store's
accounting, the schemas, each block's ``tree_root``, ``writes_digest``,
``write_count`` and statements, and every version as sorted ``(logical
key ‖ timestamp(u64), value digest | 0³² for a tombstone)`` pairs in
:func:`~repro.indexes.siri.encode_node`'s codec.  The chunk section
holds every chunk as a record, in its stored form.

**Derived** on load, through the ordinary constructor with the caller's
metrics, oracle and certifier: each block's statement digest and chain
link, the tip tree, the versions' values, ``primary``, the inverted
index and the search trees.  A chunk is accepted once it rebuilds to
bytes that hash to its address, the section once it is the one the
manifest names; the manifest's digest catches damage, and an editor is
caught by the versions' live set having to be the tip tree's.  Any
failure is a :class:`~repro.errors.TamperDetectedError`.  A file of
another layout is refused by name before anything past the magic is
read; there is no migration.
"""

from __future__ import annotations

import os
import re
import struct
from dataclasses import astuple
from pathlib import Path
from typing import BinaryIO, List, Sequence, Tuple, Union

from repro.core.database import SpitzDatabase
from repro.core.schema import TableSchema
from repro.crypto.hashing import hash_bytes
from repro.errors import (
    ChunkNotFoundError,
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
_MAGIC = b"SPITZDB8"
#: After the magic: the manifest's digest and length.
_HEADER = struct.Struct(">32sQ")
#: The manifest's fixed head: ``mask_bits``, ``ledger_only``,
#: ``block_batch``, the oracle's high-water mark, then the chunk
#: store's accounting (:class:`StoreStats`, field by field).
_FIXED = struct.Struct(">B?IQQQQQQ")
#: A block ahead of its statements: tree root, writes digest, writes.
_BLOCK = struct.Struct(">32s32sQ")
#: The version table's digest for a tombstone (no value hashes to it).
_TOMBSTONE = bytes(32)
#: Ahead of each chunk's stored bytes: its address and length.
_RECORD = struct.Struct(">32sI")
#: The length's top bit: the record is a delta.
_DELTA_BIT = 1 << 31
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
                for address, data in db.chunks.items():
                    flag = _DELTA_BIT if data.__class__ is Delta else 0
                    handle.write(_RECORD.pack(address, len(data) | flag))
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
    versions = encode_node(("L", tuple(sorted(
        (key + stamp.to_bytes(8, "big"), digest or _TOMBSTONE)
        for key, stamp, digest in db.persisted_versions()
    ))))
    ledger = db.ledger
    parts = [
        _FIXED.pack(
            ledger.tree.mask_bits, db.ledger_only, db.block_batch,
            db.oracle.current(), *astuple(db.chunks.stats),
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
    parts.append(versions)
    return b"".join(parts)


class _Manifest:
    """A parsed manifest: ``ValueError`` or ``struct.error`` for bytes
    cut short, running on, or not decoding."""

    def __init__(self, data: bytes):
        self._data, self._at = data, 0
        mask_bits, ledger_only, block_batch, self.high_water, *stats = (
            self._fixed(_FIXED)
        )
        self.stats = StoreStats(*stats)
        self.config = dict(
            mask_bits=mask_bits, ledger_only=ledger_only,
            block_batch=block_batch, indexed_columns=self._texts() or None,
        )
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
        tag, pairs = decode_node(data[self._at:])
        if tag != "L" or any(len(key) < 8 for key, _ in pairs):
            raise ValueError("a version table entry has no timestamp")
        # Sorted, a key's pairs differ only in a fixed-width timestamp:
        # they come in commit order.
        self.versions = [
            (key[:-8], int.from_bytes(key[-8:], "big"),
             None if digest == _TOMBSTONE else digest)
            for key, digest in pairs
        ]
        del self._data

    def _fixed(self, layout: struct.Struct) -> tuple:
        fields = layout.unpack_from(self._data, self._at)
        self._at += layout.size
        return fields

    def _varint(self) -> int:
        number, self._at = varint_at(self._data, self._at)
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
            if magic.startswith(_MAGIC[:-1]) and magic[7:8].isdigit():
                raise FormatVersionError(
                    f"{path} holds a snapshot in layout {magic[7:8].decode()}"
                    f"; this build reads and writes snapshot layout "
                    f"{_MAGIC[7:].decode()} only, and there is no migration"
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
        _read_chunks(handle, path, db.chunks, manifest.stats)
    try:
        db.restore(
            manifest.blocks, manifest.tables, manifest.versions,
            manifest.high_water,
        )
    except (ChunkNotFoundError, TamperDetectedError) as error:
        raise TamperDetectedError(f"snapshot {path}: {error}") from None
    # The store's accounting as saved, not as loading and checking moved it.
    db.chunks.stats = manifest.stats
    return db


def _read_chunks(
    handle: BinaryIO, path, store: ChunkStore, named: StoreStats
) -> None:
    """The chunk section into ``store``: a whole record put (so hashed)
    under its own address, a delta once it rebuilds to bytes that do,
    and the section once it holds the chunks and bytes ``named``."""
    cut_short = f"snapshot {path}: a chunk record is cut short"
    unbuilt = (
        f"snapshot {path}: chunk %s does not rebuild to bytes that hash to "
        "its address"
    )
    for head in iter(lambda: handle.read(_RECORD.size), b""):
        if len(head) < _RECORD.size:
            raise TamperDetectedError(cut_short)
        address, length = _RECORD.unpack(head)
        delta, length = length & _DELTA_BIT, length & ~_DELTA_BIT
        data = handle.read(length)
        if len(data) < length:
            raise TamperDetectedError(cut_short)
        if not (
            store.put_delta(address, data) if delta
            else store.put(data) == address
        ):
            raise TamperDetectedError(unbuilt % address.hex()[:12])
    address = store.check_deltas()
    if address is not None:
        raise TamperDetectedError(unbuilt % address.hex()[:12])
    held = store.stats
    if (held.unique_chunks, held.physical_bytes) != (
        named.unique_chunks, named.physical_bytes
    ):
        raise TamperDetectedError(
            f"snapshot {path}: the chunk section is not the one named"
        )


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
