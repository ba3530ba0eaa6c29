"""Checkpoints: integrity-checked snapshots that bound WAL replay.

A checkpoint is written as ``checkpoint-<lsn>.spitz``, where ``<lsn>``
is the last WAL record folded into the snapshotted state, in two parts:

- **the pickled remainder** — the database object graph with its chunk
  store replaced by a reference (a pickle persistent id carrying the
  store's accounting), behind a header of magic, the remainder's
  SHA-256 and its length.  The digest is one the file carries about
  itself: it catches damage, not an editor;
- **the chunk section** — every chunk in its stored form, as an
  ``(address(32) ‖ length(u32) ‖ stored bytes)`` record whose length's
  top bit marks a reverse delta (``base address ‖ prefix length ‖
  suffix length ‖ middle``, :class:`~repro.forkbase.chunk_store.Delta`)
  and is clear for a chunk held whole.  A chunk's address is its
  integrity check (ForkBase's content addressing): :func:`load_database`
  accepts a whole record only if its bytes hash to its address and a
  delta only once its chain — at most
  :data:`~repro.forkbase.chunk_store.MAX_CHAIN` links, each base in the
  section — rebuilds to bytes that do, and the section only if it holds
  exactly the chunk count and bytes the remainder's accounting names.
  So a flipped byte, a record cut short, a record under another
  address, a dropped or added one, a delta naming an absent base, a
  cycle of deltas or a chain too long is a
  :class:`~repro.errors.TamperDetectedError`.

:func:`load_database` then runs the chain audit, which authenticates
the blocks and their roots against those chunks.  Recovery loads the
highest-LSN checkpoint that passes and replays only records with a
larger LSN; sealed WAL segments entirely at or below the *oldest
retained* checkpoint's LSN are deleted, so every retained checkpoint
can still replay to the log's end.

Policy: checkpoints are explicit (CLI ``checkpoint`` subcommand,
:meth:`DurableDatabase.checkpoint`), and the newest plus
:data:`KEEP_OLDER` older ones are retained.  A checkpoint is taken
under the database's commit lock, so no commit lands between the LSN
it records, the remainder and the section, or while the log is
truncated behind it.  Because the snapshot write is atomic (temp file
+ ``os.replace``) a crash mid-checkpoint leaves the previous checkpoint
intact and the WAL un-truncated, which recovery handles as the
ordinary case.

The remainder is Python-pickle based and not cross-version stable.
The magic's digit is the snapshot layout — what is pickled (one
version store since 3, chunks as plain bytes since 5, chunks as
records outside the pickle since 6, chunks in their stored form, deltas
among them, since 7) and the node format of the chunks (v3 since 4: a
common key prefix stored once, varint lengths); a file
of another layout is refused by name before anything in it is
unpickled, and there is no migration.
"""

from __future__ import annotations

import io
import os
import pickle
import re
import struct
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, List, Tuple, Union

from repro.core.database import SpitzDatabase
from repro.crypto.hashing import hash_bytes
from repro.errors import (
    FormatVersionError,
    StorageError,
    TamperDetectedError,
)
from repro.forkbase.chunk_store import ChunkStore, Delta

CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".spitz"
_CHECKPOINT_RE = re.compile(
    re.escape(CHECKPOINT_PREFIX) + r"(\d{12})" + re.escape(CHECKPOINT_SUFFIX)
)
_MAGIC = b"SPITZDB7"
#: After the magic: the remainder's digest and length.
_HEADER = struct.Struct(">32sQ")
#: Ahead of each chunk's stored bytes: its address and length.
_RECORD = struct.Struct(">32sI")
#: The length's top bit: the record is a delta.
_DELTA_BIT = 1 << 31
#: The persistent id's tag for the database's chunk store.
_CHUNKS = "chunks"
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
    streamed from the store, never copied into the remainder.
    """
    path = Path(path)
    temp = path.with_name(path.name + f".tmp.{os.getpid()}")
    with db.txn_manager.commit_lock:
        db.flush_ledger()
        remainder = _pickle_remainder(db)
        try:
            with open(temp, "wb") as handle:
                handle.write(_MAGIC)
                handle.write(
                    _HEADER.pack(hash_bytes(remainder), len(remainder))
                )
                handle.write(remainder)
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


def _pickle_remainder(db: SpitzDatabase) -> memoryview:
    """``db`` pickled with its chunk store replaced by a persistent id
    that carries the store's tracer and accounting."""
    store = db.chunks
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = lambda obj: (
        (_CHUNKS, store.tracer, store.stats) if obj is store else None
    )
    with _deep_graphs():
        pickler.dump(db)
    return buffer.getbuffer()


@contextmanager
def _deep_graphs():
    """Deep object graphs (B+-tree leaf chains) need headroom beyond the
    default recursion limit to pickle and unpickle."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100_000))
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def load_database(path: Union[str, Path]) -> SpitzDatabase:
    """Load a snapshot: check the remainder's digest, accept each chunk
    only under its own hash, then unpickle and audit the chain.

    Raises :class:`FormatVersionError` for another snapshot layout
    (before anything is unpickled) and :class:`TamperDetectedError`
    when the remainder does not match its digest, a chunk record does
    not rebuild to bytes that hash to its address or is cut short, the
    section does not hold the chunks the remainder names, or the
    restored ledger fails its chain audit.
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
        remainder = handle.read(size)
        if len(remainder) != size or hash_bytes(remainder) != digest:
            raise TamperDetectedError(
                f"snapshot {path} does not match its recorded digest"
            )
        store = _read_chunks(handle, path)
    db = _unpickle_remainder(remainder, store, path)
    if not isinstance(db, SpitzDatabase):
        raise StorageError(f"snapshot {path} does not contain a database")
    if not db.verify_chain():
        raise TamperDetectedError(
            f"snapshot {path} restored a ledger that fails its audit"
        )
    return db


def _read_chunks(handle: BinaryIO, path) -> ChunkStore:
    """The chunk section into a new store: each whole record put (so
    hashed) and accepted only under the address it was written with,
    each delta held as written and accepted once all are in and it
    rebuilds to bytes that hash to its address."""
    store = ChunkStore()
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
    return store


def _unpickle_remainder(remainder: bytes, store: ChunkStore, path):
    """The pickled remainder, its chunk-store reference resolved to
    ``store`` once the section has been checked against what the
    reference says the store held."""

    def persistent_load(pid):
        tag, tracer, stats = pid
        if tag != _CHUNKS:
            raise pickle.UnpicklingError(f"unknown persistent id {tag!r}")
        held = store.stats
        if (held.unique_chunks, held.physical_bytes) != (
            stats.unique_chunks, stats.physical_bytes
        ):
            raise TamperDetectedError(
                f"snapshot {path}: the chunk section holds {held.unique_chunks}"
                f" chunks of {held.physical_bytes} bytes where the snapshot "
                f"names {stats.unique_chunks} of {stats.physical_bytes}"
            )
        store.tracer, store.stats = tracer, stats
        return store

    unpickler = pickle.Unpickler(io.BytesIO(remainder))
    unpickler.persistent_load = persistent_load
    with _deep_graphs():
        return unpickler.load()


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
    """Snapshot ``db`` and truncate the WAL behind the retained set.

    ``wal`` is the live :class:`~repro.durability.wal.WriteAheadLog`
    for the same directory.  All of it runs under the commit lock,
    which is what every append to the log holds: the WAL is synced
    first so the snapshot never runs ahead of the durable log, no
    commit lands between the LSN read and the snapshot, and none is
    appended while truncation rotates the active segment.  The new
    checkpoint plus up to :data:`KEEP_OLDER` older ones are retained —
    recovery falls back to an older checkpoint when a newer one fails
    its integrity check — so the WAL is truncated only through the
    *oldest* retained checkpoint's LSN: every surviving checkpoint
    keeps the log suffix it needs for replay.

    Returns ``(lsn, path)`` of the new checkpoint.
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
