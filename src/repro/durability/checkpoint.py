"""Checkpoints: integrity-checked snapshots that bound WAL replay.

A checkpoint is the whole database object graph behind a header —
magic, then the payload's digest — written as
``checkpoint-<lsn>.spitz``, where ``<lsn>`` is the last WAL record
folded into the snapshotted state.  :func:`load_database` checks the
digest and runs the chain audit, so a checkpoint modified at rest is
detected, not silently loaded.  Recovery loads the highest-LSN
checkpoint that passes and replays only records with a larger LSN;
sealed WAL segments entirely at or below the *oldest retained*
checkpoint's LSN are deleted, so every retained checkpoint can still
replay to the log's end.

Policy: checkpoints are explicit (CLI ``checkpoint`` subcommand,
:meth:`DurableDatabase.checkpoint`) or interval-driven via
``checkpoint_every`` on :class:`~repro.durability.recovery.DurableDatabase`
— every N commits.  Because the snapshot write is atomic
(temp file + ``os.replace``) a crash mid-checkpoint leaves the
previous checkpoint intact and the WAL un-truncated, which recovery
handles as the ordinary case.

The format is Python-pickle based and not cross-version stable.  The
magic's digit is the snapshot layout — the object graph pickled (3:
one version store) and the node format of its chunks (v2 since 2); a
file of another layout is refused by name, and there is no migration.
"""

from __future__ import annotations

import os
import pickle
import re
import sys
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.core.database import SpitzDatabase
from repro.crypto.hashing import hash_bytes
from repro.errors import (
    FormatVersionError,
    StorageError,
    TamperDetectedError,
)

CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".spitz"
_CHECKPOINT_RE = re.compile(
    re.escape(CHECKPOINT_PREFIX) + r"(\d{12})" + re.escape(CHECKPOINT_SUFFIX)
)
_MAGIC = b"SPITZDB3"


def save_database(db: SpitzDatabase, path: Union[str, Path]) -> int:
    """Write a snapshot of ``db``; returns the snapshot size in bytes.

    Pending ledger writes are flushed first so the snapshot is a
    sealed, verifiable state.  The write is atomic: the blob lands in
    a temp file that is fsynced and then renamed over ``path``, so a
    crash mid-save leaves the previous snapshot untouched rather than
    a half-written one.
    """
    db.flush_ledger()
    # Deep object graphs (B+-tree leaf chains) need headroom beyond
    # the default recursion limit.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100_000))
    try:
        payload = pickle.dumps(db, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        sys.setrecursionlimit(limit)
    # Written apart: a joined blob would be a second copy of the payload.
    header = _MAGIC + bytes(hash_bytes(payload))
    path = Path(path)
    temp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        with open(temp, "wb") as handle:
            handle.write(header)
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    finally:
        if temp.exists():
            temp.unlink()
    return len(header) + len(payload)


def load_database(path: Union[str, Path]) -> SpitzDatabase:
    """Load a snapshot, checking the header digest and the chain.

    Raises :class:`TamperDetectedError` when the file bytes do not
    match their recorded digest or the restored ledger fails its
    chain audit.
    """
    with open(path, "rb") as handle:  # payload read apart, not sliced
        header = handle.read(len(_MAGIC) + 32)
        if not header.startswith(_MAGIC):
            if header.startswith(_MAGIC[:-1]) and header[7:8].isdigit():
                raise FormatVersionError(
                    f"{path} holds a snapshot in layout {header[7:8].decode()}"
                    f"; this build reads and writes snapshot layout "
                    f"{_MAGIC[7:].decode()} only, and there is no migration"
                )
            raise StorageError(f"{path} is not a Spitz snapshot")
        payload = handle.read()
    if bytes(hash_bytes(payload)) != header[len(_MAGIC):]:
        raise TamperDetectedError(
            f"snapshot {path} does not match its recorded digest"
        )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100_000))
    try:
        db = pickle.loads(payload)
    finally:
        sys.setrecursionlimit(limit)
    if not isinstance(db, SpitzDatabase):
        raise StorageError(f"snapshot {path} does not contain a database")
    if not db.verify_chain():
        raise TamperDetectedError(
            f"snapshot {path} restored a ledger that fails its audit"
        )
    return db


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


def latest_checkpoint(
    root: Union[str, Path]
) -> Optional[Tuple[int, Path]]:
    checkpoints = list_checkpoints(root)
    return checkpoints[-1] if checkpoints else None


def write_checkpoint(db, wal, keep: int = 2) -> Tuple[int, Path]:
    """Snapshot ``db`` and truncate the WAL behind the retained set.

    ``wal`` is the live :class:`~repro.durability.wal.WriteAheadLog`
    for the same directory.  The WAL is synced first so the snapshot
    never runs ahead of the durable log.  The new checkpoint plus up
    to ``keep`` older ones are retained — recovery falls back to an
    older checkpoint when a newer one fails its integrity check — so
    the WAL is truncated only through the *oldest* retained
    checkpoint's LSN: every surviving checkpoint keeps the log suffix
    it needs for replay.

    Returns ``(lsn, path)`` of the new checkpoint.
    """
    wal.sync()
    lsn = wal.last_lsn
    path = checkpoint_path(wal.root, lsn)
    save_database(db, path)
    checkpoints = list_checkpoints(wal.root)
    for _old_lsn, old_path in checkpoints[:-(max(keep, 0) + 1)]:
        old_path.unlink()
    retained = list_checkpoints(wal.root)
    wal.truncate_through(retained[0][0])
    return lsn, path
