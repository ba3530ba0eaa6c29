"""Snapshot persistence for a Spitz database.

The paper's prototype is in-memory; so is this reproduction.  For the
examples and the CLI to be usable across invocations, this module
provides *snapshot* persistence: the whole database object graph is
serialized to a file with an integrity header, and reloads are checked
against both the header digest and a full chain audit.

Caveats (documented, deliberate):
- a snapshot is a point-in-time copy, not a write-ahead log; for
  crash consistency *between* saves, layer the WAL on top
  (:mod:`repro.durability` — it reuses this format for checkpoints);
- the format is Python-pickle based and not cross-version stable —
  it is a convenience layer, not an interchange format.  The magic's
  digit is the snapshot layout — the object graph pickled (3: one
  version store) and the node format of its chunks (v2 since 2); a
  file of another layout is refused by name.
"""

from __future__ import annotations

import os
import pickle
import sys
from pathlib import Path
from typing import Union

from repro.crypto.hashing import hash_bytes
from repro.errors import (
    FormatVersionError,
    StorageError,
    TamperDetectedError,
)
from repro.core.database import SpitzDatabase

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
    chain audit — a snapshot modified at rest is detected, not
    silently loaded.
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
