"""Virtual cell store: a view, not a store.

"Built on top of ForkBase is a virtual cell store" (Section 5), and
"the system maps each cell to a universal key consisting of the column
id, primary key, timestamp, and the hash of its value".  A committed
write is kept once, as a :class:`~repro.txn.mvcc.Version` in the MVCC
store; a cell is that version seen under its universal key, derived on
demand (one hash), so a write stores no key and no index entry here.
Tombstones (logical deletes) are not cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.crypto.hashing import hash_bytes
from repro.errors import QueryError
from repro.core.schema import DOC_PREFIX, KV_PREFIX, TABLE_PREFIX
from repro.core.universal_key import UniversalKey
from repro.txn.mvcc import MVCCStore, Version


def parse_logical_key(logical_key: bytes) -> Tuple[str, bytes]:
    """Split a logical key into (cell-store column, primary key)."""
    if logical_key.startswith(KV_PREFIX):
        return "default", logical_key[len(KV_PREFIX):]
    if logical_key.startswith(TABLE_PREFIX):
        body = logical_key[len(TABLE_PREFIX):]
        table, column, pk = body.split(b"\x00", 2)
        return f"{table.decode('utf-8')}.{column.decode('utf-8')}", pk
    if logical_key.startswith(DOC_PREFIX):
        body = logical_key[len(DOC_PREFIX):]
        collection, doc_id = body.split(b"\x00", 1)
        return f"{collection.decode('utf-8')}#doc", doc_id
    raise QueryError(f"malformed logical key {logical_key!r}")


def live_value(version: Optional[Version]) -> Optional[bytes]:
    """A newest version's value (None if none, or it is a delete)."""
    return version.value if version is not None else None


def put_history(store: MVCCStore, key: bytes) -> List[Tuple[int, bytes]]:
    """(timestamp, value) of every version of ``key`` but deletes."""
    return [
        (version.commit_ts, version.value)
        for version in store.history(key)
        if version.value is not None
    ]


@dataclass(frozen=True)
class Cell:
    """One immutable cell version."""

    ukey: UniversalKey
    value: bytes


class CellStore:
    """Cells over the MVCC store's versions, by logical key."""

    def __init__(self, store: MVCCStore):
        self._store = store

    def latest(self, logical_key: bytes) -> Optional[Cell]:
        """The live version (None if never written, or deleted)."""
        return _cell(logical_key, self._store.read_latest(logical_key))

    def at_time(self, logical_key: bytes, timestamp: int) -> Optional[Cell]:
        """The version live at ``timestamp`` (None if absent then)."""
        return _cell(logical_key, self._store.read(logical_key, timestamp))

    def versions(self, logical_key: bytes) -> List[Cell]:
        """Every version ever written, oldest first (deletes skipped)."""
        return [
            _cell(logical_key, version)
            for version in self._store.history(logical_key)
            if version.value is not None
        ]


def universal_key(
    logical_key: bytes, timestamp: int, value: bytes
) -> UniversalKey:
    """The universal key of ``value`` written under ``logical_key`` at
    ``timestamp``: the one recipe for a cell's address."""
    column, primary_key = parse_logical_key(logical_key)
    return UniversalKey(column, primary_key, timestamp, hash_bytes(value))


def _cell(logical_key: bytes, version: Optional[Version]) -> Optional[Cell]:
    if version is None or version.value is None:
        return None
    ukey = universal_key(logical_key, version.commit_ts, version.value)
    return Cell(ukey, version.value)
