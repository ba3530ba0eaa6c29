"""Virtual cell store.

"Built on top of ForkBase is a virtual cell store, as opposed to row
or column store in traditional databases" (Section 5).  Every write
creates a new immutable cell version addressed by its universal key;
values are deduplicated in the shared chunk store; a B+-tree over the
encoded universal keys provides ordered access, so a prefix range walk
enumerates a cell's version history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.forkbase.chunk_store import ChunkStore
from repro.indexes.bplus import BPlusTree
from repro.core.universal_key import UniversalKey


@dataclass(frozen=True)
class Cell:
    """One immutable cell version."""

    ukey: UniversalKey
    value: bytes


class CellStore:
    """Universal-key-addressed immutable cells over a chunk store."""

    def __init__(self, chunks: ChunkStore):
        self._chunks = chunks
        # encoded universal key -> value content address; the B+-tree
        # serves ordered access (version enumeration, scans) and the
        # hash sidecar serves exact-match lookups.
        self._index = BPlusTree()
        self._by_encoded: dict = {}
        self.writes = 0

    def put(
        self, column: str, primary_key: bytes, timestamp: int, value: bytes
    ) -> UniversalKey:
        """Store a new cell version; returns its universal key."""
        # The chunk address *is* the value hash the key carries.
        address = self._chunks.put(value)
        ukey = UniversalKey(column, primary_key, timestamp, address)
        encoded = ukey.encode()
        self._index.insert(encoded, (ukey, address))
        self._by_encoded[encoded] = (ukey, address)
        self.writes += 1
        return ukey

    def get(self, ukey: UniversalKey) -> Optional[bytes]:
        """Value of an exact cell version (None if unknown)."""
        entry = self._index.get_optional(ukey.encode())
        if entry is None:
            return None
        _ukey, address = entry
        return self._chunks.get(address)

    def get_by_encoded(self, encoded: bytes) -> Optional[Cell]:
        entry = self._by_encoded.get(encoded)
        if entry is None:
            return None
        ukey, address = entry
        return Cell(ukey=ukey, value=self._chunks.get(address))

    def latest(
        self, column: str, primary_key: bytes
    ) -> Optional[Cell]:
        """Most recent version of a cell (None if never written)."""
        versions = self.versions(column, primary_key)
        return versions[-1] if versions else None

    def versions(self, column: str, primary_key: bytes) -> List[Cell]:
        """All versions of a cell, oldest first."""
        low, high = UniversalKey.prefix(column, primary_key)
        cells: List[Cell] = []
        for _encoded, (ukey, address) in self._index.range(low, high):
            cells.append(Cell(ukey=ukey, value=self._chunks.get(address)))
        return cells

    def at_time(
        self, column: str, primary_key: bytes, timestamp: int
    ) -> Optional[Cell]:
        """Latest version with ``ukey.timestamp <= timestamp``."""
        chosen: Optional[Cell] = None
        for cell in self.versions(column, primary_key):
            if cell.ukey.timestamp <= timestamp:
                chosen = cell
            else:
                break
        return chosen

    def scan(self, low: bytes, high: bytes) -> Iterator[Cell]:
        """Cells whose encoded universal key lies in ``[low, high]``."""
        for _encoded, (ukey, address) in self._index.range(low, high):
            yield Cell(ukey=ukey, value=self._chunks.get(address))

    def __len__(self) -> int:
        return len(self._index)
