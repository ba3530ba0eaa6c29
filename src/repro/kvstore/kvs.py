"""The immutable KVS built on ForkBase.

"For comparison purpose, we also build an immutable key-value store
(KVS) using ForkBase.  It is the same as Spitz in terms of indexing,
except that it does not maintain a ledger or provide verifiability.
Therefore, by comparing the two systems, we can focus on the
maintenance and verification cost of the ledger storage" (Section 6.1).

Accordingly this class reuses Spitz's exact storage parts — the
deduplicating chunk store, the version store (one MVCC version per
write, the only record of it), the B+-tree access path from a live key
to its version list — and omits only the ledger.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.forkbase.chunk_store import ChunkStore
from repro.indexes.bplus import BPlusTree
from repro.core.cell_store import live_value, put_history
from repro.txn.mvcc import MVCCStore
from repro.txn.oracle import TimestampOracle


class ImmutableKVS:
    """Spitz's storage stack without the ledger."""

    def __init__(self) -> None:
        self.chunks = ChunkStore()
        self.versions = MVCCStore()
        self.primary = BPlusTree()
        self.oracle = TimestampOracle()

    def _install(self, key: bytes, value: object) -> None:
        self.versions.install({key: value}, self.oracle.next_timestamp())

    def put(self, key: bytes, value: bytes) -> None:
        """Append a new immutable version of ``key``."""
        self.chunks.put(value)
        self._install(key, value)
        self.primary.insert(key, self.versions.versions_of(key))

    def get(self, key: bytes) -> Optional[bytes]:
        """Latest version of ``key`` (None if absent)."""
        return live_value(self.primary.get_optional(key))

    def delete(self, key: bytes) -> None:
        """Remove ``key`` from the current state (history remains)."""
        if key in self.primary:
            self._install(key, None)
            self.primary.delete(key)

    def scan(self, low: bytes, high: bytes) -> List[Tuple[bytes, bytes]]:
        """Entries with ``low <= key <= high`` from current state."""
        return [
            (key, versions[-1].value)
            for key, versions in self.primary.range(low, high)
        ]

    def history(self, key: bytes) -> List[Tuple[int, bytes]]:
        """Every stored version of ``key``: (timestamp, value)."""
        return put_history(self.versions, key)

    def __len__(self) -> int:
        return len(self.primary)

    def storage_report(self) -> Dict[str, float]:
        stats = self.chunks.stats
        return {
            "logical_bytes": stats.logical_bytes,
            "physical_bytes": stats.physical_bytes,
            "dedup_ratio": stats.dedup_ratio,
        }
