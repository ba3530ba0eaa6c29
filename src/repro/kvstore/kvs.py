"""The immutable KVS built on ForkBase.

"For comparison purpose, we also build an immutable key-value store
(KVS) using ForkBase.  It is the same as Spitz in terms of indexing,
except that it does not maintain a ledger or provide verifiability.
Therefore, by comparing the two systems, we can focus on the
maintenance and verification cost of the ledger storage" (Section 6.1).

Accordingly this class reuses Spitz's exact storage parts — the
deduplicating chunk store and the version store (one MVCC version per
write, the only record of it, in the B+-tree that serves point and
range reads) — and omits only the ledger.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.forkbase.chunk_store import ChunkStore
from repro.core.cell_store import live_value, put_history
from repro.txn.mvcc import MVCCStore
from repro.txn.oracle import TimestampOracle


class ImmutableKVS:
    """Spitz's storage stack without the ledger."""

    def __init__(self) -> None:
        self.chunks = ChunkStore()
        self.versions = MVCCStore()
        self.oracle = TimestampOracle()

    def _install(self, key: bytes, value: object) -> None:
        self.versions.install({key: value}, self.oracle.next_timestamp())

    def put(self, key: bytes, value: bytes) -> None:
        """Append a new immutable version of ``key``."""
        self.chunks.put(value)
        self._install(key, value)

    def get(self, key: bytes) -> Optional[bytes]:
        """Latest version of ``key`` (None if absent)."""
        return live_value(self.versions.read_latest(key))

    def delete(self, key: bytes) -> None:
        """Remove ``key`` from the current state (history remains)."""
        if self.get(key) is not None:
            self._install(key, None)

    def scan(self, low: bytes, high: bytes) -> List[Tuple[bytes, bytes]]:
        """Entries with ``low <= key <= high`` from current state."""
        return self.versions.range(low, high)

    def history(self, key: bytes) -> List[Tuple[int, bytes]]:
        """Every stored version of ``key``: (timestamp, value)."""
        return put_history(self.versions, key)

    def __len__(self) -> int:
        return sum(
            1 for _ in self.versions.snapshot_items(self.oracle.current())
        )

    def storage_report(self) -> Dict[str, float]:
        stats = self.chunks.stats
        return {
            "logical_bytes": stats.logical_bytes,
            "physical_bytes": stats.physical_bytes,
            "dedup_ratio": stats.dedup_ratio,
        }
