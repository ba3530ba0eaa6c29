"""Multi-version value store.

"In our design, cells are multi-versioned.  Therefore, to achieve
serializability guarantee, concurrency control mechanisms based on
MVCC ... are more suitable" (Section 5.2).  This store keeps every
committed version of every key, serves snapshot reads at any
timestamp, and never overwrites — matching the immutability
requirement of Section 1.  It is the database's only record of a
committed write (DESIGN.md §5 item 9).
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

_COMMIT_TS = attrgetter("commit_ts")


@dataclass(frozen=True, slots=True)
class Version:
    """One committed version of a key."""

    commit_ts: int
    value: Any
    txn_id: int

    #: Sentinel value marking a logical delete (tombstone).
    TOMBSTONE = "__tombstone__"

    @property
    def is_tombstone(self) -> bool:
        return (
            isinstance(self.value, str) and self.value == Version.TOMBSTONE
        )


class MVCCStore:
    """Versioned key-value storage with snapshot reads."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        # key -> versions sorted by commit_ts ascending
        self._versions: Dict[Any, List[Version]] = {}

    def __getstate__(self):
        # Locks are not picklable; recreate on restore.
        return {"_versions": self._versions}

    def __setstate__(self, state):
        self._versions = state["_versions"]
        self._lock = threading.RLock()

    # -- reads -------------------------------------------------------------

    def read(self, key: Any, snapshot_ts: int) -> Optional[Version]:
        """Latest version with ``commit_ts <= snapshot_ts``.

        Returns None when no such version exists; returns the tombstone
        version itself (callers decide how to surface deletes).
        """
        with self._lock:
            versions = self._versions.get(key, ())
            index = bisect_right(versions, snapshot_ts, key=_COMMIT_TS)
            return versions[index - 1] if index else None

    def read_latest(self, key: Any) -> Optional[Version]:
        """Most recent committed version regardless of snapshot."""
        with self._lock:
            versions = self._versions.get(key)
            return versions[-1] if versions else None

    def latest_commit_ts(self, key: Any) -> int:
        """Commit timestamp of the newest version (0 if none)."""
        version = self.read_latest(key)
        return version.commit_ts if version is not None else 0

    def history(self, key: Any) -> List[Version]:
        """All committed versions of ``key``, oldest first."""
        with self._lock:
            return list(self._versions.get(key, ()))

    def versions_of(self, key: Any) -> Optional[List[Version]]:
        """``key``'s version list itself (installs append to it in
        place; never mutate it), or None if never written."""
        return self._versions.get(key)

    def keys(self) -> Iterator[Any]:
        with self._lock:
            return iter(sorted(self._versions.keys()))

    def snapshot_items(self, snapshot_ts: int) -> Iterator[Tuple[Any, Any]]:
        """Live (key, value) pairs visible at ``snapshot_ts``."""
        with self._lock:
            keys = sorted(self._versions.keys())
        for key in keys:
            version = self.read(key, snapshot_ts)
            if version is not None and not version.is_tombstone:
                yield key, version.value

    # -- writes ------------------------------------------------------------

    def install(
        self, writes: Mapping[Any, Any], commit_ts: int, txn_id: int
    ) -> None:
        """Atomically install a transaction's write set at ``commit_ts``.

        Versions must be installed in commit-timestamp order per key;
        violating that indicates a certifier bug, so it raises.
        """
        with self._lock:
            for key, value in writes.items():
                versions = self._versions.setdefault(key, [])
                if versions and versions[-1].commit_ts >= commit_ts:
                    raise ValueError(
                        f"out-of-order install at key {key!r}: "
                        f"{commit_ts} <= {versions[-1].commit_ts}"
                    )
                versions.append(
                    Version(commit_ts=commit_ts, value=value, txn_id=txn_id)
                )

    def delete(self, key: Any, commit_ts: int, txn_id: int) -> None:
        """Install a tombstone (logical delete; history is preserved)."""
        self.install({key: Version.TOMBSTONE}, commit_ts, txn_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._versions)

    def version_count(self) -> int:
        """Total number of stored versions across all keys."""
        with self._lock:
            return sum(len(v) for v in self._versions.values())
