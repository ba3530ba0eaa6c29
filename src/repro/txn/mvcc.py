"""Multi-version value store.

"In our design, cells are multi-versioned.  Therefore, to achieve
serializability guarantee, concurrency control mechanisms based on
MVCC ... are more suitable" (Section 5.2).  This store keeps every
committed version of every key, serves snapshot reads at any
timestamp, and never overwrites — matching the immutability
requirement of Section 1.  It is the database's only record of a
committed write and its one access path for point and range reads
(DESIGN.md §5 item 9): a B+-tree from each key to its newest version,
beside a table of the earlier versions of the keys written more than
once.  A key written once costs its tree slot and its version, no list.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Tuple,
)

from repro.indexes.bplus import BPlusTree

_COMMIT_TS = attrgetter("commit_ts")


@dataclass(frozen=True, slots=True)
class Version:
    """One committed version of a key; a ``None`` value is a delete."""

    commit_ts: int
    value: Any


def _in_order(key: Any, newest: Version, version: Version) -> None:
    """Refuse to install ``version`` over ``newest`` unless it is newer:
    versions are installed in commit-timestamp order per key, and one
    out of that order is a certifier bug."""
    if newest.commit_ts >= version.commit_ts:
        raise ValueError(
            f"out-of-order install at key {key!r}: "
            f"{version.commit_ts} <= {newest.commit_ts}"
        )


class MVCCStore:
    """Versioned key-value storage with snapshot reads."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        # key -> newest version, in key order
        self._latest = BPlusTree()
        # key -> its earlier versions by commit_ts ascending; only the
        # keys written more than once are here
        self._older: Dict[Any, List[Version]] = {}

    # -- reads -------------------------------------------------------------

    def read(self, key: Any, snapshot_ts: int) -> Optional[Version]:
        """Latest version with ``commit_ts <= snapshot_ts``.

        Returns None when no such version exists; returns a delete's
        version itself (callers decide how to surface deletes).
        """
        with self._lock:
            newest = self._latest.get_optional(key)
            if newest is None or newest.commit_ts <= snapshot_ts:
                return newest
            older = self._older.get(key, ())
            index = bisect_right(older, snapshot_ts, key=_COMMIT_TS)
            return older[index - 1] if index else None

    def read_latest(self, key: Any) -> Optional[Version]:
        """Most recent committed version regardless of snapshot."""
        with self._lock:
            return self._latest.get_optional(key)

    def latest_commit_ts(self, key: Any) -> int:
        """Commit timestamp of the newest version (0 if none)."""
        version = self.read_latest(key)
        return version.commit_ts if version is not None else 0

    def history(self, key: Any) -> List[Version]:
        """All committed versions of ``key``, oldest first."""
        with self._lock:
            newest = self._latest.get_optional(key)
            if newest is None:
                return []
            return [*self._older.get(key, ()), newest]

    def keys(self) -> Iterator[Any]:
        with self._lock:
            return iter(list(self._latest.keys()))

    def range(
        self, low: Any, high: Any, inclusive: bool = True
    ) -> List[Tuple[Any, Any]]:
        """Live ``(key, value)`` pairs with ``low <= key <= high`` (or
        ``< high``) in key order; a key whose newest version is a
        delete is skipped."""
        with self._lock:
            return [
                (key, version.value)
                for key, version in self._latest.range(low, high, inclusive)
                if version.value is not None
            ]

    def snapshot_items(self, snapshot_ts: int) -> Iterator[Tuple[Any, Any]]:
        """Live (key, value) pairs visible at ``snapshot_ts``."""
        for key in self.keys():
            version = self.read(key, snapshot_ts)
            if version is not None and version.value is not None:
                yield key, version.value

    def all_versions(self) -> Iterator[Tuple[Any, Version]]:
        """``(key, version)`` for every stored version, in key order and
        a key's in commit order."""
        for key, older, newest in self.histories():
            for version in older:
                yield key, version
            yield key, newest

    def histories(self) -> Iterator[Tuple[Any, Sequence[Version], Version]]:
        """``(key, earlier versions, newest version)`` for every key, in
        key order, the earlier ones in commit order."""
        with self._lock:
            latest = list(self._latest.items())
        for key, newest in latest:
            yield key, self._older.get(key, ()), newest

    # -- writes ------------------------------------------------------------

    def install(self, writes: Mapping[Any, Any], commit_ts: int) -> None:
        """Atomically install a committed write set at ``commit_ts``
        (``None`` deletes a key; its history is kept).

        Versions must be installed in commit-timestamp order per key;
        violating that indicates a certifier bug, so it raises.
        """
        with self._lock:
            for key, value in writes.items():
                self._push(key, Version(commit_ts, value))

    def restore(self, versions: Iterable[Tuple[Any, Version]]) -> None:
        """Adopt ``versions`` wholesale: ``(key, version)`` pairs, each
        key's in commit order, as :meth:`all_versions` yields them."""
        with self._lock:
            self._latest, self._older = BPlusTree(), {}
            for key, version in versions:
                self._push(key, version)

    def _push(self, key: Any, version: Version) -> None:
        newest = self._latest.insert(key, version, _in_order)
        if newest is not None:
            self._older.setdefault(key, []).append(newest)

    def __len__(self) -> int:
        with self._lock:
            return len(self._latest)

    def version_count(self) -> int:
        """Total number of stored versions across all keys."""
        with self._lock:
            return len(self._latest) + sum(map(len, self._older.values()))
