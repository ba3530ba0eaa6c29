"""Centralized timestamp oracle.

"One approach to achieving serializability is to rely on a global
timestamp service, like Timestamp Oracle [Percolator], to allocate the
timestamps upon a transaction starts and commits" (Section 5.2).  The
paper also notes the oracle can become a bottleneck;
:mod:`repro.txn.hlc` is the decentralized alternative.
"""

from __future__ import annotations

import threading


class TimestampOracle:
    """Strictly monotonic timestamp allocation under one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._next = 1
        self.allocated = 0

    def next_timestamp(self) -> int:
        """Allocate one timestamp, unique and strictly increasing."""
        with self._lock:
            timestamp = self._next
            self._next += 1
            self.allocated += 1
            return timestamp

    def current(self) -> int:
        """Highest timestamp allocated so far (0 if none)."""
        with self._lock:
            return self._next - 1

    def advance_to(self, timestamp: int) -> None:
        """Ensure future allocations exceed ``timestamp``.

        Used by crash recovery after replaying logged commits that
        carry explicit timestamps: the oracle must not re-issue them.
        """
        with self._lock:
            if timestamp >= self._next:
                self._next = timestamp + 1

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_lock"]  # recreated on restore
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()
