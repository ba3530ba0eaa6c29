"""Hybrid logical clocks (HLC).

The paper's answer to the oracle bottleneck: "we can adopt the hybrid
logic timestamp scheme that allocates timestamps by each individual
node and still has serializability guarantee" (Section 5.2, citing
Kulkarni et al. and CockroachDB).

An HLC timestamp is ``(wall, logical)``: ``wall`` tracks the local
physical clock, ``logical`` breaks ties so causally-related events are
always ordered.  The two rules:

- **local/send event** — ``wall = max(wall, now)``; bump ``logical``
  if ``wall`` did not advance;
- **receive event** — ``wall = max(wall, now, remote.wall)``;
  ``logical`` follows the maximum source.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import total_ordering
from typing import Callable, Optional

#: Width of the packed ``logical`` field in :meth:`HLCTimestamp.as_int`.
LOGICAL_BITS = 20
MAX_LOGICAL = (1 << LOGICAL_BITS) - 1


@total_ordering
@dataclass(frozen=True)
class HLCTimestamp:
    """A hybrid logical timestamp, totally ordered."""

    wall: int
    logical: int

    def _tuple(self):
        return (self.wall, self.logical)

    def __lt__(self, other: "HLCTimestamp") -> bool:
        return self._tuple() < other._tuple()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HLCTimestamp)
            and self._tuple() == other._tuple()
        )

    def __hash__(self) -> int:
        return hash(self._tuple())

    def as_int(self) -> int:
        """Pack into one integer (wall in the high bits).

        ``logical`` must fit its field: a value past ``MAX_LOGICAL``
        would silently spill into the wall bits and corrupt the total
        order.  :class:`HybridLogicalClock` carries the overflow into
        ``wall`` before it can happen; a timestamp constructed by hand
        past the bound is refused here.
        """
        if not 0 <= self.logical <= MAX_LOGICAL:
            raise OverflowError(
                f"logical counter {self.logical} does not fit in "
                f"{LOGICAL_BITS} bits; as_int() would corrupt ordering"
            )
        return (self.wall << LOGICAL_BITS) | self.logical


class HybridLogicalClock:
    """A per-node HLC.

    ``physical_clock`` is injectable so tests can drive skewed or
    frozen clocks; it must return a non-decreasing integer per node
    (the class tolerates decreases by never moving backwards).
    """

    def __init__(self, physical_clock: Optional[Callable[[], int]] = None):
        if physical_clock is None:
            import time

            physical_clock = lambda: int(time.time() * 1000)  # noqa: E731
        self._physical = physical_clock
        self._lock = threading.Lock()
        self._wall = 0
        self._logical = 0

    def _carry_overflow(self) -> None:
        """Keep ``logical`` inside its packed field (under the lock).

        Under a frozen or slow physical clock the logical counter grows
        without bound; past ``MAX_LOGICAL`` it would spill into the
        wall bits of :meth:`HLCTimestamp.as_int` and silently corrupt
        timestamp order.  Borrowing one wall tick instead preserves
        strict monotonicity: ``wall`` only ever moves forward, and the
        physical clock catches up later (``max(physical, wall)`` keeps
        tolerating the artificial lead exactly like ordinary skew).
        """
        if self._logical > MAX_LOGICAL:
            self._wall += 1
            self._logical = 0

    def now(self) -> HLCTimestamp:
        """Timestamp a local or send event."""
        with self._lock:
            physical = self._physical()
            if physical > self._wall:
                self._wall = physical
                self._logical = 0
            else:
                self._logical += 1
                self._carry_overflow()
            return HLCTimestamp(self._wall, self._logical)

    def update(self, remote: HLCTimestamp) -> HLCTimestamp:
        """Timestamp a receive event, merging a remote timestamp."""
        with self._lock:
            physical = self._physical()
            top = max(physical, self._wall, remote.wall)
            if top == self._wall and top == remote.wall:
                self._logical = max(self._logical, remote.logical) + 1
            elif top == self._wall:
                self._logical += 1
            elif top == remote.wall:
                self._logical = remote.logical + 1
            else:
                self._logical = 0
            self._wall = top
            self._carry_overflow()
            return HLCTimestamp(self._wall, self._logical)

    def peek(self) -> HLCTimestamp:
        """Current value without advancing (for monitoring)."""
        with self._lock:
            return HLCTimestamp(self._wall, self._logical)


class HlcOracle:
    """A drop-in, per-node replacement for the timestamp oracle.

    Section 5.2: "we can adopt the hybrid logic timestamp scheme that
    allocates timestamps by each individual node and still has
    serializability guarantee".  This adapter packs HLC stamps into
    integers so the transaction manager (which orders by integer
    timestamps) needs no changes; nodes exchange stamps through
    :meth:`witness` on message receipt, which is what keeps causally
    related transactions ordered without a central service.

    Uniqueness across nodes: the low bits carry a node id, so two
    nodes that produce the same (wall, logical) pair still allocate
    distinct integers.
    """

    NODE_BITS = 10

    def __init__(
        self,
        node_id: int,
        clock: Optional[HybridLogicalClock] = None,
    ):
        if not 0 <= node_id < (1 << self.NODE_BITS):
            raise ValueError(
                f"node_id must fit in {self.NODE_BITS} bits"
            )
        self.node_id = node_id
        self.clock = clock if clock is not None else HybridLogicalClock()
        self.allocated = 0

    def next_timestamp(self) -> int:
        """Allocate a locally-unique, causally-consistent timestamp."""
        stamp = self.clock.now()
        self.allocated += 1
        return (stamp.as_int() << self.NODE_BITS) | self.node_id

    def witness(self, remote_timestamp: int) -> None:
        """Merge a timestamp received from another node.

        Call on every cross-node message (e.g. 2PC prepare/commit);
        afterwards every local allocation exceeds the witnessed one.
        """
        packed = remote_timestamp >> self.NODE_BITS
        self.clock.update(
            HLCTimestamp(
                wall=packed >> LOGICAL_BITS, logical=packed & MAX_LOGICAL
            )
        )

    def advance_to(self, timestamp: int) -> None:
        """Ensure future allocations exceed ``timestamp``.

        Oracle-interface compatibility: crash recovery replays logged
        commits carrying explicit timestamps and must not let the node
        re-issue them.  For an HLC this is exactly a witness — merging
        the replayed stamp pushes every later allocation past it.
        """
        self.witness(timestamp)

    def current(self) -> int:
        """Most recent allocation boundary (monitoring only)."""
        return (self.clock.peek().as_int() << self.NODE_BITS) | self.node_id
