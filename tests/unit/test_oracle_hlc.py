"""Unit tests for the timestamp oracle and hybrid logical clocks."""

import threading

import pytest

from repro.txn.hlc import HLCTimestamp, HybridLogicalClock
from repro.txn.oracle import TimestampOracle


class TestTimestampOracle:
    def test_strictly_increasing(self):
        oracle = TimestampOracle()
        stamps = [oracle.next_timestamp() for _ in range(100)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 100

    def test_current_tracks_latest(self):
        oracle = TimestampOracle()
        assert oracle.current() == 0
        last = [oracle.next_timestamp() for _ in range(5)][-1]
        assert oracle.current() == last

    def test_thread_safety_uniqueness(self):
        oracle = TimestampOracle()
        seen = []
        lock = threading.Lock()

        def worker():
            local = [oracle.next_timestamp() for _ in range(500)]
            with lock:
                seen.extend(local)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seen)) == 4000


class TestHlc:
    def test_ordering_is_total(self):
        a = HLCTimestamp(5, 0)
        b = HLCTimestamp(5, 1)
        c = HLCTimestamp(6, 0)
        assert a < b < c
        assert not (a < a)
        assert a == HLCTimestamp(5, 0)

    def test_as_int_preserves_order(self):
        a = HLCTimestamp(5, 900)
        b = HLCTimestamp(6, 0)
        assert a.as_int() < b.as_int()

    def test_local_events_monotonic_with_frozen_clock(self):
        clock = HybridLogicalClock(physical_clock=lambda: 100)
        stamps = [clock.now() for _ in range(10)]
        assert all(x < y for x, y in zip(stamps, stamps[1:]))
        assert all(s.wall == 100 for s in stamps)

    def test_receive_preserves_causality_despite_skew(self):
        ahead = HybridLogicalClock(physical_clock=lambda: 200)
        behind = HybridLogicalClock(physical_clock=lambda: 50)
        sent = ahead.now()
        received = behind.update(sent)
        assert received > sent
        assert received.wall == 200  # adopted the remote wall

    def test_advancing_physical_resets_logical(self):
        times = iter([10, 10, 20])
        clock = HybridLogicalClock(physical_clock=lambda: next(times))
        first = clock.now()
        second = clock.now()
        third = clock.now()
        assert second.logical == first.logical + 1
        assert third == HLCTimestamp(20, 0)

    def test_update_with_stale_remote(self):
        clock = HybridLogicalClock(physical_clock=lambda: 100)
        clock.now()
        stale = HLCTimestamp(10, 5)
        merged = clock.update(stale)
        assert merged.wall == 100

    def test_peek_does_not_advance(self):
        clock = HybridLogicalClock(physical_clock=lambda: 7)
        stamp = clock.now()
        assert clock.peek() == stamp
        assert clock.peek() == stamp


class TestHlcLogicalOverflow:
    """Regression: as_int() packs `logical` into 20 bits, but a frozen
    or slow physical clock used to grow `logical` without bound — past
    2^20 same-wall events the counter spilled into the wall bits and
    silently corrupted timestamp order.  The clock now carries the
    overflow into `wall` (one borrowed tick) instead."""

    def test_carry_keeps_as_int_monotonic_at_the_boundary(self):
        from repro.txn.hlc import MAX_LOGICAL

        clock = HybridLogicalClock(physical_clock=lambda: 100)
        clock.now()
        # White-box: park the counter just under the packed field's
        # bound, then allocate across it.
        clock._logical = MAX_LOGICAL - 4
        stamps = [clock.now() for _ in range(16)]
        ints = [stamp.as_int() for stamp in stamps]
        assert ints == sorted(set(ints)), "as_int order corrupted"
        assert all(b > a for a, b in zip(ints, ints[1:]))
        # The overflow borrowed a wall tick; logical restarted.
        assert stamps[-1].wall == 101
        assert stamps[-1].logical < MAX_LOGICAL

    def test_update_carries_overflow_from_remote(self):
        from repro.txn.hlc import MAX_LOGICAL

        clock = HybridLogicalClock(physical_clock=lambda: 100)
        clock.now()
        merged = clock.update(HLCTimestamp(wall=100, logical=MAX_LOGICAL))
        # max(local, remote) + 1 would overflow the field: carried.
        assert merged.wall == 101
        assert merged.logical == 0
        assert merged.as_int() > HLCTimestamp(100, MAX_LOGICAL).as_int()

    def test_hand_built_overflowing_timestamp_is_refused(self):
        from repro.txn.hlc import MAX_LOGICAL

        with pytest.raises(OverflowError):
            HLCTimestamp(wall=1, logical=MAX_LOGICAL + 1).as_int()

    @pytest.mark.stress
    def test_frozen_clock_monotonic_across_2_to_the_20_allocations(self):
        """The full property, no white-box shortcuts: >2^20 allocations
        under a frozen physical clock stay strictly as_int-monotonic."""
        clock = HybridLogicalClock(physical_clock=lambda: 7)
        previous = clock.now().as_int()
        wrapped = False
        for _ in range((1 << 20) + 64):
            stamp = clock.now()
            packed = stamp.as_int()
            assert packed > previous
            previous = packed
            if stamp.wall > 7:
                wrapped = True
        assert wrapped, "the logical counter never carried into wall"
