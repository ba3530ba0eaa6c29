"""Timings at one declared machine speed.

Measured while sizing this benchmark: on the sandbox it runs in (a
2-vCPU VM on a shared host) the same pure-CPU loop runs at full speed
or 1.3x to 1.85x slower, in plateaus lasting from a fraction of a
second to minutes, with nothing else running in the VM.  Every
wall-clock time in the benchmark moves with it, within a run and
between runs, and no statistic over rounds removes a plateau longer
than the run.  The plateaus do not slow all code alike either: in one,
a chain of small SHA-256 calls slowed 1.74x, an unpickle-and-hash loop
1.47x, verified point reads 1.58x and 16-key batch reads 1.50x; in the
next the chain slowed 1.45x and point reads 1.67x.

So the benchmark measures the machine's speed *while* it measures the
program: a calibration spin (about half a millisecond: a quarter
interpreter work, a quarter unpickling and bisecting a 4 KB index node,
half dependent loads from a 16 MB table) every ``SLICE_NS`` of measured
work, outside every timed window.

- Every slice's times are multiplied by ``REFERENCE_SPIN_NS / mean of
  the two spins around it``: the time the work would have taken on a
  machine whose spin takes ``REFERENCE_SPIN_NS``.  **That constant is
  part of what every scaled metric means**: a reported millisecond is a
  millisecond at that speed (this sandbox, uncontended) and on no
  other; ``bench.calib_ms`` says how fast the machine actually ran and
  ``bench.raw_*`` what the clock actually read.  Scaling removes most
  of a plateau, not all of it (see :func:`spin`).
  The fastest tenth of the run's own spins was tried as the reference
  (a millisecond would then be a millisecond on any steady machine)
  and does not work here: measured, 40 s of spins had deciles 767 to
  1032 us where two minutes of them an hour before had 509 to 798, so
  a whole run can pass without one uncontended spin and would report
  every time 1.5x higher than the run before it.
- A slice is *steady* when both spins around it are within ``GATE`` of
  the fastest tenth of the run's own spins (so the gate holds on a
  machine of another speed).  A round's statistics use its steady
  slices only, if at least ``MIN_STEADY_SHARE`` of its samples are
  steady, and a metric is read over such rounds only, if at least that
  share of the rounds are; otherwise everything is used.  The work
  itself never changes, only which samples are read.
  Measured over five minutes in which the machine was contended 60 %
  of the time, 7.5 s windows of verified point reads: raw medians
  spread 59 % (quartiles 34 % apart), divided by the spin 18 % (7.5 %),
  steady slices only 3.0 % (1.6 %).  ``bench.steady_share`` says how
  much of the timed phase was steady.

Only CPU-bound stretches of about a slice are scaled: the recovery
after a crash (one call of seconds, much of it I/O) is reported as the
clock read it.  The clock's own readings of everything else are
reported beside the scaled ones (``bench.raw_*``) and kept in the run
record with the spins.
"""

from __future__ import annotations

import bisect
import pickle
import statistics
import time
from array import array
from typing import List, Sequence, Tuple

#: The spin on this sandbox when nothing contends for the host core;
#: the speed at which a scaled millisecond is a millisecond.
REFERENCE_SPIN_NS = 500_000
#: Measured work between two spins.
SLICE_NS = 25_000_000
#: A spin this much over the run's fastest tenth means contention: the
#: plateaus start at 1.3x, and uncontended spins scatter by about 10 %.
GATE = 1.25
#: A round is steady when this share of its samples is; a statistic is
#: taken over steady rounds when this share of the rounds is.
MIN_STEADY_SHARE = 0.25
_BYTECODE_STEPS = 1480
_NODE_VISITS = 29
_TABLE_LOADS = 1310
_NODE = pickle.dumps(
    ("L", tuple((b"%016d" % i, bytes(100)) for i in range(32))), protocol=4
)
_PROBE = b"%016d" % 7
_TABLE_SLOTS = 1 << 22
_STRIDE = int(_TABLE_SLOTS * 0.618) | 1
#: 16 MB; every slot names the slot ``_STRIDE`` further on, so following
#: the slots visits each cache line once before any of them twice.
_TABLE = array("i", range(_STRIDE, _TABLE_SLOTS)) + array("i", range(_STRIDE))
_slot = 0


def spin() -> int:
    """Nanoseconds the calibration spin takes right now.

    A quarter interpreter work (arithmetic and dict stores), a quarter
    what reading one index node does (unpickle 4 KB, bisect the keys),
    half loads that miss the caches, each next address read from the
    last.  The shares were chosen by measurement: 48 runs of the four
    workloads with the three parts timed separately, every latency
    rescaled afterwards with each weighting.  Over the 44 runs that saw
    the machine at full speed for part of the run, in-cache work alone
    left run-to-run deviations of up to 11 % in the scaled p50s, loads
    alone 19 %, equal thirds and this mix 9 % (the HTTP workloads would
    take fewer loads, the embedded ones more).  The four runs that
    never saw full speed (every spin 1.3x the reference or slower) read
    13 to 37 % high whatever the mix: that much of a plateau nothing
    here removes.  No hashing: 4 KB SHA-256 calls slowed 1.27x in a
    plateau where bytecode slowed 1.69x, unpickling 1.73x, dependent
    loads 1.87x and verified point reads 1.88x.
    """
    global _slot
    started = time.perf_counter_ns()
    total, slots = 0, {}
    for step in range(_BYTECODE_STEPS):
        total += step * 3 % 7
        slots[step & 63] = total
    for _ in range(_NODE_VISITS):
        entries = pickle.loads(_NODE)[1]
        bisect.bisect_right([key for key, _value in entries], _PROBE)
    slot, table = _slot, _TABLE
    for _ in range(_TABLE_LOADS):
        slot = table[slot]
    _slot = slot
    return time.perf_counter_ns() - started


class SpeedGauge:
    """Brackets stretches of work with spins.

    :meth:`close` ends the stretch since the previous call (or since
    construction): it spins once and returns the mean of the spins on
    both sides of the stretch (what :func:`scale` divides by) and the
    slower of the two (what :meth:`Gate.steady_or_all` judges).
    """

    def __init__(self) -> None:
        self.spins: List[int] = [spin()]

    def close(self) -> Tuple[float, int]:
        self.spins.append(spin())
        before, after = self.spins[-2:]
        return (before + after) / 2, max(before, after)

    def timed(self, work) -> Tuple[object, Tuple[float, float]]:
        """Run ``work()``; its result and ``(seconds as the clock read
        them, mean spin around it)``."""
        started = time.perf_counter_ns()
        result = work()
        elapsed = time.perf_counter_ns() - started
        return result, (elapsed / 1e9, self.close()[0])


def scale(duration: float, mean_spin: float) -> float:
    """``duration`` as it would have read at the reference speed."""
    return duration * REFERENCE_SPIN_NS / mean_spin


class Gate:
    """Which of a run's measurements were taken between steady spins."""

    def __init__(self, spins: Sequence[int]):
        self.gate_ns = GATE * statistics.quantiles(spins, n=10)[0]

    def steady_or_all(
        self, items: Sequence, slower_spin=lambda item: item.slower_spin
    ) -> Tuple[list, bool]:
        """The items measured between steady spins and True, if they are
        at least ``MIN_STEADY_SHARE`` of ``items``; else all, and False."""
        steady = [item for item in items if slower_spin(item) <= self.gate_ns]
        if len(steady) >= MIN_STEADY_SHARE * len(items):
            return steady, True
        return list(items), False


def across_rounds(values: Sequence[Tuple[float, bool]]) -> float:
    """One number from per-round ``(value, steady)`` statistics: the
    median over the steady rounds if they are at least
    ``MIN_STEADY_SHARE`` of the rounds, else over all."""
    steady = [value for value, is_steady in values if is_steady]
    if len(steady) < MIN_STEADY_SHARE * len(values):
        steady = [value for value, _steady in values]
    return statistics.median(steady)
