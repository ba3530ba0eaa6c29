"""Small-scale shape assertions for the paper's figures.

These run the actual figure harness at tiny sizes and assert the
*relative* claims the paper makes — who wins, in which direction
verification hurts — without pinning absolute numbers.
"""

import gc
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.bench import harness
from repro.bench.harness import (
    LOADERS,
    OPS_BASELINE_VERIFY,
    OPS_DEFAULT,
    OPS_SCAN,
    SEED,
    _baseline_verified_read,
    _load_spitz,
    _settle_gc,
    _throughput_over,
    run_figure,
)
from repro.forkbase.chunker import FixedSizeChunker, RollingChunker
from repro.forkbase.store import ForkBase
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.timeseries import TelemetryPlane
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.wiki import WikiWorkload

SIZES = [200, 800]


@pytest.fixture(scope="module")
def figures():
    (read,) = run_figure("6a", SIZES)
    (write,) = run_figure("6b", SIZES)
    # At these sizes a 0.1 % range holds one key, so the verified-range
    # gap has nothing to show in; 1 % gives 2 and 8 keys.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "SCAN_SELECTIVITY", 0.01)
        (ranged,) = run_figure("7", SIZES)
    fig8_read, fig8_write = run_figure("8", [400])
    return read, write, ranged, fig8_read, fig8_write


class TestFigure1Shape:
    def test_dedup_reduces_storage_growth(self):
        (result,) = run_figure("1", SIZES)
        naive = result.series_named("Storage").points
        fork = result.series_named("Storage-ForkBase").points
        # ForkBase stores less at every point...
        assert fork[10] < naive[10]
        assert fork[30] < naive[30]
        # ...and grows slower.
        assert (fork[30] - fork[10]) < (naive[30] - naive[10]) * 0.8

    def test_rolling_chunks_beat_fixed_after_a_mid_page_insertion(self):
        """What content-defined chunking is for: after an insertion a
        third of the way into a page every fixed-size chunk downstream
        changes, while rolling boundaries resynchronise within a chunk
        or two.  Figure 1's edits overwrite a slice in place, which
        shifts nothing, so they cannot tell the two chunkers apart."""
        pages = WikiWorkload(seed=7).initial_pages()
        grown = {}
        for label, chunker in (
            ("rolling", RollingChunker()),
            ("fixed", FixedSizeChunker(4096)),
        ):
            store = ForkBase(chunker=chunker)
            for page, content in pages:
                store.put(page, content)
            store.commit("v1")
            before = store.stats.physical_bytes
            for version, (page, content) in enumerate(pages, 2):
                cut = len(content) // 3
                inserted = content[:cut] + b"an inserted line.\n" + content[cut:]
                store.put(page, inserted)
                store.commit(f"v{version}")
            grown[label] = store.stats.physical_bytes - before
        assert grown["rolling"] < grown["fixed"] / 2


class TestFigure6Shapes:
    def test_verification_costs_throughput_on_reads(self, figures):
        read, _w, _r, _f8r, _f8w = figures
        for n in SIZES:
            assert read.ratio("Spitz", "Spitz-verify", n) > 1.5
            assert read.ratio("Baseline", "Baseline-verify", n) > 2.0

    def test_spitz_verify_beats_baseline_verify(self, figures):
        read, _w, _r, _f8r, _f8w = figures
        # The paper's headline: the unified index wins, and the gap
        # widens with the record count.
        small, large = SIZES
        ratio = read.ratio("Spitz-verify", "Baseline-verify", large)
        # The Baseline-verify measurement window is ~30 ops, so even
        # best-of-N timing leaves this ratio noisy on a loaded
        # machine; a dip below the bound is re-measured from scratch
        # before being declared a regression.
        for _ in range(3):
            if ratio > 1.2:
                break
            ratio = run_figure("6a", SIZES)[0].ratio(
                "Spitz-verify", "Baseline-verify", large
            )
        assert ratio > 1.2

    def test_baseline_verify_degrades_with_size(self):
        """A baseline proof searches the journal, so a verified read
        costs more as the store grows.  Timed on its own: sizes 8x
        apart rather than the shared fixture's 4x, and best-of-N CPU
        time of this thread, interleaved — time the scheduler gives
        other processes does not count against either size."""
        small, large = 200, 1600
        reads = {}
        for n in (small, large):
            gen = WorkloadGenerator(n, seed=SEED)
            base = LOADERS["baseline"](gen)
            ops = list(gen.reads(OPS_BASELINE_VERIFY))
            reads[n] = (ops, next(_baseline_verified_read(base)))
        _settle_gc()
        best = dict.fromkeys(reads, 0.0)
        for i in range(6):
            for n in (small, large) if i % 2 == 0 else (large, small):
                ops, action = reads[n]
                best[n] = max(best[n], _cpu_rate(ops, action))
        assert best[large] < best[small]

    def test_kvs_writes_fastest(self, figures):
        _r, write, _rng, _f8r, _f8w = figures
        for n in SIZES:
            assert write.ratio("Immutable KVS", "Spitz", n) > 1.0
            assert write.ratio("Immutable KVS", "Baseline", n) > 1.0


class TestFigure7Shapes:
    def test_range_queries_slower_than_point(self):
        """A range scan walks every leaf its range touches, so it is
        slower than a point read of the same system.  Timed on its own
        rather than read from the shared fixture, whose point and scan
        series are single windows timed apart: per system and size,
        point reads and the fixture's 1 % scans alternate over best-of-N
        CPU time of this thread, so time the scheduler gives other
        processes counts against neither."""
        for system in ("spitz", "kvs"):
            for n in SIZES:
                gen = WorkloadGenerator(n, seed=SEED)
                db = LOADERS[system](gen)
                kinds = {
                    "point": (
                        list(gen.reads(OPS_DEFAULT)),
                        lambda op: db.get(op.key),
                    ),
                    "scan": (
                        list(gen.range_scans(OPS_SCAN, 0.01)),
                        lambda op: db.scan(op.key, op.high),
                    ),
                }
                _settle_gc()
                best = dict.fromkeys(kinds, 0.0)
                for i in range(6):
                    for kind in ("point", "scan")[::1 if i % 2 else -1]:
                        ops, action = kinds[kind]
                        best[kind] = max(best[kind], _cpu_rate(ops, action))
                assert best["scan"] < best["point"], (system, n, best)

    def test_spitz_verified_ranges_beat_baseline(self, figures):
        _r, _w, ranged, _f8r, _f8w = figures
        large = SIZES[-1]
        assert ranged.ratio("Spitz-verify", "Baseline-verify", large) > 2.0


def _cpu_rate(ops, action):
    """Ops per second of this thread's CPU time over one pass, GC
    paused as :func:`_throughput_over` pauses it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        for op in ops:
            action(op)
        return len(ops) / max(time.thread_time() - start, 1e-9)
    finally:
        if was_enabled:
            gc.enable()


def _best_read_throughputs(telemetry):
    """Best-of-N point-read throughput of a NULL-registry database and
    a live-registry one, as ``(plain, instrumented)``.

    With ``telemetry`` a :class:`TelemetryPlane` ticks over the live
    registry at 50ms slots (20x the production 1s cadence) while the
    trials run.
    """
    gen = WorkloadGenerator(500, seed=3)
    registry = MetricsRegistry()
    instrumented = _load_spitz(gen, registry)
    plain = _load_spitz(gen, NULL_REGISTRY)
    _settle_gc()
    ops = list(gen.reads(2000))

    def throughput(db):
        return _throughput_over(ops, lambda op: db.get(op.key))

    plane = TelemetryPlane(registry, slot_seconds=0.05)
    if telemetry:
        plane.start()
    try:
        throughput(plain), throughput(instrumented)  # warm caches
        best_plain = best_instrumented = 0.0
        # Interleaved with alternating order: measuring the same side
        # first every round would let monotonic drift (turbo decay
        # after the load phase) bias whichever side runs later.
        for i in range(9):
            first, second = (
                (plain, instrumented) if i % 2 == 0
                else (instrumented, plain)
            )
            for db in (first, second):
                value = throughput(db)
                if db is plain:
                    best_plain = max(best_plain, value)
                else:
                    best_instrumented = max(best_instrumented, value)
    finally:
        plane.stop()
    return best_plain, best_instrumented


class TestInstrumentationOverhead:
    def test_read_path_overhead_under_five_percent(self):
        """The acceptance budget: instrumenting the registry must not
        cost Figure 6(a)'s measured read path more than 5%.

        The raw point read deliberately has no per-operation
        instrumentation (commits and snapshots do) — asserted first —
        so the comparison is between a live registry and the shared
        NULL registry on an identical code path.  Scheduler noise is
        kept out of the ratio: each round times both sides in CPU
        time of this thread, in alternating order, and the median of
        the rounds' ratios is taken over three freshly loaded pairs, so
        neither a descheduled pass nor one database's memory layout
        decides it.
        """
        gen = WorkloadGenerator(500, seed=3)
        ops = list(gen.reads(2000))
        ratios = []
        for _pair in range(3):
            registry = MetricsRegistry()
            instrumented = _load_spitz(gen, registry)
            plain = _load_spitz(gen, NULL_REGISTRY)
            _settle_gc()
            before = registry.snapshot()
            rates = {
                db: _cpu_rate(ops, lambda op, db=db: db.get(op.key))
                for db in (instrumented, plain)  # warm caches
            }
            assert registry.snapshot() == before  # no operation recorded
            for i in range(7):
                for db in (plain, instrumented)[::1 if i % 2 else -1]:
                    rates[db] = _cpu_rate(
                        ops, lambda op, db=db: db.get(op.key)
                    )
                ratios.append(rates[instrumented] / rates[plain])
        assert statistics.median(ratios) >= 0.95

    def test_instrumented_bench_db_still_counts(self):
        registry = MetricsRegistry()
        _load_spitz(WorkloadGenerator(100, seed=3), registry)
        snap = registry.snapshot()
        assert snap["counters"]["db.writes_folded"] == 100


class TestFigure8Shapes:
    def test_nonintrusive_pays_for_separation(self, figures):
        _r, _w, _rng, fig8_read, fig8_write = figures
        n = 400
        assert fig8_read.ratio("Spitz", "Non-intrusive", n) > 1.2
        assert fig8_read.ratio(
            "Spitz-verify", "Non-intrusive-verify", n
        ) > 1.5
        assert fig8_write.ratio("Spitz", "Non-intrusive", n) > 1.5


class TestFigureObsShapes:
    def test_telemetry_on_within_budget_of_off(self):
        """The telemetry-plane acceptance bar: a live telemetry plane
        ticking aggressively (50ms slots) must keep the read path within
        5% of a disabled registry.

        A noisy box can still lose a best-of-N run to scheduler jitter —
        re-measure up to three times before calling it a regression.
        """
        for _ in range(3):
            off, on = _best_read_throughputs(True)
            if on >= off * 0.95:
                break
        assert on >= off * 0.95


class TestHarnessCommandLine:
    def test_module_runs_once_under_python_m(self):
        """``python -m repro.bench.harness`` must not import the module
        before runpy executes it (runpy warns, and the module body would
        run twice)."""
        src = Path(repro.__file__).resolve().parent.parent
        completed = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning",
                "-m", "repro.bench.harness", "--figure", "1",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "== Figure 1:" in completed.stdout
