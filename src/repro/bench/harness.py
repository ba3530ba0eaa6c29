"""The paper's evaluation (§6) as a table of figures over one timing loop.

Figures 6(a), 6(b), 7 and 8 are rows of series in :data:`FIGURES`;
:func:`run_figure` loads the systems the rows name, draws their ops
and times each row through :func:`_throughput_over`.  Figure 1
measures bytes, not time.  ``--figure http`` is not a paper figure:
it drives the HTTP service plane's ladders over real sockets.

Record counts are scaled down from the paper's 10^4..1.28*10^6 ladder
(DESIGN.md's substitution table): the same *2 geometric spacing,
starting at ``--scale`` (default 250).  Absolute ops/s are not
comparable to the paper's C++ testbed; the *shapes* — who wins, by
what factor, where verification hurts — are, and EXPERIMENTS.md
records them side by side.  Run from the command line::

    python -m repro.bench.harness --figure 6a
    python -m repro.bench.harness --figure all --scale 500
"""

from __future__ import annotations

import argparse
import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from repro.baseline.ledger_db import BaselineLedgerDB
from repro.bench.metrics import FigureResult
from repro.core.database import SpitzDatabase
from repro.core.verifier import ClientVerifier, VerifiedWriter
from repro.forkbase.chunker import RollingChunker
from repro.forkbase.store import ForkBase
from repro.integration.nonintrusive import NonIntrusiveVDB
from repro.kvstore.kvs import ImmutableKVS
from repro.obs.metrics import MetricsRegistry, snapshot_delta
from repro.workloads.generator import Operation, WorkloadGenerator
from repro.workloads.wiki import WikiWorkload, naive_storage_bytes

DEFAULT_SCALE = 250
#: The paper uses {1,2,4,...,128} x 10^4; we keep the x2 ladder.
LADDER = (1, 2, 4, 8, 16, 32, 64, 128)
SEED = 1

#: Measured operations per point (smaller for the quadratic configs).
OPS_DEFAULT = 200
OPS_WRITE = 640
OPS_BASELINE_VERIFY = 30
OPS_SCAN = 60
OPS_BASELINE_VERIFY_SCAN = 8
#: Section 6.2.2 fixes range-query selectivity at 0.1 %.
SCAN_SELECTIVITY = 0.001

#: Best-of-N trials for *read-path* series.  The measurement windows
#: are tiny (30 verified baseline reads is ~1.5ms) while the load
#: phase dominates runtime, so a single scheduler preemption or GC
#: pause inside one window swings a single-trial ratio by 2x; taking
#: the best of a few back-to-back trials measures the code instead of
#: the machine.  Write-path series keep one trial — re-running write
#: ops would mutate the database under measurement.
READ_TRIALS = 3

#: Ledger block batch for Spitz under benchmark load — the paper's
#: deferred scheme (Section 5.3) batches transactions into blocks.
SPITZ_BLOCK_BATCH = 128


def _settle_gc() -> None:
    """Move loaded data out of GC's tracked generations.

    Long-lived caches (chunk store, decode cache) otherwise make every
    young-generation collection scan millions of tuples, distorting
    the measured op costs.  Freezing after the load phase is standard
    practice for cache-heavy CPython services.
    """
    gc.collect()
    gc.freeze()


def _throughput_over(
    ops: List[Operation],
    action: Callable[[Operation], object],
    trials: int = 1,
) -> float:
    # GC is paused over the timed window (the same policy as timeit):
    # allocation-heavy series — verified reads build proof objects —
    # otherwise pay for collections triggered by whatever ran before
    # the harness, which distorts cross-system ratios.  The window is
    # bounded (a few hundred ops), so deferred collection is cheap.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = 0.0
        for _ in range(max(trials, 1)):
            start = time.perf_counter()
            for op in ops:
                action(op)
            elapsed = time.perf_counter() - start
            rate = len(ops) / elapsed if elapsed > 0 else float("inf")
            best = max(best, rate)
        return best
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Figure 1 — storage growth with version count
# ---------------------------------------------------------------------------

def fig1_storage() -> FigureResult:
    """Naive snapshot storage vs ForkBase dedup over wiki versions."""
    result = FigureResult(
        "Figure 1", "Data storage improved by deduplication",
        "#Versions", "Storage (KB)",
    )
    naive = result.series_named("Storage")
    forkbase = result.series_named("Storage-ForkBase")
    for versions in (10, 20, 30, 40, 50, 60):
        workload = WikiWorkload(seed=7)
        initial = workload.initial_pages()
        edits = workload.edits(versions)
        naive.add(versions, naive_storage_bytes(initial, edits) / 1024)

        store = ForkBase(chunker=RollingChunker())
        for page, content in initial:
            store.put(page, content)
        store.commit("v1")
        for edit in edits:
            store.put(edit.page, edit.content)
            store.commit(f"v{edit.version}")
        forkbase.add(versions, store.stats.physical_bytes / 1024)
    return result


# ---------------------------------------------------------------------------
# Figures 6, 7 and 8 — the systems, the op lists, the per-op actions
# ---------------------------------------------------------------------------

def _load(db, gen: WorkloadGenerator):
    for key, value in gen.records():
        db.put(key, value)
    return db


def _load_spitz(
    gen: WorkloadGenerator, metrics: Optional[MetricsRegistry] = None
) -> SpitzDatabase:
    db = SpitzDatabase(block_batch=SPITZ_BLOCK_BATCH, metrics=metrics)
    _load(db, gen).flush_ledger()
    return db


LOADERS = {
    "kvs": lambda gen: _load(ImmutableKVS(), gen),
    "spitz": _load_spitz,
    "baseline": lambda gen: _load(BaselineLedgerDB(), gen),
    "nonintrusive": lambda gen: _load(NonIntrusiveVDB(), gen),
}

#: Each op list: how it is drawn, and how many timed trials a row over
#: it gets (see READ_TRIALS; writes mutate the system, so one).
OP_LISTS = {
    "reads": (lambda gen: gen.reads(OPS_DEFAULT), READ_TRIALS),
    "writes": (lambda gen: gen.writes(OPS_WRITE), 1),
    "scans": (
        lambda gen: gen.range_scans(OPS_SCAN, SCAN_SELECTIVITY), READ_TRIALS
    ),
}

# An action is a generator function over one loaded system: it does the
# row's setup, yields the per-op callable that is timed, and runs the
# row's teardown after the timed window.


def _get(db):
    yield lambda op: db.get(op.key)


def _put(db):
    yield lambda op: db.put(op.key, op.value)


def _scan(db):
    yield lambda op: db.scan(op.key, op.high)


def _trusting(db) -> ClientVerifier:
    verifier = ClientVerifier()
    verifier.trust(db.digest())
    return verifier


def _spitz_verified_read(spitz):
    verifier = _trusting(spitz)
    yield lambda op: verifier.verify_or_raise(spitz.get_verified(op.key)[1])


def _spitz_verified_write(spitz):
    """Verified writes under the deferred scheme (Section 5.3)."""
    writer = VerifiedWriter(spitz, _trusting(spitz), batch_size=128)
    yield lambda op: writer.put(op.key, op.value)
    writer.flush()


def _spitz_verified_scan(spitz):
    verifier = _trusting(spitz)
    yield lambda op: verifier.verify_or_raise(
        spitz.scan_verified(op.key, op.high)[1]
    )


def _baseline_verified_read(base):
    root = base.digest()

    def read(op):
        _value, proof = base.get_verified(op.key)
        if proof is not None and not proof.verify(root):
            raise AssertionError("baseline proof failed")

    yield read


def _baseline_verified_write(base):
    def write(op):
        base.put(op.key, op.value)
        _value, proof = base.get_verified(op.key)
        if proof is None or not proof.verify(base.digest()):
            raise AssertionError("baseline write proof failed")

    yield write


def _baseline_verified_scan(base):
    root = base.digest()

    def scan(op):
        _entries, proofs = base.scan_verified(op.key, op.high)
        if not all(proof.verify(root) for proof in proofs):
            raise AssertionError("baseline range proof failed")

    yield scan


def _nonintrusive_verified_read(noni):
    verifier = _trusting(noni)

    def read(op):
        _value, proof, digest = noni.get_verified(op.key)
        verifier.observe(digest)
        verifier.verify_or_raise(proof)

    yield read


def _nonintrusive_verified_write(noni):
    verifier = _trusting(noni)

    def write(op):
        verifier.observe(noni.put(op.key, op.value))
        _value, proof, _digest = noni.get_verified(op.key)
        verifier.verify_or_raise(proof)

    yield write


@dataclass(frozen=True)
class Row:
    """One series: ``action`` timed on ``system`` over the ``ops`` list,
    truncated to ``cap`` ops for configurations whose per-op cost grows
    with the store.  Rows run in table order, so a write row sees what
    the write rows before it did."""

    label: str
    system: str
    ops: str
    action: Callable[[object], Iterator[Callable[[Operation], object]]]
    cap: Optional[int] = None


#: Figure id -> its panels, each ``(figure, title, rows)``.
FIGURES = {
    "6a": (("Figure 6(a)", "Read-only workload, single-thread", (
        Row("Immutable KVS", "kvs", "reads", _get),
        Row("Spitz", "spitz", "reads", _get),
        Row("Spitz-verify", "spitz", "reads", _spitz_verified_read),
        Row("Baseline", "baseline", "reads", _get),
        Row("Baseline-verify", "baseline", "reads", _baseline_verified_read,
            cap=OPS_BASELINE_VERIFY),
    )),),
    "6b": (("Figure 6(b)", "Write-only workload, single-thread", (
        Row("Immutable KVS", "kvs", "writes", _put),
        Row("Spitz", "spitz", "writes", _put),
        Row("Spitz-verify", "spitz", "writes", _spitz_verified_write),
        Row("Baseline", "baseline", "writes", _put),
        Row("Baseline-verify", "baseline", "writes", _baseline_verified_write,
            cap=OPS_BASELINE_VERIFY),
    )),),
    "7": (("Figure 7", f"Range queries, selectivity {SCAN_SELECTIVITY:.1%}", (
        Row("Immutable KVS", "kvs", "scans", _scan),
        Row("Spitz", "spitz", "scans", _scan),
        Row("Spitz-verify", "spitz", "scans", _spitz_verified_scan),
        Row("Baseline", "baseline", "scans", _scan),
        Row("Baseline-verify", "baseline", "scans", _baseline_verified_scan,
            cap=OPS_BASELINE_VERIFY_SCAN),
    )),),
    # Both panels share one load per size.
    "8": (
        ("Figure 8(a)", "Non-intrusive vs Spitz: read", (
            Row("Spitz", "spitz", "reads", _get),
            Row("Spitz-verify", "spitz", "reads", _spitz_verified_read),
            Row("Non-intrusive", "nonintrusive", "reads", _get),
            Row("Non-intrusive-verify", "nonintrusive", "reads",
                _nonintrusive_verified_read),
        )),
        ("Figure 8(b)", "Non-intrusive vs Spitz: write", (
            Row("Spitz", "spitz", "writes", _put),
            Row("Spitz-verify", "spitz", "writes", _spitz_verified_write),
            Row("Non-intrusive", "nonintrusive", "writes", _put),
            Row("Non-intrusive-verify", "nonintrusive", "writes",
                _nonintrusive_verified_write),
        )),
    ),
}


def run_figure(figure: str, sizes: List[int]) -> List[FigureResult]:
    """Regenerate one paper figure — one result per panel.

    ``sizes`` are record counts; Figure 1 plots version counts and
    ignores them.  Per size, every system the rows name is loaded
    once, GC is settled, each op list is drawn once, and the rows are
    timed in table order.
    """
    if figure == "1":
        return [fig1_storage()]
    results, rows = [], []
    for name, title, panel_rows in FIGURES[figure]:
        results.append(
            FigureResult(name, title, "#Records", "Throughput (ops/s)")
        )
        rows += [(results[-1], row) for row in panel_rows]
    systems = list(dict.fromkeys(row.system for _result, row in rows))
    op_lists = list(dict.fromkeys(row.ops for _result, row in rows))
    for n in sizes:
        gen = WorkloadGenerator(n, seed=SEED)
        loaded = {name: LOADERS[name](gen) for name in systems}
        _settle_gc()
        ops = {name: list(OP_LISTS[name][0](gen)) for name in op_lists}
        for result, row in rows:
            trials = OP_LISTS[row.ops][1]
            with contextmanager(row.action)(loaded[row.system]) as action:
                throughput = _throughput_over(
                    ops[row.ops][:row.cap], action, trials
                )
            result.series_named(row.label).add(n, throughput)
    return results


# ---------------------------------------------------------------------------
# HTTP service plane — sustained RPS and overload over real sockets
# ---------------------------------------------------------------------------

#: Load-process ladder.  Each process runs its own interpreter (spawn),
#: so 4 processes is genuinely parallel offered load.
HTTP_PROCESSES = (1, 2, 4)
HTTP_OPS_PER_PROCESS = 60
HTTP_NODES = 2
#: Overload rung: one slow node behind a tiny queue, deadlines tighter
#: than a full queue's drain time.  Each sequential load process has
#: one request in flight, so with capacity 2 and a 20ms service time,
#: 4 processes push depth past capacity (429s) and queued envelopes
#: past the 30ms deadline (503 sheds), while 1 process sails through.
HTTP_OVERLOAD_CAPACITY = 2
HTTP_OVERLOAD_SERVICE_DELAY = 0.02
HTTP_OVERLOAD_TIMEOUT = 0.03


def _http_rung(processes, nodes, capacity, window, delay=0.0, **load):
    """``processes`` load processes against a fresh server.

    Returns the load report and the exactly-once imbalance over the
    rung's counter delta: every envelope the queue accepted is
    processed, shed or failed on stop, so anything but 0.0 means a
    request was lost or double-counted between socket and ledger.
    """
    from repro.core.client import _SlowHandler
    from repro.serve.loadgen import run_load
    from repro.serve.server import serve_cluster

    service = serve_cluster(
        nodes=nodes, queue_capacity=capacity, overload_window=window
    )
    if delay:
        for node in service.cluster.nodes:
            node.handler = _SlowHandler(node.handler, delay)
    try:
        before = service.cluster.stats()
        report = run_load(
            host="127.0.0.1",
            port=service.port,
            processes=processes,
            ops_per_process=HTTP_OPS_PER_PROCESS,
            **load,
        )
        delta = snapshot_delta(before, service.cluster.stats())
    finally:
        service.stop()
    counters = delta["counters"]
    accounted = ("node.processed", "queue.shed", "cluster.failed_on_stop")
    return report, float(
        counters.get("queue.submitted", 0)
        - sum(counters.get(name, 0) for name in accounted)
    )


def fig_http() -> Tuple[FigureResult, FigureResult]:
    """Returns (sustained-throughput figure, overload figure).

    Both run the full service plane — socket, JSON wire codec,
    admission, separate load-generator OS processes — so "sustained
    RPS" and "p99" mean end-to-end over HTTP.  Sustained: generous
    queue, retries on.  Overload: tiny queue, slowed handler, tight
    deadlines, no retries; offered load splits into completed (200) /
    rejected (429) / shed (503) rates.  Both carry the per-rung
    "Accounting imbalance" (always 0).
    """
    sustained = FigureResult(
        "HTTP (a)", f"HTTP service plane: sustained load, {HTTP_NODES} nodes",
        "#Processes", "Requests/s (RPS) / ms (latency)",
    )
    overload = FigureResult(
        "HTTP (b)",
        f"HTTP overload: capacity {HTTP_OVERLOAD_CAPACITY}, "
        f"{HTTP_OVERLOAD_SERVICE_DELAY * 1000:.0f}ms service, "
        f"{HTTP_OVERLOAD_TIMEOUT * 1000:.0f}ms deadline",
        "#Processes", "Requests/s",
    )
    for processes in HTTP_PROCESSES:
        report, imbalance = _http_rung(
            processes, HTTP_NODES, capacity=256, window=0.05,
            put_ratio=0.8, verify_every=10, attempts=2,
        )
        for name, value in (
            ("Sustained RPS", report.rps),
            ("p50 latency (ms)", (report.latency_p50 or 0.0) * 1000),
            ("p99 latency (ms)", (report.latency_p99 or 0.0) * 1000),
            ("Accounting imbalance", imbalance),
        ):
            sustained.series_named(name).add(processes, value)
    for processes in HTTP_PROCESSES:
        report, imbalance = _http_rung(
            processes, 1, HTTP_OVERLOAD_CAPACITY, window=0.0,
            delay=HTTP_OVERLOAD_SERVICE_DELAY,
            put_ratio=1.0, attempts=1, timeout=HTTP_OVERLOAD_TIMEOUT,
        )
        elapsed = max(report.elapsed_seconds, 1e-9)
        for name, value in (
            ("Completed (200)", report.completed / elapsed),
            ("Rejected (429)", report.rejected_overload / elapsed),
            ("Shed (503)", report.shed / elapsed),
            ("Accounting imbalance", imbalance),
        ):
            overload.series_named(name).add(processes, value)
    return sustained, overload


PAPER_FIGURES = ("1", *FIGURES)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--figure", default="all", choices=[*PAPER_FIGURES, "http", "all"]
    )
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    parser.add_argument(
        "--ladder", default=",".join(str(step) for step in LADDER),
        help="comma-separated multipliers of --scale",
    )
    args = parser.parse_args(argv)
    sizes = [args.scale * int(step) for step in args.ladder.split(",")]
    figures = (
        [*PAPER_FIGURES, "http"] if args.figure == "all" else [args.figure]
    )
    for figure in figures:
        results = fig_http() if figure == "http" else run_figure(figure, sizes)
        for result in results:
            print(result.format_table())
            print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
