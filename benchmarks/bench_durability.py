"""Durability cost benchmarks: WAL vs snapshot-per-op; recovery time.

The claims measured here (the durability PR's acceptance bar):

1. **WAL commit cost is O(delta), snapshot commit is O(database)** —
   at 10k resident keys a durable ``put`` through the WAL is ≥ 10×
   faster than rewriting the whole snapshot (the checkpoint format)
   per mutation.
2. **Group commit wins** — batching ≥ 8 records per fsync yields
   higher commit throughput than an fsync per record.
3. **Checkpoints bound recovery** — recovery replays only the
   post-checkpoint suffix, so recovery time tracks log length, not
   database lifetime.

Run standalone for a table (``PYTHONPATH=src python -m
benchmarks.bench_durability``) or via pytest (``pytest
benchmarks/bench_durability.py``).  ``SPITZ_DURABILITY_N`` scales the
resident-set size (default 10_000).
"""

import os
import tempfile
import time
from pathlib import Path

import pytest

from repro.core.database import SpitzDatabase
from repro.durability import DurableDatabase, recover
from repro.durability.checkpoint import save_database
from repro.durability.wal import WriteAheadLog

N_KEYS = int(os.environ.get("SPITZ_DURABILITY_N", "10000"))


def _records(count):
    return {
        f"key{i:06d}".encode(): f"value{i}".encode() for i in range(count)
    }


def _time_per_op(fn, ops):
    start = time.perf_counter()
    for i in range(ops):
        fn(i)
    return (time.perf_counter() - start) / ops


@pytest.fixture(scope="module")
def loaded_root(tmp_path_factory):
    """A durable database with N_KEYS resident keys (one batch block)."""
    root = tmp_path_factory.mktemp("durable")
    ddb = DurableDatabase.open(root)
    ddb.put_batch(_records(N_KEYS))
    yield root, ddb
    ddb.close()


def measure_wal_put(ddb, ops=50):
    return _time_per_op(
        lambda i: ddb.put(b"wal-bench-%d" % i, b"x"), ops
    )


def measure_snapshot_put(db, snapshot_path, ops=3):
    def one(i):
        db.put(b"snap-bench-%d" % i, b"x")
        save_database(db, snapshot_path)

    return _time_per_op(one, ops)


def test_wal_commit_is_o_delta(loaded_root, tmp_path):
    """Per-put durable commit ≥ 10× faster than snapshot-per-op."""
    root, ddb = loaded_root
    wal_per_op = measure_wal_put(ddb)
    # The legacy path: same data, whole-snapshot rewrite per mutation.
    legacy = SpitzDatabase()
    legacy.put_batch(_records(N_KEYS))
    snapshot_per_op = measure_snapshot_put(legacy, tmp_path / "db.spitz")
    ratio = snapshot_per_op / wal_per_op
    assert ratio >= 10, (
        f"WAL put {wal_per_op * 1e3:.2f} ms vs snapshot put "
        f"{snapshot_per_op * 1e3:.2f} ms — only {ratio:.1f}x"
    )


def test_group_commit_beats_per_record_fsync(tmp_path):
    """Batched fsync (group commit, batch 8) > fsync per record."""
    payload = ([(b"key", b"value" * 8)], (), 1)
    counts = {}
    for label, sync_every in (("per-record", 1), ("group-8", 8)):
        wal = WriteAheadLog(tmp_path / label, sync_every=sync_every)
        per_op = _time_per_op(
            lambda i: wal.append("commit", payload), 400
        )
        wal.close()
        counts[label] = per_op
    assert counts["group-8"] < counts["per-record"], (
        f"group commit {counts['group-8'] * 1e6:.1f} us/op not faster "
        f"than per-record fsync {counts['per-record'] * 1e6:.1f} us/op"
    )


def test_checkpoint_bounds_recovery(tmp_path):
    """Recovery replays the post-checkpoint suffix only."""
    root = tmp_path / "db"
    suffix_ops = 20
    with DurableDatabase.open(root) as ddb:
        for i in range(300):
            ddb.put(b"k%d" % i, b"v")
        full_replay_start = time.perf_counter()
    full = recover(root)
    full_time = time.perf_counter() - full_replay_start
    assert full.replayed == 300

    with DurableDatabase.open(root) as ddb:
        ddb.checkpoint()
        for i in range(suffix_ops):
            ddb.put(b"s%d" % i, b"v")
    bounded_start = time.perf_counter()
    bounded = recover(root)
    bounded_time = time.perf_counter() - bounded_start
    assert bounded.replayed == suffix_ops
    # Time tracks log length; report it for the standalone table.
    test_checkpoint_bounds_recovery.times = (full_time, bounded_time)


def main():
    print(f"resident keys: {N_KEYS}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ddb = DurableDatabase.open(tmp / "durable")
        ddb.put_batch(_records(N_KEYS))
        wal_per_op = measure_wal_put(ddb)
        ddb.close()

        legacy = SpitzDatabase()
        legacy.put_batch(_records(N_KEYS))
        snapshot_per_op = measure_snapshot_put(legacy, tmp / "db.spitz")

        print(f"{'durable put (WAL, fsync/commit)':<36}"
              f"{wal_per_op * 1e3:>10.3f} ms/op")
        print(f"{'legacy put (snapshot rewrite)':<36}"
              f"{snapshot_per_op * 1e3:>10.3f} ms/op")
        print(f"{'speedup':<36}{snapshot_per_op / wal_per_op:>10.1f} x")

        payload = ([(b"key", b"value" * 8)], (), 1)
        for sync_every in (1, 2, 4, 8, 16, 64):
            wal = WriteAheadLog(
                tmp / f"wal-{sync_every}", sync_every=sync_every
            )
            per_op = _time_per_op(
                lambda i: wal.append("commit", payload), 1000
            )
            wal.close()
            print(f"{'group commit batch %3d' % sync_every:<36}"
                  f"{1 / per_op:>10.0f} commits/s")

        for log_length in (100, 400, 1600):
            root = tmp / f"recovery-{log_length}"
            with DurableDatabase.open(root) as db:
                for i in range(log_length):
                    db.put(b"k%d" % i, b"v")
            start = time.perf_counter()
            report = recover(root)
            elapsed = time.perf_counter() - start
            print(f"{'recovery, %5d-record log' % log_length:<36}"
                  f"{elapsed * 1e3:>10.1f} ms "
                  f"({report.replayed} replayed)")


if __name__ == "__main__":
    main()
