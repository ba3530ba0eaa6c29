"""Unit tests for the transaction manager and certifiers."""

import threading

import pytest

from repro.errors import (
    DeadlockError,
    TransactionAborted,
    TransactionStateError,
)
from repro.txn.manager import (
    IsolationLevel,
    TransactionManager,
    TxnState,
)
from repro.txn.mvcc import MVCCStore
from repro.txn.occ import OccCertifier
from repro.txn.oracle import TimestampOracle
from repro.txn.timestamp_ordering import TimestampOrderingCertifier
from repro.txn.two_pl import LockManager, TwoPhaseLockingCertifier


def _manager(certifier=None):
    store = MVCCStore()
    oracle = TimestampOracle()
    if certifier is None:
        certifier = OccCertifier(store)
    return TransactionManager(store, oracle, certifier)


class TestTransactionLifecycle:
    def test_commit_installs_writes(self):
        tm = _manager()
        txn = tm.begin()
        txn.write("k", "v")
        txn.commit()
        assert tm.begin().read("k") == "v"

    def test_read_your_writes(self):
        tm = _manager()
        txn = tm.begin()
        txn.write("k", "mine")
        assert txn.read("k") == "mine"

    def test_abort_discards(self):
        tm = _manager()
        txn = tm.begin()
        txn.write("k", "v")
        txn.abort()
        assert tm.begin().read("k") is None

    def test_operations_after_commit_raise(self):
        tm = _manager()
        txn = tm.begin()
        txn.commit()
        with pytest.raises(TransactionStateError):
            txn.read("k")
        with pytest.raises(TransactionStateError):
            txn.write("k", 1)

    def test_delete_is_tombstone(self):
        tm = _manager()
        tm.run(lambda t: t.write("k", "v"))
        tm.run(lambda t: t.delete("k"))
        assert tm.begin().read("k") is None
        assert len(tm.store.history("k")) == 2

    def test_context_manager_commits(self):
        tm = _manager()
        with tm.begin() as txn:
            txn.write("k", "v")
        assert txn.state is TxnState.COMMITTED

    def test_context_manager_aborts_on_exception(self):
        tm = _manager()
        with pytest.raises(RuntimeError):
            with tm.begin() as txn:
                txn.write("k", "v")
                raise RuntimeError("boom")
        assert txn.state is TxnState.ABORTED
        assert tm.begin().read("k") is None

    def test_run_retries_until_success(self):
        tm = _manager()
        tm.run(lambda t: t.write("counter", 0))
        attempts = []

        def flaky(txn):
            attempts.append(1)
            value = txn.read("counter")
            if len(attempts) < 3:
                # Simulate a conflicting commit between read and commit.
                conflicting = tm.begin()
                conflicting.write("counter", value + 100)
                conflicting.commit()
            txn.write("counter", value + 1)

        tm.run(flaky, retries=10)
        assert len(attempts) == 3

    def test_run_raises_after_exhausted_retries(self):
        tm = _manager()
        tm.run(lambda t: t.write("k", 0))

        def always_conflicts(txn):
            value = txn.read("k")
            other = tm.begin()
            other.write("k", value)
            other.commit()
            txn.write("k", value)

        with pytest.raises(TransactionAborted):
            tm.run(always_conflicts, retries=3)


class TestIsolationLevels:
    def test_snapshot_does_not_see_later_commits(self):
        tm = _manager()
        tm.run(lambda t: t.write("k", "old"))
        reader = tm.begin(IsolationLevel.SNAPSHOT)
        tm.run(lambda t: t.write("k", "new"))
        assert reader.read("k") == "old"

    def test_read_committed_sees_latest(self):
        tm = _manager()
        tm.run(lambda t: t.write("k", "old"))
        reader = tm.begin(IsolationLevel.READ_COMMITTED)
        assert reader.read("k") == "old"
        tm.run(lambda t: t.write("k", "new"))
        assert reader.read("k") == "new"

    def test_serializable_rejects_stale_read_commit(self):
        tm = _manager()
        tm.run(lambda t: t.write("k", 1))
        txn = tm.begin(IsolationLevel.SERIALIZABLE)
        assert txn.read("k") == 1
        tm.run(lambda t: t.write("k", 2))
        txn.write("other", "x")
        with pytest.raises(TransactionAborted):
            txn.commit()


class TestOcc:
    def test_write_write_conflict(self):
        tm = _manager()
        a = tm.begin()
        b = tm.begin()
        a.write("k", "a")
        b.write("k", "b")
        a.commit()
        with pytest.raises(TransactionAborted):
            b.commit()

    def test_disjoint_writes_both_commit(self):
        tm = _manager()
        a = tm.begin()
        b = tm.begin()
        a.write("x", 1)
        b.write("y", 2)
        a.commit()
        b.commit()
        assert tm.committed == 2

    def test_lost_update_prevented_concurrently(self):
        tm = _manager()
        tm.run(lambda t: t.write("counter", 0))

        def increment():
            def work(txn):
                txn.write("counter", txn.read("counter") + 1)
            tm.run(work, retries=200)

        threads = [threading.Thread(target=increment) for _ in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tm.begin().read("counter") == 10

    def test_abort_rate_tracked(self):
        tm = _manager()
        a = tm.begin()
        a.write("k", 1)
        a.commit()
        b = tm.begin()
        b.read("k")
        tm.run(lambda t: t.write("k", 2))
        b.write("k", 3)
        with pytest.raises(TransactionAborted):
            b.commit()
        assert 0 < tm.abort_rate < 1


class TestTwoPhaseLocking:
    def test_serializes_increments(self):
        lm = LockManager()
        store = MVCCStore()
        tm = TransactionManager(
            store, TimestampOracle(), TwoPhaseLockingCertifier(lm)
        )
        tm.run(lambda t: t.write("n", 0))

        def increment():
            def work(txn):
                txn.write("n", txn.read("n") + 1)
            tm.run(work, retries=500)

        threads = [threading.Thread(target=increment) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tm.begin().read("n") == 8

    def test_wait_die_aborts_younger(self):
        lm = LockManager()
        store = MVCCStore()
        tm = TransactionManager(
            store, TimestampOracle(), TwoPhaseLockingCertifier(lm)
        )
        older = tm.begin()
        younger = tm.begin()
        older.write("k", "old")  # older holds the exclusive lock
        with pytest.raises(DeadlockError):
            younger.write("k", "young")
        older.commit()

    def test_locks_released_after_commit(self):
        lm = LockManager()
        store = MVCCStore()
        tm = TransactionManager(
            store, TimestampOracle(), TwoPhaseLockingCertifier(lm)
        )
        txn = tm.begin()
        txn.write("k", 1)
        txn.commit()
        assert lm.held_keys(txn.txn_id) == set()
        # A later transaction can lock the same key immediately.
        follow = tm.begin()
        follow.write("k", 2)
        follow.commit()

    def test_a_read_after_a_later_commit_sees_it(self):
        """An older transaction that locks a key only after a younger
        one committed it must read that commit, not its start snapshot:
        no commit check follows, so a stale read is a lost update."""
        tm = TransactionManager(
            MVCCStore(), TimestampOracle(),
            TwoPhaseLockingCertifier(LockManager()),
        )
        tm.run(lambda t: t.write("k", 0))
        older = tm.begin()
        younger = tm.begin()
        younger.write("k", younger.read("k") + 5)
        younger.commit()
        older.write("k", older.read("k") + 1)
        older.commit()
        assert tm.begin().read("k") == 6

    def test_run_releases_the_locks_of_an_aborted_attempt(self):
        lm = LockManager()
        tm = TransactionManager(
            MVCCStore(), TimestampOracle(), TwoPhaseLockingCertifier(lm)
        )
        attempts = []

        def aborts_once(txn):
            attempts.append(txn)
            txn.write("k", len(attempts))
            if len(attempts) == 1:
                raise TransactionAborted(txn.txn_id, "simulated conflict")

        tm.run(aborts_once)
        first, retry = attempts
        assert first.state is TxnState.ABORTED
        assert lm.held_keys(first.txn_id) == set()
        # The retry keeps the first attempt's wait-die priority.
        assert retry.txn_id == first.txn_id
        # A leaked holder would be older than any later transaction,
        # so wait-die would kill it on the spot.
        later = tm.begin()
        later.write("k", 3)
        later.commit()
        assert tm.begin().read("k") == 3


class TestTimestampOrdering:
    def test_late_write_after_younger_read_aborts(self):
        tm = _manager(TimestampOrderingCertifier())
        old = tm.begin()
        young = tm.begin()
        young.read("k")
        with pytest.raises(TransactionAborted):
            old.write("k", "late")

    def test_late_read_after_younger_write_aborts(self):
        certifier = TimestampOrderingCertifier()
        tm = _manager(certifier)
        old = tm.begin()
        young = tm.begin()
        young.write("k", "v")
        young.commit()
        with pytest.raises(TransactionAborted):
            old.read("k")
        assert certifier.early_aborts == 1

    def test_in_order_operations_succeed(self):
        tm = _manager(TimestampOrderingCertifier())
        first = tm.begin()
        first.write("k", 1)
        first.commit()
        second = tm.begin()
        assert second.read("k") == 1
        second.write("k", 2)
        second.commit()
        assert tm.begin().read("k") == 2
