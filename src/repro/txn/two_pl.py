"""MVCC + strict two-phase locking.

Section 5.2 lists "MVCC with 2PL" (Bernstein et al.) among the
suitable certifiers.  Locks are acquired as operations execute
(growing phase) and released only at commit/abort (strict 2PL), which
makes every certified history serializable and recoverable.

Deadlocks are prevented with the *wait-die* priority scheme: an older
transaction (smaller txn id) may wait for a younger lock holder, but a
younger requester dies immediately.  Wait-die needs no cycle
detection and guarantees progress, at the cost of some spurious
aborts — exactly the trade-off the paper's future-work section points
at for write-intensive loads.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Set

from repro.errors import DeadlockError, TransactionAborted
from repro.txn.manager import Certifier, Transaction


class _Lock:
    __slots__ = ("holders", "exclusive")

    def __init__(self) -> None:
        self.holders: Set[int] = set()
        self.exclusive = False


class LockManager:
    """Shared/exclusive locks with wait-die deadlock prevention."""

    def __init__(self, wait_timeout: float = 5.0):
        self._mutex = threading.Condition()
        self._locks: Dict[Any, _Lock] = {}
        self._held: Dict[int, Set[Any]] = {}
        self._wait_timeout = wait_timeout
        self.lock_waits = 0
        self.wait_die_aborts = 0

    def acquire_shared(self, txn_id: int, key: Any) -> None:
        with self._mutex:
            while True:
                lock = self._locks.setdefault(key, _Lock())
                if not lock.exclusive or lock.holders == {txn_id}:
                    lock.holders.add(txn_id)
                    self._held.setdefault(txn_id, set()).add(key)
                    return
                self._wait_or_die(txn_id, lock)

    def acquire_exclusive(self, txn_id: int, key: Any) -> None:
        with self._mutex:
            while True:
                lock = self._locks.setdefault(key, _Lock())
                if not lock.holders or lock.holders == {txn_id}:
                    lock.holders.add(txn_id)
                    lock.exclusive = True
                    self._held.setdefault(txn_id, set()).add(key)
                    return
                self._wait_or_die(txn_id, lock)

    def _wait_or_die(self, txn_id: int, lock: _Lock) -> None:
        # Wait-die: only strictly older transactions are allowed to wait.
        if any(holder < txn_id for holder in lock.holders):
            self.wait_die_aborts += 1
            raise DeadlockError(txn_id)
        self.lock_waits += 1
        if not self._mutex.wait(timeout=self._wait_timeout):
            # Defensive: a vanished holder (crashed thread) would
            # otherwise hang the system.
            raise TransactionAborted(txn_id, "lock wait timeout")

    def release_all(self, txn_id: int) -> None:
        with self._mutex:
            for key in self._held.pop(txn_id, set()):
                lock = self._locks.get(key)
                if lock is None:
                    continue
                lock.holders.discard(txn_id)
                if not lock.holders:
                    del self._locks[key]
                # An exclusive lock has a single holder, so if holders
                # remain the lock was shared and ``exclusive`` is
                # already False.
            self._mutex.notify_all()

    def held_keys(self, txn_id: int) -> Set[Any]:
        with self._mutex:
            return set(self._held.get(txn_id, set()))


class TwoPhaseLockingCertifier(Certifier):
    """Strict 2PL: lock on access, release on finish, no commit check."""

    def __init__(self, lock_manager: LockManager = None):
        self.locks = lock_manager if lock_manager is not None else (
            LockManager()
        )

    def on_read(self, txn: Transaction, key: Any) -> None:
        self.locks.acquire_shared(txn.txn_id, key)

    def on_write(self, txn: Transaction, key: Any) -> None:
        self.locks.acquire_exclusive(txn.txn_id, key)

    def certify(self, txn: Transaction, commit_ts: int) -> None:
        # Locks already guarantee isolation; nothing to validate.
        return None

    def on_finish(self, txn: Transaction) -> None:
        self.locks.release_all(txn.txn_id)
