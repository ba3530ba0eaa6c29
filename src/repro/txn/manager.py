"""Transaction manager.

Each Spitz processor node carries one transaction manager (Section 5:
"The transaction manager controls the execution of the queries in the
storage").  The manager glues a timestamp source, the MVCC store, and
a pluggable *certifier* (OCC, 2PL or T/O — Section 5.2) behind a
classic begin / read / write / commit interface with selectable
isolation levels (Section 3.3 motivates per-query levels).
"""

from __future__ import annotations

import enum
import threading
from abc import ABC, abstractmethod
from typing import Any, Dict, Optional

from repro.errors import TransactionAborted, TransactionStateError
from repro.txn.mvcc import MVCCStore, Version
from repro.txn.oracle import TimestampOracle


class IsolationLevel(enum.Enum):
    """Isolation levels the manager supports.

    Section 3.3's e-commerce example: purchases need SERIALIZABLE,
    stock-level dashboards are fine with READ_COMMITTED, and snapshot
    reads serve consistent analytics without blocking writers.
    """

    READ_COMMITTED = "read_committed"
    SNAPSHOT = "snapshot"
    SERIALIZABLE = "serializable"


class TxnState(enum.Enum):
    ACTIVE = "active"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Certifier(ABC):
    """Pluggable concurrency-control strategy."""

    @abstractmethod
    def on_read(self, txn: "Transaction", key: Any) -> None:
        """Hook before a read; may raise :class:`TransactionAborted`."""

    @abstractmethod
    def on_write(self, txn: "Transaction", key: Any) -> None:
        """Hook before buffering a write; may raise."""

    @abstractmethod
    def certify(self, txn: "Transaction", commit_ts: int) -> None:
        """Validate at commit; raise :class:`TransactionAborted` to veto."""

    def on_finish(self, txn: "Transaction") -> None:
        """Hook after commit or abort (release locks, ...)."""


class Transaction:
    """One transaction: buffered writes, tracked reads, 2-phase commit.

    Obtain instances from :meth:`TransactionManager.begin`; do not
    construct directly.
    """

    def __init__(
        self,
        manager: "TransactionManager",
        txn_id: int,
        start_ts: int,
        isolation: IsolationLevel,
    ):
        self._manager = manager
        self.txn_id = txn_id
        self.start_ts = start_ts
        self.isolation = isolation
        self.state = TxnState.ACTIVE
        # key -> commit_ts of the version observed (0 = none existed)
        self.read_set: Dict[Any, int] = {}
        self.write_buffer: Dict[Any, Any] = {}
        self.commit_ts: Optional[int] = None

    def _require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionStateError(
                f"transaction {self.txn_id} is {self.state.value}"
            )

    # -- operations --------------------------------------------------------

    def read(self, key: Any) -> Optional[Any]:
        """Read ``key`` under this transaction's isolation level.

        Returns None for absent or deleted keys.  Own writes are
        visible (read-your-writes).
        """
        self._require_active()
        if key in self.write_buffer:
            value = self.write_buffer[key]
            return None if value == Version.TOMBSTONE else value
        self._manager.certifier.on_read(self, key)
        if self.isolation is IsolationLevel.READ_COMMITTED:
            version = self._manager.store.read_latest(key)
        else:
            version = self._manager.store.read(key, self.start_ts)
        self.read_set[key] = version.commit_ts if version else 0
        if version is None or version.is_tombstone:
            return None
        return version.value

    def write(self, key: Any, value: Any) -> None:
        """Buffer a write; visible to others only after commit."""
        self._require_active()
        self._manager.certifier.on_write(self, key)
        self.write_buffer[key] = value

    def delete(self, key: Any) -> None:
        """Buffer a logical delete (tombstone)."""
        self.write(key, Version.TOMBSTONE)

    # -- completion --------------------------------------------------------

    def commit(self) -> int:
        """Certify and install the write set; return the commit timestamp.

        Raises :class:`TransactionAborted` when certification fails;
        the transaction is then aborted and must be retried by the
        caller.
        """
        self._require_active()
        manager = self._manager
        with manager.commit_lock:
            commit_ts = manager.oracle.next_timestamp()
            try:
                manager.certifier.certify(self, commit_ts)
            except TransactionAborted:
                self.state = TxnState.ABORTED
                manager.aborted += 1
                manager.certifier.on_finish(self)
                raise
            if self.write_buffer:
                manager.store.install(
                    self.write_buffer, commit_ts, self.txn_id
                )
            self.commit_ts = commit_ts
            self.state = TxnState.COMMITTED
            manager.committed += 1
            manager.certifier.on_finish(self)
            manager.notify_commit(self)
            return commit_ts

    def abort(self) -> None:
        """Discard buffered writes and release resources."""
        if self.state is not TxnState.ACTIVE:
            return
        self.state = TxnState.ABORTED
        self._manager.aborted += 1
        self._manager.certifier.on_finish(self)

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        if exc_type is None and self.state is TxnState.ACTIVE:
            self.commit()
        elif self.state is TxnState.ACTIVE:
            self.abort()
        return False


class TransactionManager:
    """Factory and coordination point for transactions on one node."""

    def __init__(
        self,
        store: Optional[MVCCStore] = None,
        oracle: Optional[TimestampOracle] = None,
        certifier: Optional[Certifier] = None,
        default_isolation: IsolationLevel = IsolationLevel.SERIALIZABLE,
    ):
        from repro.txn.occ import OccCertifier  # default; avoids cycle

        self.store = store if store is not None else MVCCStore()
        self.oracle = oracle if oracle is not None else TimestampOracle()
        self.certifier = certifier if certifier is not None else OccCertifier(
            self.store
        )
        self.default_isolation = default_isolation
        self.commit_lock = threading.RLock()
        self.committed = 0
        self.aborted = 0
        self._commit_listeners = []

    def begin(
        self, isolation: Optional[IsolationLevel] = None
    ) -> Transaction:
        """Start a transaction at a fresh snapshot timestamp."""
        start_ts = self.oracle.next_timestamp()
        return Transaction(
            manager=self,
            txn_id=start_ts,
            start_ts=start_ts,
            isolation=isolation or self.default_isolation,
        )

    def run(self, work, retries: int = 10, isolation=None):
        """Execute ``work(txn)`` with automatic retry on aborts.

        ``work`` receives an open transaction and returns the result to
        surface; the transaction commits when ``work`` returns.  After
        ``retries`` consecutive aborts the last
        :class:`TransactionAborted` propagates.
        """
        last_error: Optional[TransactionAborted] = None
        for _attempt in range(retries):
            txn = self.begin(isolation)
            try:
                result = work(txn)
                txn.commit()
                return result
            except TransactionAborted as error:
                last_error = error
                continue
        assert last_error is not None
        raise last_error

    def add_commit_listener(self, listener) -> None:
        """Register ``listener(txn)`` to run after every commit.

        Spitz's auditor uses this to feed committed write sets into the
        ledger.
        """
        self._commit_listeners.append(listener)

    def notify_commit(self, txn: Transaction) -> None:
        for listener in self._commit_listeners:
            listener(txn)

    @property
    def abort_rate(self) -> float:
        total = self.committed + self.aborted
        return self.aborted / total if total else 0.0
