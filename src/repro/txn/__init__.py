"""Concurrency control (paper Section 5.2).

Spitz's cells are multi-versioned, so every certifier here works on top
of the same MVCC version store:

- :mod:`~repro.txn.oracle` — a centralized timestamp oracle
  (Percolator-style), the paper's first ordering option;
- :mod:`~repro.txn.hlc` — hybrid logical clocks, the decentralized
  alternative the paper cites for removing the oracle bottleneck;
- :mod:`~repro.txn.mvcc` — the multi-version value store;
- :mod:`~repro.txn.occ`, :mod:`~repro.txn.two_pl`,
  :mod:`~repro.txn.timestamp_ordering` — MVCC+OCC, MVCC+2PL and
  MVCC+T/O certification;
- :mod:`~repro.txn.manager` — the transaction manager gluing the
  above;
- :mod:`~repro.txn.two_pc` — two-phase commit across processor nodes.
"""

from repro.txn.hlc import HLCTimestamp, HlcOracle, HybridLogicalClock
from repro.txn.manager import (
    IsolationLevel,
    Transaction,
    TransactionManager,
)
from repro.txn.mvcc import MVCCStore, Version
from repro.txn.occ import OccCertifier
from repro.txn.oracle import TimestampOracle
from repro.txn.timestamp_ordering import TimestampOrderingCertifier
from repro.txn.two_pc import (
    Participant,
    TwoPhaseCoordinator,
    Vote,
)
from repro.txn.two_pl import LockManager, TwoPhaseLockingCertifier

__all__ = [
    "HLCTimestamp",
    "HlcOracle",
    "HybridLogicalClock",
    "IsolationLevel",
    "LockManager",
    "MVCCStore",
    "OccCertifier",
    "Participant",
    "TimestampOracle",
    "TimestampOrderingCertifier",
    "Transaction",
    "TransactionManager",
    "TwoPhaseCoordinator",
    "TwoPhaseLockingCertifier",
    "Version",
    "Vote",
]
