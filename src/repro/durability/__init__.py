"""Durability subsystem: write-ahead log, checkpoints, crash recovery.

The paper's Spitz prototype is in-memory; this package is the
reproduction's one on-disk layout, the log-plus-checkpoint design
ForkBase implies for a *durable* tamper-evident store:

- :mod:`repro.durability.wal` — segmented, append-only write-ahead log
  with CRC-framed records and optional group commit;
- :mod:`repro.durability.checkpoint` — periodic integrity-checked
  snapshots (``save_database`` / ``load_database``) that let sealed
  WAL segments be truncated;
- :mod:`repro.durability.recovery` — open-time recovery: latest valid
  checkpoint + WAL replay (torn tails tolerated) + full chain audit,
  so a recovered database is *verified*, not just restored;
- :mod:`repro.durability.crashsim` — fault-injection shims used by the
  crash-recovery test suite.
"""

from repro.durability.checkpoint import (
    latest_checkpoint,
    list_checkpoints,
    write_checkpoint,
)
from repro.durability.recovery import (
    DurableDatabase,
    RecoveryReport,
    recover,
)
from repro.durability.wal import WalIO, WalRecord, WriteAheadLog

__all__ = [
    "DurableDatabase",
    "RecoveryReport",
    "WalIO",
    "WalRecord",
    "WriteAheadLog",
    "latest_checkpoint",
    "list_checkpoints",
    "recover",
    "write_checkpoint",
]
