"""Open-time crash recovery: checkpoint + WAL replay + chain audit.

Recovery is the inverse of the logging path.  The WAL records every
operation that changes what the next block seals (kind ``commit``: the
write set, the statements, the commit timestamp; ``create_table``: the
schema; ``enable_search``: the indexed columns), so replay re-runs the
exact pipeline the original operations took — ledger blocks, the
postings they commit and MVCC installs land in the same order with the
same timestamps, and the recovered chain digest equals the pre-crash
one for every durable prefix.

A recovered database is *verified*, not just restored: after replay
the full ledger chain audit runs, and a failure raises
:class:`~repro.errors.TamperDetectedError` — recovery never hands back
silently corrupted state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.core.database import SpitzDatabase
from repro.core.schema import TableSchema
from repro.errors import (
    FormatVersionError,
    StorageError,
    TamperDetectedError,
)
from repro.durability.checkpoint import (
    list_checkpoints,
    load_database,
    write_checkpoint,
)
from repro.durability.wal import (
    WalIO,
    WalRecord,
    WalScan,
    WriteAheadLog,
    scan_wal,
)

#: WAL record kinds understood by replay — the kinds
#: :meth:`SpitzDatabase.add_commit_hook` hands over, with their data.
KIND_COMMIT = "commit"
KIND_CREATE_TABLE = "create_table"
KIND_ENABLE_SEARCH = "enable_search"


@dataclass
class RecoveryReport:
    """What :func:`recover` did, for operators and tests."""

    db: SpitzDatabase
    checkpoint_lsn: int
    checkpoint_path: Optional[Path]
    replayed: int
    torn_tail_dropped: bool
    last_lsn: int
    #: Newer checkpoints that failed their integrity check and were
    #: skipped in favor of an older one (newest first).
    skipped_checkpoints: List[Path] = field(default_factory=list)

    def describe(self) -> str:
        base = (
            f"checkpoint lsn {self.checkpoint_lsn}"
            if self.checkpoint_path is not None
            else "no checkpoint (empty base)"
        )
        torn = "; torn tail dropped" if self.torn_tail_dropped else ""
        skipped = (
            f"; fell back past {len(self.skipped_checkpoints)} "
            "corrupt checkpoint(s)"
            if self.skipped_checkpoints
            else ""
        )
        return (
            f"{base}{skipped}; replayed {self.replayed} record(s) "
            f"through lsn {self.last_lsn}{torn}; chain audit clean"
        )


def replay_record(db: SpitzDatabase, record: WalRecord) -> int:
    """Apply one WAL record through the normal commit pipeline.

    The one reader of what a commit hook handed the log.  Returns the
    timestamp a ``commit`` record was sealed at (0 for other kinds).
    """
    if record.kind == KIND_COMMIT:
        writes, statements, timestamp = record.data
        db._commit(
            dict(writes), statements=tuple(statements),
            timestamp=timestamp, replayed=True,
        )
        return timestamp
    if record.kind == KIND_CREATE_TABLE:
        name, columns, primary_key = record.data
        db.create_table(TableSchema.make(name, list(columns), primary_key))
    elif record.kind == KIND_ENABLE_SEARCH:
        db.enable_search(record.data)
    else:
        raise TamperDetectedError(
            f"WAL record {record.lsn} has unknown kind {record.kind!r}"
        )
    return 0


def recover(
    root: Union[str, Path], **db_kwargs
) -> RecoveryReport:
    """Load the latest valid checkpoint, replay the WAL, audit.

    Tolerates a torn/partial tail record (dropped — those writes were
    never acknowledged durable).  A checkpoint that fails its
    integrity check is skipped in favor of the next older retained one
    (the WAL keeps every record those fallbacks need — the skip is
    recorded on the report, not silent); when *no* checkpoint loads,
    or the WAL does not line up with the checkpoint it must continue
    from (deleted leading segments, a wiped log), recovery raises
    :class:`TamperDetectedError`.  ``db_kwargs`` go to the
    :class:`SpitzDatabase` constructor, checkpoint or not; a
    checkpoint's own configuration wins over theirs.
    """
    return _recover(root, db_kwargs)[0]


def _recover(
    root: Union[str, Path], db_kwargs
) -> Tuple[RecoveryReport, WalScan]:
    """:func:`recover`, plus the scan it read the log with (what the
    appender of :meth:`DurableDatabase.open` positions itself from)."""
    root = Path(root)
    if not root.is_dir():
        raise StorageError(f"no durable database directory at {root}")
    db: Optional[SpitzDatabase] = None
    checkpoint_lsn, checkpoint_file = 0, None
    skipped: List[Path] = []
    failures: List[str] = []
    for candidate_lsn, candidate in reversed(list_checkpoints(root)):
        try:
            db = load_database(candidate, **db_kwargs)
        except FormatVersionError:
            raise  # not damage: no older checkpoint is any newer
        except (StorageError, TamperDetectedError) as error:
            skipped.append(candidate)
            failures.append(f"{candidate.name}: {error}")
            continue
        checkpoint_lsn, checkpoint_file = candidate_lsn, candidate
        break
    if db is None:
        if skipped:
            raise TamperDetectedError(
                "no checkpoint passes its integrity check: "
                + "; ".join(failures)
            )
        db = SpitzDatabase(**db_kwargs)
    # Anchor the WAL to the checkpoint: it must begin at or below
    # checkpoint_lsn + 1 and reach checkpoint_lsn, else committed
    # history has been deleted out from under us.
    scan = scan_wal(root, expected_first_lsn=checkpoint_lsn + 1)
    replayed = 0
    max_timestamp = 0
    for record in scan.records:
        if record.lsn <= checkpoint_lsn:
            continue
        max_timestamp = max(max_timestamp, replay_record(db, record))
        replayed += 1
    if max_timestamp:
        db.oracle.advance_to(max_timestamp)
    # The chain audit only: load checked the live versions against the
    # tip and the log's checksums cover the suffix; re-hashing every
    # chunk (``spitz audit``) costs time in the size of the store.
    if not db.verify_chain():
        raise TamperDetectedError("recovered database fails its chain audit")
    report = RecoveryReport(
        db=db,
        checkpoint_lsn=checkpoint_lsn,
        checkpoint_path=checkpoint_file,
        replayed=replayed,
        torn_tail_dropped=scan.torn_tail,
        last_lsn=scan.last_lsn,
        skipped_checkpoints=skipped,
    )
    return report, scan


class DurableDatabase:
    """A :class:`SpitzDatabase` whose commits are write-ahead logged.

    Open with :meth:`open` (which always runs recovery); use exactly
    like a :class:`SpitzDatabase` — every method not defined here
    delegates to the wrapped instance — plus :meth:`checkpoint`,
    :meth:`sync` and :meth:`close`.  Commit durability follows the
    WAL's group-commit policy (``sync_every``).  Each record a commit
    hook hands over is appended to the log as it is.

    Single-writer: one process appends to a given directory at a time.
    """

    def __init__(
        self,
        root: Union[str, Path],
        db: SpitzDatabase,
        wal: WriteAheadLog,
        recovery: Optional[RecoveryReport] = None,
    ):
        self.root = Path(root)
        self.db = db
        self.wal = wal
        self.last_recovery = recovery
        self._closed = False
        self.db.add_commit_hook(self._append)

    @classmethod
    def open(
        cls,
        root: Union[str, Path],
        sync_every: int = 1,
        segment_bytes: Optional[int] = None,
        io: Optional[WalIO] = None,
        **db_kwargs,
    ) -> "DurableDatabase":
        """Recover (or create) the database at ``root`` and attach a WAL."""
        Path(root).mkdir(parents=True, exist_ok=True)
        report, scan = _recover(root, db_kwargs)
        wal_kwargs = {
            "sync_every": sync_every,
            # The WAL reports fsync counts/latency into the database's
            # registry so one snapshot covers both layers.
            "metrics": report.db.metrics,
            # Appends continue where recovery's own read of the log
            # ended: the log is read once per open.
            "scan": scan,
        }
        if segment_bytes is not None:
            wal_kwargs["segment_bytes"] = segment_bytes
        if io is not None:
            wal_kwargs["io"] = io
        wal = WriteAheadLog(root, **wal_kwargs)
        return cls(root, report.db, wal, recovery=report)

    # -- logging hook ------------------------------------------------------

    def _append(self, kind: str, data: object) -> None:
        # Looked up per call rather than registering the bound method,
        # so a wrapper installed on WriteAheadLog.append later sees
        # every record.
        self.wal.append(kind, data)

    # -- durability controls ----------------------------------------------

    def checkpoint(self) -> Tuple[int, Path]:
        """Snapshot current state and truncate the covered WAL."""
        return write_checkpoint(self.db, self.wal)

    def sync(self) -> None:
        """Force the group-commit window closed (fsync pending records)."""
        self.wal.sync()

    def close(self) -> None:
        if self._closed:
            return
        self.db.remove_commit_hook(self._append)
        self.wal.close()
        self._closed = True

    def __enter__(self) -> "DurableDatabase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- delegation --------------------------------------------------------

    def __getattr__(self, name: str):
        # Only called for attributes not found on self: delegate the
        # whole SpitzDatabase surface (put/get/sql/transaction/...).
        return getattr(self.db, name)
