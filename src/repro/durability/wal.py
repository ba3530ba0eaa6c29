"""Segmented, append-only write-ahead log with CRC-framed records.

Layout on disk (one directory per database)::

    wal-00000000.log
    wal-00000001.log
    ...

Each segment starts with a 20-byte header (``SPITZWAL`` magic, the
big-endian segment index and the segment's base LSN) followed by
framed records::

    +----------------+----------------+------------------+
    | length (4, BE) | crc32 (4, BE)  | payload (length) |
    +----------------+----------------+------------------+

The payload is a pickled ``(lsn, kind, data)`` triple; LSNs are
strictly increasing across segments, so a deleted or reordered segment
is detected as tampering, not silently skipped.  Because the scan
enforces that continuity, the headers are the only LSN bookkeeping: a
sealed segment ``i`` holds exactly LSNs ``[base(i), base(i+1) - 1]``.

Durability policy: ``sync_every=1`` fsyncs after every record (classic
commit-per-fsync); ``sync_every=N`` is *group commit* — records are
buffered and one fsync covers up to N of them.  Records written since
the last fsync are exactly the ones a crash may lose; recovery treats
a truncated or checksum-failing *tail* record as a torn write and
drops it, while any damage that is provably not a torn tail (bad bytes
with valid data after them, a missing middle segment, an LSN gap)
raises :class:`~repro.errors.TamperDetectedError`.
"""

from __future__ import annotations

import os
import pickle
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Tuple, Union

from repro.errors import StorageError, TamperDetectedError
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY

SEGMENT_MAGIC = b"SPITZWAL"
#: Header: magic + segment index (4, BE) + base LSN (8, BE).  The base
#: LSN is the LSN the segment's first record will carry — it keeps the
#: global LSN counter durable even when checkpointing deletes every
#: record-bearing segment, and cross-checks continuity across files.
SEGMENT_HEADER_SIZE = len(SEGMENT_MAGIC) + 4 + 8
RECORD_HEADER_SIZE = 8
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"

#: Default segment roll-over threshold (bytes).
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024


class WalIO:
    """The write-path syscalls the WAL performs, as an override point.

    :mod:`repro.durability.crashsim` subclasses this to drop writes
    after byte K or to suppress fsync; production code uses the real
    thing.  Reads are always real reads — crash injection models lost
    *writes*, recovery then observes whatever survived.
    """

    def open_append(self, path: Union[str, Path]) -> BinaryIO:
        return open(path, "ab")

    def fsync(self, handle: BinaryIO) -> None:
        handle.flush()
        os.fsync(handle.fileno())


@dataclass(frozen=True)
class WalRecord:
    """One replayable log record."""

    lsn: int
    kind: str
    data: object

    def encode(self) -> bytes:
        payload = pickle.dumps(
            (self.lsn, self.kind, self.data),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return (
            len(payload).to_bytes(4, "big")
            + zlib.crc32(payload).to_bytes(4, "big")
            + payload
        )


@dataclass
class WalScan:
    """Result of reading a WAL directory back."""

    records: List[WalRecord] = field(default_factory=list)
    #: True when a torn/partial tail record was dropped.
    torn_tail: bool = False
    #: Last segment index seen (-1 when the log is empty).
    last_segment: int = -1
    #: Byte offset of the end of the last *valid* record in the last
    #: segment (== header size for a record-less segment).
    last_valid_offset: int = SEGMENT_HEADER_SIZE
    #: LSN the next appended record must carry (1 for an empty log).
    next_lsn: int = 1
    #: Segment index -> the base LSN its header carries (a segment
    #: whose header was torn away has none).
    bases: Dict[int, int] = field(default_factory=dict)

    @property
    def last_lsn(self) -> int:
        return self.next_lsn - 1


def segment_path(root: Union[str, Path], index: int) -> Path:
    return Path(root) / f"{SEGMENT_PREFIX}{index:08d}{SEGMENT_SUFFIX}"


def list_segments(root: Union[str, Path]) -> List[Tuple[int, Path]]:
    """(index, path) pairs for every segment, in index order."""
    out = []
    for entry in sorted(Path(root).glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}")):
        stem = entry.name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
        try:
            out.append((int(stem), entry))
        except ValueError:
            continue
    return out


def scan_wal(
    root: Union[str, Path], expected_first_lsn: Optional[int] = None
) -> WalScan:
    """Read every record back, applying the torn-tail/tamper rules.

    A record that fails its checksum or is cut short is *torn* only if
    nothing valid follows it — i.e. it is the physical tail of the last
    segment.  Everything else (bad magic, a missing middle segment, an
    LSN gap, damage followed by valid data) raises
    :class:`TamperDetectedError`: the log was modified at rest, not
    merely interrupted.

    ``expected_first_lsn`` anchors the log to a checkpoint (recovery
    passes ``checkpoint_lsn + 1``): the first segment may *start* at or
    below that LSN — a crash between writing a checkpoint and
    truncating the WAL legitimately leaves pre-checkpoint records — but
    never above it, and the log must *reach* it.  A WAL that is empty
    or starts/ends short of a checkpoint that says records existed has
    lost segments: that is tampering, not a crash artifact.
    """
    scan = _scan_segments(root, expected_first_lsn)
    if expected_first_lsn is not None and scan.next_lsn < expected_first_lsn:
        raise TamperDetectedError(
            f"WAL under {root} ends at LSN {scan.next_lsn - 1} but its "
            f"checkpoint covers LSN {expected_first_lsn - 1}: "
            "post-checkpoint segments are missing or the log was wiped"
        )
    return scan


def _scan_segments(
    root: Union[str, Path], expected_first_lsn: Optional[int]
) -> WalScan:
    scan = WalScan()
    segments = list_segments(root)
    previous_index: Optional[int] = None
    next_lsn: Optional[int] = None
    for position, (index, path) in enumerate(segments):
        is_last = position == len(segments) - 1
        if previous_index is not None and index != previous_index + 1:
            raise TamperDetectedError(
                f"WAL segment gap: {previous_index} -> {index}"
            )
        previous_index = index
        scan.last_segment = index
        scan.last_valid_offset = SEGMENT_HEADER_SIZE
        blob = path.read_bytes()
        if len(blob) < SEGMENT_HEADER_SIZE:
            if is_last:
                scan.torn_tail = True
                scan.last_valid_offset = len(blob)
                break
            raise TamperDetectedError(f"WAL segment {path} lost its header")
        if blob[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
            raise TamperDetectedError(f"{path} is not a WAL segment")
        header_index = int.from_bytes(
            blob[len(SEGMENT_MAGIC):len(SEGMENT_MAGIC) + 4], "big"
        )
        if header_index != index:
            raise TamperDetectedError(
                f"{path} claims segment {header_index}, named {index}"
            )
        base_lsn = int.from_bytes(
            blob[len(SEGMENT_MAGIC) + 4:SEGMENT_HEADER_SIZE], "big"
        )
        if next_lsn is None:
            if (
                expected_first_lsn is not None
                and base_lsn > expected_first_lsn
            ):
                raise TamperDetectedError(
                    f"{path} base LSN {base_lsn} starts past the "
                    f"checkpoint boundary {expected_first_lsn}: leading "
                    "WAL segment(s) were deleted"
                )
            next_lsn = base_lsn
        elif base_lsn != next_lsn:
            raise TamperDetectedError(
                f"{path} base LSN {base_lsn} breaks continuity "
                f"(expected {next_lsn})"
            )
        scan.next_lsn = next_lsn
        scan.bases[index] = base_lsn
        offset = SEGMENT_HEADER_SIZE
        while offset < len(blob):
            remaining = len(blob) - offset
            if remaining < RECORD_HEADER_SIZE:
                if is_last:
                    scan.torn_tail = True
                    return scan
                raise TamperDetectedError(f"truncated record header in {path}")
            length = int.from_bytes(blob[offset:offset + 4], "big")
            checksum = int.from_bytes(blob[offset + 4:offset + 8], "big")
            payload_start = offset + RECORD_HEADER_SIZE
            if len(blob) - payload_start < length:
                if is_last:
                    scan.torn_tail = True
                    return scan
                raise TamperDetectedError(f"truncated record body in {path}")
            payload = blob[payload_start:payload_start + length]
            record_end = payload_start + length
            if zlib.crc32(payload) != checksum:
                if is_last and record_end == len(blob):
                    scan.torn_tail = True
                    return scan
                raise TamperDetectedError(
                    f"WAL record checksum mismatch in {path} at byte {offset}"
                )
            try:
                lsn, kind, data = pickle.loads(payload)
            except Exception as error:
                raise TamperDetectedError(
                    f"undecodable WAL record in {path} at byte {offset}: "
                    f"{error}"
                ) from error
            if next_lsn is not None and lsn != next_lsn:
                raise TamperDetectedError(
                    f"WAL LSN gap in {path}: expected {next_lsn}, found {lsn}"
                )
            next_lsn = lsn + 1
            scan.next_lsn = next_lsn
            scan.records.append(WalRecord(lsn, kind, data))
            offset = record_end
            scan.last_valid_offset = offset
    return scan


class WriteAheadLog:
    """Appender over a WAL directory (single writer).

    Opening positions the log after the last valid record — torn tail
    bytes left by a crash are trimmed so fresh appends never follow
    garbage.  The position comes from ``scan``, the :class:`WalScan`
    of this directory the caller just made (recovery hands over its
    own, anchored to the checkpoint); without one the log is scanned
    here.  ``sync_every`` sets the group-commit window; ``sync()``
    forces the window closed (used by checkpoints and clean shutdown).
    """

    def __init__(
        self,
        root: Union[str, Path],
        sync_every: int = 1,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        io: Optional[WalIO] = None,
        metrics: Optional[MetricsRegistry] = None,
        scan: Optional[WalScan] = None,
    ):
        if sync_every < 1:
            raise ValueError("sync_every must be positive")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.sync_every = sync_every
        self.segment_bytes = segment_bytes
        self.io = io if io is not None else WalIO()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._c_appends = self.metrics.counter("wal.appends")
        self._c_fsyncs = self.metrics.counter("wal.fsyncs")
        self._h_fsync = self.metrics.histogram("wal.fsync_seconds")
        self.synced_records = 0
        self.fsync_count = 0
        self._unsynced = 0
        self._handle: Optional[BinaryIO] = None
        if scan is None:
            scan = scan_wal(self.root)
        self._next_lsn = scan.next_lsn
        #: Segment index -> base LSN, as written in each live header.
        self._bases = dict(scan.bases)
        self._segment_index = max(scan.last_segment, 0)
        if scan.last_segment >= 0:
            path = segment_path(self.root, scan.last_segment)
            trim_to = scan.last_valid_offset
            if trim_to < SEGMENT_HEADER_SIZE:
                trim_to = 0  # even the header was torn; rewrite it
            if scan.torn_tail or path.stat().st_size > trim_to:
                # Trim crash debris so appends restart at a record
                # boundary (a plain filesystem repair, not a logged op).
                with open(path, "r+b") as handle:
                    handle.truncate(trim_to)
            self._open_segment(self._segment_index, create=trim_to == 0)
        else:
            self._open_segment(0, create=True)

    # -- appending ---------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record (0 when empty)."""
        return self._next_lsn - 1

    @property
    def pending_records(self) -> int:
        """Records appended but not yet covered by an fsync."""
        return self._unsynced

    def append(self, kind: str, data: object) -> WalRecord:
        """Frame and write one record; fsync per the group-commit policy.

        Returns the record (with its assigned LSN).  With
        ``sync_every == 1`` the record is durable on return; otherwise
        it becomes durable at the next window flush or explicit
        :meth:`sync`.
        """
        if self._handle is None:
            raise StorageError("write-ahead log is closed")
        record = WalRecord(self._next_lsn, kind, data)
        frame = record.encode()
        if (
            self._bytes_written + len(frame) > self.segment_bytes
            and self._active_has_records()
        ):
            self.rotate()
        self._handle.write(frame)
        self._bytes_written += len(frame)
        self._next_lsn += 1
        self._unsynced += 1
        self._c_appends.inc()
        if self._unsynced >= self.sync_every:
            self.sync()
        return record

    def sync(self) -> None:
        """Close the group-commit window: one fsync for all pending."""
        if self._handle is None:
            return
        if self._unsynced == 0:
            return
        start = time.perf_counter()
        with self.metrics.tracer.stage("wal.fsync"):
            self.io.fsync(self._handle)
        self._h_fsync.observe(time.perf_counter() - start)
        self._c_fsyncs.inc()
        self.fsync_count += 1
        self.synced_records += self._unsynced
        self._unsynced = 0

    def rotate(self) -> None:
        """Seal the active segment and start the next one."""
        self.sync()
        if self._handle is not None:
            self._handle.close()
        self._segment_index += 1
        self._open_segment(self._segment_index, create=True)

    def truncate_through(self, lsn: int) -> List[Path]:
        """Delete sealed segments fully covered by a checkpoint at ``lsn``.

        The active segment is rotated first, so every record ≤ ``lsn``
        lives in a sealed segment.  Sealed segment ``i`` ends at
        ``base(i+1) - 1``; it is deleted when that is ≤ ``lsn`` and kept
        otherwise.  Returns the deleted paths.
        """
        if self._active_has_records():
            self.rotate()
        removed: List[Path] = []
        for index in sorted(self._bases)[:-1]:  # all but the active one
            if self._bases[index + 1] - 1 > lsn:
                break
            path = segment_path(self.root, index)
            path.unlink()
            del self._bases[index]
            removed.append(path)
        return removed

    def close(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    # -- internals ---------------------------------------------------------

    def _active_has_records(self) -> bool:
        return self._next_lsn > self._bases[self._segment_index]

    def _open_segment(self, index: int, create: bool) -> None:
        path = segment_path(self.root, index)
        size = path.stat().st_size if path.exists() else 0
        self._handle = self.io.open_append(path)
        if create and size < SEGMENT_HEADER_SIZE:
            self._handle.write(
                SEGMENT_MAGIC
                + index.to_bytes(4, "big")
                + self._next_lsn.to_bytes(8, "big")
            )
            self.io.fsync(self._handle)
            self._bases[index] = self._next_lsn
            size = SEGMENT_HEADER_SIZE
        self._bytes_written = size
