"""Unit tests for the write-ahead log: framing, group commit,
torn-tail tolerance, tamper detection, segments and truncation."""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.durability.crashsim import (
    CrashyIO,
    flip_byte,
    truncate_wal_stream,
    wal_stream_length,
)
from repro.durability.wal import (
    SEGMENT_HEADER_SIZE,
    WalRecord,
    WriteAheadLog,
    list_segments,
    scan_wal,
    segment_path,
)
from repro.errors import TamperDetectedError


def _fill(wal, count, start=0):
    for i in range(start, start + count):
        wal.append("commit", ([(b"k%d" % i, b"v%d" % i)], (), i + 1))


class TestFramingAndReplay:
    def test_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _fill(wal, 5)
        wal.close()
        scan = scan_wal(tmp_path)
        assert [r.lsn for r in scan.records] == [1, 2, 3, 4, 5]
        assert scan.records[2].kind == "commit"
        assert scan.records[2].data[0] == [(b"k2", b"v2")]
        assert not scan.torn_tail

    def test_lsns_continue_across_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _fill(wal, 3)
        wal.close()
        wal = WriteAheadLog(tmp_path)
        assert wal.last_lsn == 3
        record = wal.append("commit", ([], (), 99))
        assert record.lsn == 4
        wal.close()
        assert scan_wal(tmp_path).last_lsn == 4

    def test_empty_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.close()
        scan = scan_wal(tmp_path)
        assert scan.records == [] and scan.last_lsn == 0


class TestGroupCommit:
    def test_sync_every_batches_fsyncs(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync_every=8)
        _fill(wal, 16)
        # Two windows of 8 records -> two fsyncs.
        assert wal.fsync_count == 2
        assert wal.pending_records == 0
        _fill(wal, 3, start=16)
        assert wal.pending_records == 3
        wal.sync()
        assert wal.pending_records == 0
        wal.close()
        assert len(scan_wal(tmp_path).records) == 19

    def test_per_record_fsync(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync_every=1)
        _fill(wal, 4)
        assert wal.fsync_count == 4  # one per record
        wal.close()


class TestTornTail:
    def test_every_truncation_offset_is_torn_or_prefix(self, tmp_path):
        """Cutting the stream at *any* byte yields a clean prefix."""
        wal = WriteAheadLog(tmp_path)
        _fill(wal, 6)
        wal.close()
        blob = segment_path(tmp_path, 0).read_bytes()
        boundaries = {
            record_end
            for record_end in _record_boundaries(blob)
        }
        for offset in range(SEGMENT_HEADER_SIZE, len(blob)):
            segment_path(tmp_path, 0).write_bytes(blob[:offset])
            scan = scan_wal(tmp_path)
            # Never an error; always a prefix of the records.
            lsns = [r.lsn for r in scan.records]
            assert lsns == list(range(1, len(lsns) + 1))
            assert len(lsns) <= 6
            if len(lsns) < 6 and offset not in boundaries:
                # A cut exactly at a record boundary is a clean
                # (shorter) log; anything else must be flagged torn.
                assert scan.torn_tail

    def test_reopen_after_torn_tail_trims_and_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _fill(wal, 3)
        wal.close()
        truncate_wal_stream(tmp_path, wal_stream_length(tmp_path) - 2)
        wal = WriteAheadLog(tmp_path)
        assert wal.last_lsn == 2  # record 3 torn away
        _fill(wal, 1, start=10)
        wal.close()
        scan = scan_wal(tmp_path)
        assert [r.lsn for r in scan.records] == [1, 2, 3]
        assert not scan.torn_tail

    def test_header_only_torn(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _fill(wal, 2)
        wal.close()
        truncate_wal_stream(tmp_path, 5)  # inside the segment header
        scan = scan_wal(tmp_path)
        assert scan.records == [] and scan.torn_tail
        wal = WriteAheadLog(tmp_path)  # reopen repairs the header
        _fill(wal, 1)
        wal.close()
        assert len(scan_wal(tmp_path).records) == 1


class TestTamperDetection:
    def test_flip_mid_log_detected(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _fill(wal, 6)
        wal.close()
        path = segment_path(tmp_path, 0)
        flip_byte(path, path.stat().st_size // 2)
        with pytest.raises(TamperDetectedError):
            scan_wal(tmp_path)

    def test_bad_magic_detected(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _fill(wal, 1)
        wal.close()
        flip_byte(segment_path(tmp_path, 0), 0)
        with pytest.raises(TamperDetectedError):
            scan_wal(tmp_path)

    def test_missing_middle_segment_detected(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=256)
        _fill(wal, 40)
        wal.close()
        segments = list_segments(tmp_path)
        assert len(segments) >= 3
        segments[1][1].unlink()
        with pytest.raises(TamperDetectedError):
            scan_wal(tmp_path)

    def test_lsn_gap_detected(self, tmp_path):
        # Two segments; rewrite the second with skipped LSNs.
        wal = WriteAheadLog(tmp_path, segment_bytes=256)
        _fill(wal, 40)
        wal.close()
        segments = list_segments(tmp_path)
        index, path = segments[-1]
        blob = path.read_bytes()[:SEGMENT_HEADER_SIZE]
        blob += WalRecord(9999, "commit", ([], (), 1)).encode()
        path.write_bytes(blob)
        with pytest.raises(TamperDetectedError):
            scan_wal(tmp_path)

    def test_expected_first_lsn_flags_missing_prefix(self, tmp_path):
        # A log whose first segment starts past the anchor lost its
        # leading segment(s).
        wal = WriteAheadLog(tmp_path, segment_bytes=256)
        _fill(wal, 40)
        wal.truncate_through(20)
        wal.close()
        first_base = scan_wal(tmp_path).records[0].lsn
        assert first_base > 1
        with pytest.raises(TamperDetectedError):
            scan_wal(tmp_path, expected_first_lsn=1)
        # Anchored exactly at (or above) its own start, the scan is fine.
        scan = scan_wal(tmp_path, expected_first_lsn=first_base)
        assert scan.records[0].lsn == first_base

    def test_expected_first_lsn_flags_wiped_log(self, tmp_path):
        # An empty directory is fine for a fresh log (anchor 1) but
        # tampering when an anchor says records existed.
        assert scan_wal(tmp_path, expected_first_lsn=1).records == []
        with pytest.raises(TamperDetectedError):
            scan_wal(tmp_path, expected_first_lsn=5)

    def test_expected_first_lsn_flags_short_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _fill(wal, 3)
        wal.close()
        with pytest.raises(TamperDetectedError):
            scan_wal(tmp_path, expected_first_lsn=10)

    def test_expected_first_lsn_tolerates_lower_start(self, tmp_path):
        # Records below the anchor are legitimate (a crash between a
        # checkpoint write and its WAL truncation leaves them behind).
        wal = WriteAheadLog(tmp_path)
        _fill(wal, 5)
        wal.close()
        scan = scan_wal(tmp_path, expected_first_lsn=4)
        assert [r.lsn for r in scan.records] == [1, 2, 3, 4, 5]


class TestSegmentsAndTruncation:
    def test_rotation_by_size(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=256)
        _fill(wal, 30)
        wal.close()
        assert len(list_segments(tmp_path)) > 1
        assert [r.lsn for r in scan_wal(tmp_path).records] == list(
            range(1, 31)
        )

    def test_truncate_through_removes_covered_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=256)
        _fill(wal, 30)
        last = wal.last_lsn
        removed = wal.truncate_through(last)
        assert removed, "sealed segments should have been deleted"
        _fill(wal, 2, start=100)
        wal.close()
        # Only the post-truncation records remain on disk.
        assert [r.lsn for r in scan_wal(tmp_path).records] == [
            last + 1, last + 2,
        ]

    def test_truncate_through_keeps_uncovered(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=256)
        _fill(wal, 30)
        removed = wal.truncate_through(5)  # nothing fully covered...
        wal.close()
        survivors = [r.lsn for r in scan_wal(tmp_path).records]
        # Every record above the truncation point survived.
        assert set(range(6, 31)) <= set(survivors)

    def test_reopen_tracks_only_active_segment_span(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=256)
        _fill(wal, 30)
        wal.close()
        wal = WriteAheadLog(tmp_path, segment_bytes=256)
        sealed = [path for _index, path in list_segments(tmp_path)]
        wal.rotate()
        # Segments sealed before this process opened the log are
        # deleted from their headers alone; appends stay consistent.
        assert wal.truncate_through(wal.last_lsn) == sealed
        _fill(wal, 1, start=100)
        wal.close()
        assert [r.lsn for r in scan_wal(tmp_path).records] == [31]


#: One step of the truncation property: ("fill", n), ("reopen",),
#: ("rotate",) or ("truncate", how far below the log's end).
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("fill"), st.integers(min_value=1, max_value=12)),
        st.tuples(st.just("reopen")),
        st.tuples(st.just("rotate")),
        st.tuples(st.just("truncate"), st.integers(min_value=0, max_value=15)),
    ),
    min_size=1,
    max_size=12,
)


def _segment_lsns(path):
    """LSNs of one segment's records, read alone by the one scanner."""
    with tempfile.TemporaryDirectory() as alone:
        shutil.copy(path, Path(alone) / path.name)
        return [record.lsn for record in scan_wal(alone).records]


@settings(max_examples=40, deadline=None)
@given(steps=STEPS)
def test_truncation_keeps_every_record_above_the_checkpoint(steps):
    """Random fills, reopens, rotations and truncations: the log always
    scans anchored at the truncation point, every record above it
    survives in order, and no sealed segment outlives its records."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        wal = WriteAheadLog(root, segment_bytes=160)
        through = 0
        for step in steps:
            if step[0] == "fill":
                _fill(wal, step[1], start=wal.last_lsn)
            elif step[0] == "reopen":
                wal.close()
                wal = WriteAheadLog(root, segment_bytes=160)
            elif step[0] == "rotate":
                wal.rotate()
            else:
                through = max(through, wal.last_lsn - step[1], 0)
                wal.truncate_through(through)
            wal.sync()
            scan = scan_wal(root, expected_first_lsn=through + 1)
            lsns = [r.lsn for r in scan.records]
            assert [n for n in lsns if n > through] == list(
                range(through + 1, wal.last_lsn + 1)
            )
            for _index, path in list_segments(root)[:-1]:
                held = _segment_lsns(path)
                assert not held or held[-1] > through, path.name
        wal.close()


class TestCrashyIO:
    def test_drop_after_loses_suffix_only(self, tmp_path):
        io = CrashyIO(drop_after=wal_header_plus(200))
        wal = WriteAheadLog(tmp_path, io=io)
        _fill(wal, 50)
        io.simulate_crash()
        scan = scan_wal(tmp_path)
        lsns = [r.lsn for r in scan.records]
        assert lsns == list(range(1, len(lsns) + 1))
        assert len(lsns) < 50
        assert io.dropped_bytes > 0

    def test_skip_fsync_loses_unsynced_window(self, tmp_path):
        wal = WriteAheadLog(tmp_path)  # real IO: header + 4 records
        _fill(wal, 4)
        wal.close()
        io = CrashyIO(skip_fsync=True)
        wal = WriteAheadLog(tmp_path, sync_every=100, io=io)
        _fill(wal, 10, start=4)
        assert wal.pending_records == 10
        io.simulate_crash()
        scan = scan_wal(tmp_path)
        # The entire unsynced window vanished; the old prefix holds.
        assert [r.lsn for r in scan.records] == [1, 2, 3, 4]


def wal_header_plus(extra: int) -> int:
    return SEGMENT_HEADER_SIZE + extra


def _record_boundaries(blob):
    """Byte offsets at which a record ends (clean cut points)."""
    offset = SEGMENT_HEADER_SIZE
    yield offset
    while offset < len(blob):
        length = int.from_bytes(blob[offset:offset + 4], "big")
        offset += 8 + length
        yield offset
