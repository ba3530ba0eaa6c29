"""Crash-recovery suite: checkpoint + replay + audit, fault injection,
the log's bytes, the durable CLI surface and the durable cluster mode."""

import hashlib
from pathlib import Path
from unittest import mock

import pytest

from repro import cli
from repro.core.node import SpitzCluster
from repro.core.request_handler import Request, RequestKind
from repro.durability import DurableDatabase, list_checkpoints, recover
from repro.durability.crashsim import (
    CrashyIO,
    flip_byte,
    truncate_wal_stream,
    wal_stream_length,
)
from repro.durability.wal import list_segments
from repro.errors import (
    FormatVersionError,
    SpitzError,
    TamperDetectedError,
)


def _populate(ddb):
    ddb.put(b"alpha", b"1")
    ddb.put(b"beta", b"2")
    ddb.sql("CREATE TABLE t (id INT, v STR, PRIMARY KEY (id))")
    ddb.sql("INSERT INTO t (id, v) VALUES (1, 'one')")
    with ddb.transaction() as txn:
        txn.put(b"gamma", b"3")
    ddb.delete(b"beta")


class TestRecoveryRoundTrip:
    def test_digest_identical_after_replay(self, tmp_path):
        with DurableDatabase.open(tmp_path) as ddb:
            _populate(ddb)
            digest = ddb.digest()
        with DurableDatabase.open(tmp_path) as restored:
            assert restored.digest() == digest
            assert restored.get(b"alpha") == b"1"
            assert restored.get(b"beta") is None
            assert restored.get(b"gamma") == b"3"
            assert restored.sql("SELECT v FROM t WHERE id = 1") == [
                {"v": "one"}
            ]
            assert restored.verify_chain()

    def test_recovered_db_accepts_fresh_writes(self, tmp_path):
        with DurableDatabase.open(tmp_path) as ddb:
            _populate(ddb)
        with DurableDatabase.open(tmp_path) as restored:
            restored.put(b"delta", b"4")
            with restored.transaction() as txn:
                txn.put(b"epsilon", b"5")
        with DurableDatabase.open(tmp_path) as again:
            assert again.get(b"delta") == b"4"
            assert again.get(b"epsilon") == b"5"
            assert again.verify_chain()

    def test_timestamps_advance_past_replayed(self, tmp_path):
        with DurableDatabase.open(tmp_path) as ddb:
            _populate(ddb)
            before = ddb.oracle.current()
        with DurableDatabase.open(tmp_path) as restored:
            assert restored.oracle.current() >= before
            restored.put(b"new", b"x")  # must not collide
            assert restored.history(b"new")

    def test_report_describes_replay(self, tmp_path):
        with DurableDatabase.open(tmp_path) as ddb:
            ddb.put(b"k", b"v")
        report = recover(tmp_path)
        assert report.replayed == 1
        assert report.checkpoint_path is None
        assert "replayed 1 record" in report.describe()


class TestCheckpoints:
    def test_checkpoint_bounds_replay_and_truncates(self, tmp_path):
        with DurableDatabase.open(tmp_path, segment_bytes=512) as ddb:
            for i in range(40):
                ddb.put(b"k%d" % i, b"v%d" % i)
            segments_before = len(list_segments(tmp_path))
            lsn, path = ddb.checkpoint()
            assert path.exists()
            assert len(list_segments(tmp_path)) < segments_before
            ddb.put(b"after", b"ckpt")
        report = recover(tmp_path)
        assert report.checkpoint_lsn == lsn
        assert report.replayed == 1  # only the post-checkpoint put
        assert report.db.get(b"after") == b"ckpt"
        assert report.db.get(b"k7") == b"v7"

    def test_old_checkpoints_pruned(self, tmp_path):
        with DurableDatabase.open(tmp_path) as ddb:
            for i in range(4):
                ddb.put(b"k%d" % i, b"v")
                ddb.checkpoint()
            assert len(list_checkpoints(tmp_path)) <= 3

    def test_tampered_checkpoint_detected(self, tmp_path):
        with DurableDatabase.open(tmp_path) as ddb:
            _populate(ddb)
            ddb.checkpoint()
        lsn, path = list_checkpoints(tmp_path)[-1]
        flip_byte(path, path.stat().st_size // 2)
        with pytest.raises(TamperDetectedError):
            recover(tmp_path)

    def test_corrupt_newest_checkpoint_falls_back_to_older(self, tmp_path):
        with DurableDatabase.open(tmp_path) as ddb:
            ddb.put(b"a", b"1")
            lsn1, _path1 = ddb.checkpoint()
            ddb.put(b"b", b"2")
            lsn2, path2 = ddb.checkpoint()
            ddb.put(b"c", b"3")
        flip_byte(path2, path2.stat().st_size // 2)
        report = recover(tmp_path)
        # Fell back to the older checkpoint; the WAL it needs for
        # replay was retained, so no committed write is lost.
        assert report.checkpoint_lsn == lsn1
        assert report.skipped_checkpoints == [path2]
        assert "fell back past 1 corrupt checkpoint(s)" in report.describe()
        assert report.db.get(b"a") == b"1"
        assert report.db.get(b"b") == b"2"
        assert report.db.get(b"c") == b"3"
        assert report.db.verify_chain()

    def test_an_edited_live_version_falls_back_to_an_older_checkpoint(
        self, tmp_path
    ):
        """A checkpoint whose chain is intact but whose live version of
        one key was edited fails its load like a damaged one: recovery
        skips it and replays the older checkpoint's log suffix.  The
        tip gives a live key its value, so the edit is written as a
        version-table row at the live version's timestamp."""
        from repro.core.schema import KV_PREFIX
        from repro.durability.checkpoint import load_database, save_database

        with DurableDatabase.open(tmp_path) as ddb:
            for i in range(10):
                ddb.put(b"k%02d" % i, b"v%d" % i)
            lsn1, _path1 = ddb.checkpoint()
            ddb.put(b"k07", b"v7 again")
            _lsn2, path2 = ddb.checkpoint()
            ddb.put(b"k08", b"after")
            digest = ddb.digest()
        edited = load_database(path2)
        live = edited.versions.read_latest(KV_PREFIX + b"k07")
        rows, stamps = edited.persisted_versions()
        rows.append((
            KV_PREFIX + b"k07", live.commit_ts, edited.chunks.put(b"EDITED")
        ))
        edited.persisted_versions = lambda: (rows, stamps)
        save_database(edited, path2)
        report = recover(tmp_path)
        assert report.checkpoint_lsn == lsn1
        assert report.skipped_checkpoints == [path2]
        assert report.db.get(b"k07") == b"v7 again"
        assert report.db.get(b"k08") == b"after"
        assert report.db.digest() == digest

    def test_history_across_a_block_batch_survives_a_reopen(self, tmp_path):
        """With ``block_batch=4`` a key overwritten inside one batch has
        a version no block sealed; it is history all the same."""
        with DurableDatabase.open(tmp_path, block_batch=4) as ddb:
            ddb.put(b"k", b"first-value")
            ddb.put(b"k", b"second-value")
            ddb.put(b"j", b"x")
            assert hashlib.sha256(b"first-value").digest() not in ddb.chunks
            before = ddb.history(b"k")
            ddb.checkpoint()
        with DurableDatabase.open(tmp_path, block_batch=4) as reopened:
            assert reopened.last_recovery.replayed == 0
            assert reopened.history(b"k") == before
        assert [value for _ts, value in before] == [
            b"first-value", b"second-value"
        ]

    def test_a_node_format_1_checkpoint_stops_recovery_by_name(self, tmp_path):
        """Not damage, so no fallback: an older checkpoint is in the
        same format, and replaying the truncated log over nothing would
        lose what the checkpoint held."""
        with DurableDatabase.open(tmp_path) as ddb:
            ddb.put(b"a", b"1")
            ddb.checkpoint()
            ddb.put(b"b", b"2")
            _lsn, newest = ddb.checkpoint()
        newest.write_bytes(b"SPITZDB1" + newest.read_bytes()[8:])
        with pytest.raises(FormatVersionError, match="snapshot in layout 1"):
            recover(tmp_path)

    def test_a_layout_2_checkpoint_stops_recovery_by_name(self, tmp_path):
        """The same rule for the layout before the one version store:
        re-raised, never a fallback to an older checkpoint."""
        with DurableDatabase.open(tmp_path) as ddb:
            ddb.put(b"a", b"1")
            ddb.checkpoint()
            ddb.put(b"b", b"2")
            _lsn, newest = ddb.checkpoint()
        newest.write_bytes(b"SPITZDB2" + newest.read_bytes()[8:])
        with pytest.raises(FormatVersionError, match="snapshot in layout 2"):
            recover(tmp_path)

    def test_a_layout_3_checkpoint_stops_recovery_by_name(
        self, tmp_path, monkeypatch
    ):
        """Layout 3 holds nodes in layout v2, which this build's node
        codec refuses: re-raised before the payload is unpickled."""
        with DurableDatabase.open(tmp_path) as ddb:
            ddb.put(b"a", b"1")
            ddb.checkpoint()
            ddb.put(b"b", b"2")
            _lsn, newest = ddb.checkpoint()
        assert newest.read_bytes().startswith(b"SPITZ014")
        newest.write_bytes(b"SPITZDB3" + newest.read_bytes()[8:])
        monkeypatch.setattr(
            "pickle.Unpickler", lambda *_: pytest.fail("payload was unpickled")
        )
        with pytest.raises(
            FormatVersionError,
            match="snapshot in layout 3; .* snapshot layout 14 only",
        ):
            recover(tmp_path)

    def test_a_layout_4_checkpoint_stops_recovery_by_name(
        self, tmp_path, monkeypatch
    ):
        """Layout 4 pickled a record per chunk (its bytes and a
        reference count) where this build keeps the bytes alone."""
        with DurableDatabase.open(tmp_path) as ddb:
            ddb.put(b"a", b"1")
            ddb.checkpoint()
            ddb.put(b"b", b"2")
            _lsn, newest = ddb.checkpoint()
        newest.write_bytes(b"SPITZDB4" + newest.read_bytes()[8:])
        monkeypatch.setattr(
            "pickle.Unpickler", lambda *_: pytest.fail("payload was unpickled")
        )
        with pytest.raises(
            FormatVersionError,
            match="snapshot in layout 4; .* snapshot layout 14 only",
        ):
            recover(tmp_path)

    def test_a_layout_5_checkpoint_stops_recovery_by_name(
        self, tmp_path, monkeypatch
    ):
        """Layout 5 pickled the chunk store with the rest of the graph;
        layout 6 writes chunks as records outside the pickle."""
        with DurableDatabase.open(tmp_path) as ddb:
            ddb.put(b"a", b"1")
            ddb.checkpoint()
            ddb.put(b"b", b"2")
            _lsn, newest = ddb.checkpoint()
        newest.write_bytes(b"SPITZDB5" + newest.read_bytes()[8:])
        monkeypatch.setattr(
            "pickle.Unpickler", lambda *_: pytest.fail("payload was unpickled")
        )
        with pytest.raises(
            FormatVersionError,
            match="snapshot in layout 5; .* snapshot layout 14 only",
        ):
            recover(tmp_path)

    def test_a_layout_6_checkpoint_stops_recovery_by_name(
        self, tmp_path, monkeypatch
    ):
        """Layout 6 wrote every chunk whole; layout 7 writes each in the
        form it is stored in, reverse deltas among them."""
        with DurableDatabase.open(tmp_path) as ddb:
            ddb.put(b"a", b"1")
            ddb.checkpoint()
            ddb.put(b"b", b"2")
            _lsn, newest = ddb.checkpoint()
        newest.write_bytes(b"SPITZDB6" + newest.read_bytes()[8:])
        monkeypatch.setattr(
            "pickle.Unpickler", lambda *_: pytest.fail("payload was unpickled")
        )
        with pytest.raises(
            FormatVersionError,
            match="snapshot in layout 6; .* snapshot layout 14 only",
        ):
            recover(tmp_path)

    def test_a_layout_7_checkpoint_stops_recovery_by_name(
        self, tmp_path, monkeypatch
    ):
        """Layout 7 pickled the database's object graph; layout 8 writes
        a manifest of what cannot be derived and derives the rest."""
        with DurableDatabase.open(tmp_path) as ddb:
            ddb.put(b"a", b"1")
            ddb.checkpoint()
            ddb.put(b"b", b"2")
            _lsn, newest = ddb.checkpoint()
        newest.write_bytes(b"SPITZDB7" + newest.read_bytes()[8:])
        monkeypatch.setattr(
            "pickle.Unpickler", lambda *_: pytest.fail("payload was unpickled")
        )
        with pytest.raises(
            FormatVersionError,
            match="snapshot in layout 7; .* snapshot layout 14 only",
        ):
            recover(tmp_path)

    def test_a_layout_8_checkpoint_stops_recovery_by_name(self, tmp_path):
        """Layout 8 persisted a ``ledger_only`` flag no digest commits
        to; layout 9 has no such mode. Re-raised, never a fallback."""
        with DurableDatabase.open(tmp_path) as ddb:
            ddb.put(b"a", b"1")
            ddb.checkpoint()
            ddb.put(b"b", b"2")
            _lsn, newest = ddb.checkpoint()
        newest.write_bytes(b"SPITZDB8" + newest.read_bytes()[8:])
        with pytest.raises(
            FormatVersionError,
            match="snapshot in layout 8; .* snapshot layout 14 only",
        ):
            recover(tmp_path)

    def test_a_layout_9_checkpoint_stops_recovery_by_name(self, tmp_path):
        """Layout 9 held nodes in layout v3, which the row-major codec
        does not read; the WAL it bounds is unchanged, but there is no
        migration. Re-raised, never a fallback."""
        with DurableDatabase.open(tmp_path) as ddb:
            ddb.put(b"a", b"1")
            ddb.checkpoint()
            ddb.put(b"b", b"2")
            _lsn, newest = ddb.checkpoint()
        newest.write_bytes(b"SPITZDB9" + newest.read_bytes()[8:])
        with pytest.raises(
            FormatVersionError,
            match="snapshot in layout 9; .* snapshot layout 14 only",
        ):
            recover(tmp_path)

    def test_a_layout_10_checkpoint_stops_recovery_by_name(self, tmp_path):
        """Layout 10 committed search postings in per-column trees beside
        the ledger, under a manifest key the tip tree of later layouts does
        not hold. Re-raised, never a fallback."""
        with DurableDatabase.open(tmp_path) as ddb:
            ddb.put(b"a", b"1")
            ddb.checkpoint()
            ddb.put(b"b", b"2")
            _lsn, newest = ddb.checkpoint()
        newest.write_bytes(b"SPITZ010" + newest.read_bytes()[8:])
        with pytest.raises(
            FormatVersionError,
            match="snapshot in layout 10; .* snapshot layout 14 only",
        ):
            recover(tmp_path)

    def test_a_layout_11_checkpoint_stops_recovery_by_name(self, tmp_path):
        """Layout 11 held every delta as one hunk. Re-raised, never a
        fallback."""
        with DurableDatabase.open(tmp_path) as ddb:
            ddb.put(b"a", b"1")
            ddb.checkpoint()
            ddb.put(b"b", b"2")
            _lsn, newest = ddb.checkpoint()
        newest.write_bytes(b"SPITZ011" + newest.read_bytes()[8:])
        with pytest.raises(
            FormatVersionError,
            match="snapshot in layout 11; .* snapshot layout 14 only",
        ):
            recover(tmp_path)

    def test_a_layout_12_checkpoint_stops_recovery_by_name(self, tmp_path):
        """Layout 12 wrote each chunk record's address and each live
        version's key and digest. Re-raised, never a fallback."""
        with DurableDatabase.open(tmp_path) as ddb:
            ddb.put(b"a", b"1")
            ddb.checkpoint()
            ddb.put(b"b", b"2")
            _lsn, newest = ddb.checkpoint()
        newest.write_bytes(b"SPITZ012" + newest.read_bytes()[8:])
        with pytest.raises(
            FormatVersionError,
            match="snapshot in layout 12; .* snapshot layout 14 only",
        ):
            recover(tmp_path)

    def test_a_layout_13_checkpoint_stops_recovery_by_name(self, tmp_path):
        """Layout 13 named each delta's base by its 32-byte address.
        Re-raised, never a fallback."""
        with DurableDatabase.open(tmp_path) as ddb:
            ddb.put(b"a", b"1")
            ddb.checkpoint()
            ddb.put(b"b", b"2")
            _lsn, newest = ddb.checkpoint()
        newest.write_bytes(b"SPITZ013" + newest.read_bytes()[8:])
        with pytest.raises(
            FormatVersionError,
            match="snapshot in layout 13; .* snapshot layout 14 only",
        ):
            recover(tmp_path)

    def test_a_checkpoint_taken_beside_racing_puts_is_whole(self, tmp_path):
        """A checkpoint holds the commit lock from the LSN it records to
        its last chunk record, so puts racing it on other threads can
        neither land a chunk the manifest does not name nor slip a
        commit between the LSN and the snapshot: every checkpoint loads,
        and recovery replays to exactly the acknowledged puts."""
        import sys
        import threading

        from repro.durability.checkpoint import load_database

        acknowledged = []
        stop = threading.Event()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with DurableDatabase.open(tmp_path, sync_every=64) as ddb:

                def writer(worker):
                    i = 0
                    while not stop.is_set():
                        key = b"w%d-%05d" % (worker, i)
                        ddb.put(key, b"v" * 40)
                        acknowledged.append(key)
                        i += 1

                threads = [
                    threading.Thread(target=writer, args=(n,))
                    for n in range(4)
                ]
                for thread in threads:
                    thread.start()
                try:
                    paths = [ddb.checkpoint()[1] for _ in range(6)]
                    loaded = [load_database(path) for path in paths[-3:]]
                finally:
                    stop.set()
                    for thread in threads:
                        thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                digest = ddb.digest()
        finally:
            sys.setswitchinterval(interval)
        assert all(db.verify_chain() for db in loaded)
        assert loaded[-1].ledger.height > 0
        report = recover(tmp_path)
        assert report.checkpoint_path == paths[-1]
        assert report.db.digest() == digest
        assert report.db.ledger.height == len(acknowledged)
        assert all(report.db.get(key) == b"v" * 40 for key in acknowledged)

    def test_keep_retains_older_checkpoints(self, tmp_path):
        with DurableDatabase.open(tmp_path) as ddb:
            for i in range(5):
                ddb.put(b"k%d" % i, b"v")
                ddb.checkpoint()
            # The newest plus KEEP_OLDER (2) older fallbacks survive pruning.
            assert len(list_checkpoints(tmp_path)) == 3


class TestUntrustedValues:
    def test_a_null_put_frame_changes_nothing(self, tmp_path):
        """A PUT frame whose value is JSON ``null`` is refused before it
        installs a version: ``None`` is a delete inside a write set, so
        letting it through would delete the key unlogged and unsealed."""
        from repro.core.request_handler import RequestHandler
        from repro.serve.codec import decode_request

        with DurableDatabase.open(tmp_path) as ddb:
            ddb.put(b"k", b"good")
            handler = RequestHandler(ddb)
            frame = {
                "kind": "put",
                "verify": False,
                "payload": {"key": {"$bytes": "aw=="}, "value": None},
            }
            response = handler.handle(decode_request(frame))
            assert not response.ok and "b'k'" in response.error
            got = handler.handle(Request(RequestKind.GET, {"key": b"k"}))
            assert got.ok and got.result == b"good"
            assert [value for _ts, value in ddb.history(b"k")] == [b"good"]
            ddb.checkpoint()
        with DurableDatabase.open(tmp_path) as reopened:
            assert reopened.get(b"k") == b"good"


class TestOneReadOfTheLog:
    def test_open_reads_each_segment_once_and_checkpoint_none(
        self, tmp_path
    ):
        with DurableDatabase.open(tmp_path, segment_bytes=1024) as ddb:
            i = 0
            while len(list_segments(tmp_path)) < 8:
                ddb.put(b"k%04d" % i, b"v" * 20)
                i += 1
        segments = [path.name for _index, path in list_segments(tmp_path)]
        reads = []
        read_bytes = Path.read_bytes

        def counted(path):
            reads.append(path.name)
            return read_bytes(path)

        with mock.patch.object(Path, "read_bytes", counted):
            ddb = DurableDatabase.open(tmp_path, segment_bytes=1024)
            opened = sorted(reads)
            reads.clear()
            ddb.checkpoint()
            ddb.close()
        assert len(segments) == 8 and opened == segments
        # Truncation learns each sealed segment's span from the headers
        # the open already read: no segment is read again.
        assert reads == []
        assert len(list_segments(tmp_path)) == 1


#: SHA-256 of every WAL segment :func:`_golden_script` leaves, before
#: its checkpoint and after it, and the recovered chain digest — the
#: log's bytes are a format, so a refactor of the logging path must
#: reproduce them exactly.
GOLDEN_BEFORE_CHECKPOINT = {
    "wal-00000000.log":
        "b0888976f06cf6813b1c1fb6e20d2407691083fcc010dc8211849e7744cbd714",
    "wal-00000001.log":
        "0edd1f069c8944655d755af1eb13604a3fed491b55f4e9d41127c3abfb4ec07b",
}
GOLDEN_AFTER_CHECKPOINT = {
    "wal-00000002.log":
        "4448d885838b0bab74696223607b38a0e14c6144b26273a87fddc692a01393b6",
    "wal-00000003.log":
        "b83958cb4c0a4784efbec1d7aa719c669351200f97efa2760ba05ead80c36c52",
}
GOLDEN_CHAIN_DIGEST = (
    "7701a9434893dc823e217db3fafe165fb46a7632ba5865be2d43075f11e145f8"
)


def _segment_hashes(root):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for _index, path in list_segments(root)
    }


def _golden_script(root):
    """Every record kind, a checkpoint, then more puts; the segment
    hashes before and after the checkpoint."""
    with DurableDatabase.open(root, segment_bytes=512) as ddb:
        ddb.put(b"alpha", b"1")
        ddb.put(b"beta", b"2")
        ddb.delete(b"beta")
        ddb.sql("CREATE TABLE items (id INT, price INT, PRIMARY KEY (id))")
        ddb.enable_search(["items.price"])
        ddb.search_verified("items.price", ">= 10")  # logs nothing
        ddb.sql("INSERT INTO items (id, price) VALUES (1, 15)")
        with ddb.transaction() as txn:
            txn.put(b"gamma", b"3")
        before = _segment_hashes(root)
        ddb.checkpoint()
        for i in range(12):
            ddb.put(b"k%02d" % i, b"v%d" % i)
    return before, _segment_hashes(root)


class TestLogBytes:
    def test_a_fixed_script_writes_the_golden_segments(self, tmp_path):
        before, after = _golden_script(tmp_path)
        assert before == GOLDEN_BEFORE_CHECKPOINT
        assert after == GOLDEN_AFTER_CHECKPOINT
        digest = recover(tmp_path).db.digest()
        assert digest.chain_digest.hex() == GOLDEN_CHAIN_DIGEST


class TestCrashInjection:
    def test_drop_writes_after_k_recovers_prefix(self, tmp_path):
        io = CrashyIO(drop_after=600)
        ddb = DurableDatabase.open(tmp_path, io=io)
        for i in range(50):
            ddb.put(b"k%02d" % i, b"v%d" % i)
        io.simulate_crash()
        with DurableDatabase.open(tmp_path) as restored:
            state = dict(restored.scan(b"", b"\xff"))
            count = len(state)
            assert 0 < count < 50
            # The surviving keys are exactly the first `count` puts.
            assert state == {
                b"k%02d" % i: b"v%d" % i for i in range(count)
            }
            assert restored.verify_chain()

    def test_skip_fsync_loses_group_commit_window(self, tmp_path):
        with DurableDatabase.open(tmp_path) as ddb:
            ddb.put(b"durable", b"yes")
        io = CrashyIO(skip_fsync=True)
        ddb = DurableDatabase.open(tmp_path, sync_every=64, io=io)
        for i in range(10):
            ddb.put(b"lost%d" % i, b"v")
        io.simulate_crash()
        with DurableDatabase.open(tmp_path) as restored:
            assert restored.get(b"durable") == b"yes"
            assert restored.get(b"lost3") is None
            assert restored.verify_chain()

    def test_synced_writes_survive_skip_fsync_crash(self, tmp_path):
        io = CrashyIO(skip_fsync=False)
        ddb = DurableDatabase.open(tmp_path, sync_every=1, io=io)
        ddb.put(b"a", b"1")
        ddb.put(b"b", b"2")
        io.simulate_crash()
        with DurableDatabase.open(tmp_path) as restored:
            assert restored.get(b"a") == b"1"
            assert restored.get(b"b") == b"2"

    def test_torn_tail_mid_record(self, tmp_path):
        with DurableDatabase.open(tmp_path) as ddb:
            for i in range(10):
                ddb.put(b"k%d" % i, b"v")
        truncate_wal_stream(tmp_path, wal_stream_length(tmp_path) - 3)
        with DurableDatabase.open(tmp_path) as restored:
            assert restored.last_recovery.torn_tail_dropped
            assert restored.get(b"k8") == b"v"
            assert restored.get(b"k9") is None
            assert restored.verify_chain()

    def test_wiped_wal_after_checkpoint_detected(self, tmp_path):
        with DurableDatabase.open(tmp_path) as ddb:
            _populate(ddb)
            ddb.checkpoint()
            ddb.put(b"post", b"1")
        for _index, path in list_segments(tmp_path):
            path.unlink()
        # Deleting the whole WAL must not recover "clean" at the
        # checkpoint — committed post-checkpoint writes existed — and
        # must not let a fresh log restart LSNs below the checkpoint.
        with pytest.raises(TamperDetectedError):
            recover(tmp_path)
        with pytest.raises(TamperDetectedError):
            DurableDatabase.open(tmp_path)

    def test_deleted_leading_wal_segment_detected(self, tmp_path):
        with DurableDatabase.open(tmp_path, segment_bytes=256) as ddb:
            for i in range(10):
                ddb.put(b"a%d" % i, b"v")
            ddb.checkpoint()
            for i in range(30):
                ddb.put(b"b%d" % i, b"v")
        segments = list_segments(tmp_path)
        assert len(segments) >= 2
        # Remove the first post-checkpoint segment: a middle chunk of
        # committed history vanishes, which replay alone cannot see
        # (re-created blocks chain onto the current tip).
        segments[0][1].unlink()
        with pytest.raises(TamperDetectedError):
            recover(tmp_path)

    def test_untruncated_wal_below_checkpoint_tolerated(self, tmp_path):
        from repro.durability.checkpoint import checkpoint_path, save_database

        # Simulate a crash between writing a checkpoint and truncating
        # the WAL: the checkpoint exists, the full log remains.
        with DurableDatabase.open(tmp_path) as ddb:
            _populate(ddb)
            ddb.sync()
            lsn = ddb.wal.last_lsn
            save_database(ddb.db, checkpoint_path(tmp_path, lsn))
            ddb.put(b"post", b"1")
        report = recover(tmp_path)
        assert report.checkpoint_lsn == lsn
        assert report.replayed == 1  # pre-checkpoint records skipped
        assert report.db.get(b"post") == b"1"
        assert report.db.verify_chain()

    def test_mid_log_corruption_never_loads_silently(self, tmp_path):
        from repro.durability.wal import SEGMENT_HEADER_SIZE

        with DurableDatabase.open(tmp_path) as ddb:
            for i in range(20):
                ddb.put(b"k%d" % i, b"v%d" % i)
        index, path = list_segments(tmp_path)[0]
        # Corrupt the *payload* of the third record: a checksum
        # failure with valid records after it is tampering, not a
        # torn tail.
        blob = path.read_bytes()
        offset = SEGMENT_HEADER_SIZE
        for _skip in range(2):
            length = int.from_bytes(blob[offset:offset + 4], "big")
            offset += 8 + length
        flip_byte(path, offset + 8 + 2)
        with pytest.raises(TamperDetectedError):
            DurableDatabase.open(tmp_path)


class TestOneStatementOneRecord:
    """An UPDATE of many rows is one commit, so one log record: a crash
    anywhere inside its bytes recovers none of its rows or all."""

    @staticmethod
    def _three_rows(root, io=None):
        ddb = DurableDatabase.open(root, io=io)
        ddb.sql("CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))")
        for i in range(3):
            ddb.sql(f"INSERT INTO t (id, v) VALUES ({i}, 0)")
        return ddb

    def test_a_crash_inside_an_update_recovers_none_or_all(self, tmp_path):
        with self._three_rows(tmp_path / "whole") as ddb:
            before = wal_stream_length(tmp_path / "whole")
            ddb.sql("UPDATE t SET v = 1 WHERE v = 0")
            after = wal_stream_length(tmp_path / "whole")
        assert after > before
        for cut in (before + 1, (before + after) // 2, after - 1):
            root = tmp_path / f"cut{cut}"
            io = CrashyIO(drop_after=cut)
            ddb = self._three_rows(root, io=io)
            ddb.sql("UPDATE t SET v = 1 WHERE v = 0")
            io.simulate_crash()
            with DurableDatabase.open(root) as restored:
                values = [row["v"] for row in restored.sql("SELECT v FROM t")]
                assert values == [0, 0, 0], (cut, before, after, values)
                assert restored.verify_chain()
        with DurableDatabase.open(tmp_path / "whole") as restored:
            assert [
                row["v"] for row in restored.sql("SELECT v FROM t")
            ] == [1, 1, 1]


class TestDurableCli:
    def test_init_put_get_checkpoint_recover(self, tmp_path, capsys):
        root = str(tmp_path / "db.d")
        assert cli.main(["init", root]) == 0
        assert cli.main(["put", root, "account:alice", "100"]) == 0
        assert cli.main(["get", root, "account:alice", "--verify"]) == 0
        assert "VERIFIED" in capsys.readouterr().out
        assert cli.main(["checkpoint", root]) == 0
        assert "checkpoint at lsn" in capsys.readouterr().out
        assert cli.main(["put", root, "account:bob", "7"]) == 0
        assert cli.main(["recover", root]) == 0
        out = capsys.readouterr().out
        assert "replayed 1 record" in out and "chain audit clean" in out
        assert cli.main(["audit", root]) == 0

    def test_durable_sql_and_history(self, tmp_path, capsys):
        root = str(tmp_path / "db.d")
        cli.main(["init", root])
        assert cli.main([
            "sql", root, "CREATE TABLE t (id INT, PRIMARY KEY (id))"
        ]) == 0
        assert cli.main(["sql", root, "INSERT INTO t (id) VALUES (7)"]) == 0
        assert cli.main(["sql", root, "SELECT * FROM t"]) == 0
        assert "{'id': 7}" in capsys.readouterr().out

    def test_init_refuses_nonempty_dir(self, tmp_path, capsys):
        """``init`` never reuses a directory: it refuses, and the data
        already there survives the refusal unchanged."""
        root = str(tmp_path / "db.d")
        assert cli.main(["init", root]) == 0
        assert cli.main(["put", root, "k", "v1"]) == 0
        capsys.readouterr()
        assert cli.main(["digest", root]) == 0
        before = capsys.readouterr().out
        assert cli.main(["init", root]) == 1
        assert "refusing" in capsys.readouterr().err
        assert cli.main(["get", root, "k"]) == 0
        assert capsys.readouterr().out.strip() == "v1"
        assert cli.main(["digest", root]) == 0
        assert capsys.readouterr().out == before
        # A directory holding anything at all is refused too.
        other = tmp_path / "other"
        other.mkdir()
        (other / "notes.txt").write_text("keep")
        assert cli.main(["init", str(other)]) == 1
        assert [p.name for p in other.iterdir()] == ["notes.txt"]

    def test_checkpoint_requires_durable(self, tmp_path, capsys):
        """Only a database directory checkpoints: a plain file (such
        as a whole-database snapshot) is refused, not opened."""
        snap = tmp_path / "db.spitz"
        snap.write_bytes(b"SPITZDB7")
        assert cli.main(["checkpoint", str(snap)]) == 1
        assert "no database at" in capsys.readouterr().err
        assert snap.read_bytes() == b"SPITZDB7"

    def test_tampered_wal_exits_3(self, tmp_path, capsys):
        root = tmp_path / "db.d"
        cli.main(["init", str(root)])
        for i in range(10):
            cli.main(["put", str(root), f"k{i}", "v"])
        index, path = list_segments(root)[0]
        flip_byte(path, path.stat().st_size // 2)
        assert cli.main(["get", str(root), "k1"]) == cli.EXIT_TAMPERED
        assert "TAMPER DETECTED" in capsys.readouterr().err


class TestDurableCluster:
    def test_cluster_commits_survive_restart(self, tmp_path):
        root = str(tmp_path / "cluster.d")
        cluster = SpitzCluster(nodes=2, durable_root=root)
        cluster.start()
        try:
            for i in range(8):
                response = cluster.submit(
                    Request(
                        RequestKind.PUT,
                        {"key": b"ck%d" % i, "value": b"v%d" % i},
                    )
                )
                assert response.ok, response.error
        finally:
            cluster.close()
        revived = SpitzCluster(nodes=1, durable_root=root)
        try:
            assert revived.db.get(b"ck3") == b"v3"
            assert revived.db.verify_chain()
            lsn, _path = revived.checkpoint()
            assert lsn > 0
        finally:
            revived.close()

    def test_stop_alone_releases_wal_for_reopen(self, tmp_path):
        root = str(tmp_path / "cluster.d")
        cluster = SpitzCluster(nodes=1, durable_root=root)
        cluster.start()
        response = cluster.submit(
            Request(RequestKind.PUT, {"key": b"k", "value": b"v"})
        )
        assert response.ok, response.error
        cluster.stop()  # stop (without close) must release the handle
        assert cluster.durable.wal._handle is None
        revived = SpitzCluster(nodes=1, durable_root=root)
        try:
            assert revived.db.get(b"k") == b"v"
        finally:
            revived.stop()

    def test_non_durable_cluster_has_no_checkpoint(self):
        cluster = SpitzCluster(nodes=1)
        with pytest.raises(RuntimeError):
            cluster.checkpoint()
        cluster.close()

    def test_a_served_directory_reopens_as_the_same_chain(self, tmp_path):
        """Regression: the cluster built its ledger at one split width
        and ``DurableDatabase.open`` — what ``recover`` and every CLI
        data command use — at another, so a directory with no
        checkpoint yet replayed into other trees, and a client pinned
        to the served digest saw a fork."""
        from repro.core.verifier import ClientVerifier

        root = str(tmp_path / "served.d")
        cluster = SpitzCluster(nodes=1, durable_root=root, sync_every=64)
        try:
            for i in range(64):
                cluster.db.put(b"key-%03d" % i, b"value %d" % i)
            served = cluster.db.digest()
        finally:
            cluster.close()
        assert cluster.db.ledger.tree.height > 1
        with DurableDatabase.open(root) as reopened:
            assert reopened.digest() == served
            verifier = ClientVerifier()
            verifier.trust(served)
            value, proof = reopened.get_verified(b"key-007")
            assert value == b"value 7" and verifier.verify(proof)
        assert recover(root).db.digest() == served


class TestOneWidth:
    def test_every_ledger_building_constructor_defaults_to_one_width(self):
        """A durable directory does not record its split width, so every
        constructor that builds a ledger takes the POS-tree's one
        default."""
        import inspect

        from repro.core.database import SpitzDatabase
        from repro.core.ledger import SpitzLedger
        from repro.indexes.pos_tree import DEFAULT_MASK_BITS, PosTree
        from repro.integration.nonintrusive import (
            NonIntrusiveVDB,
            _LedgerServer,
        )
        from repro.shard import ShardedDatabase

        constructors = [
            SpitzDatabase, SpitzLedger, SpitzCluster, ShardedDatabase,
            PosTree, PosTree.empty, PosTree.from_items, PosTree.load,
        ]
        defaults = {
            getattr(fn, "__qualname__", fn):
                inspect.signature(fn).parameters["mask_bits"].default
            for fn in constructors
        }
        assert set(defaults.values()) == {DEFAULT_MASK_BITS}, defaults
        assert SpitzDatabase().ledger.tree.mask_bits == DEFAULT_MASK_BITS
        # The rest take no width at all.
        for fn in (_LedgerServer, NonIntrusiveVDB):
            assert "mask_bits" not in inspect.signature(fn).parameters
        assert _LedgerServer().ledger.tree.mask_bits == DEFAULT_MASK_BITS
        cluster = SpitzCluster(nodes=1, telemetry=False)
        try:
            assert cluster.db.ledger.tree.mask_bits == DEFAULT_MASK_BITS
        finally:
            cluster.close()
