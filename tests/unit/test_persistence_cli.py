"""Unit tests for the checkpoint snapshot format and the CLI."""

import pytest

from repro.core.audit import audit_ledger
from repro.core.database import SpitzDatabase
from repro.core.schema import KV_PREFIX
from repro.durability.checkpoint import load_database, save_database
from repro.core.verifier import ClientVerifier
from repro.crypto.hashing import hash_bytes
from repro.forkbase.chunk_store import MAX_CHAIN, ChunkStore, Delta
from repro.indexes.siri import decode_node, varint, varint_at
from repro.txn.mvcc import Version
from repro.errors import (
    FormatVersionError,
    StorageError,
    TamperDetectedError,
)
from repro import cli


@pytest.fixture
def snapshot_path(tmp_path):
    return tmp_path / "db.spitz"


@pytest.fixture
def db_dir(tmp_path):
    return tmp_path / "db.d"


def _forge_rows(monkeypatch, db, extra):
    """Make ``db``'s next checkpoint write the version-table rows
    ``extra`` beside its own."""
    rows, stamps = db.persisted_versions()
    monkeypatch.setattr(
        db, "persisted_versions", lambda: (rows + extra, stamps)
    )


class TestLiveSet:
    """Unverified reads answer from the version store; a checkpoint's
    live versions take their keys and value digests from the tip tree,
    which the chain digest commits to, and are accepted only if the
    tip's keys are exactly the keys whose newest version is live."""

    @pytest.fixture
    def saved(self, snapshot_path):
        db = SpitzDatabase()
        for i in range(20):
            db.put(b"k%02d" % i, b"v%d" % i)
        db.delete(b"k13")
        save_database(db, snapshot_path)
        return db

    def test_an_edited_live_version_is_tamper(
        self, saved, snapshot_path, monkeypatch
    ):
        """The live version of one key edited, the chain and every chunk
        untouched: unverified ``get`` would serve the edit.  A checkpoint
        takes a live key's value from the tip, so an edit in memory is
        not written; the one way to write it is a version-table row at
        the live version's timestamp, and that is refused."""
        edited = load_database(snapshot_path)
        store = edited.txn_manager.store
        live = store.read_latest(KV_PREFIX + b"k07")
        store._latest.insert(
            KV_PREFIX + b"k07", Version(live.commit_ts, b"EDITED")
        )
        assert edited.get(b"k07") == b"EDITED"
        save_database(edited, snapshot_path)
        assert load_database(snapshot_path).get(b"k07") == b"v7"
        assert edited.digest() == saved.digest() and edited.verify_chain()
        _forge_rows(monkeypatch, edited, [
            (KV_PREFIX + b"k07", live.commit_ts, edited.chunks.put(b"EDITED"))
        ])
        save_database(edited, snapshot_path)
        with pytest.raises(TamperDetectedError, match="k07"):
            load_database(snapshot_path)

    def test_a_version_row_newer_than_the_tips_is_tamper(
        self, saved, snapshot_path, monkeypatch
    ):
        """A row for a live key, newer than its tip version and holding
        another key's value: it would be that key's newest version."""
        live = saved.versions.read_latest(KV_PREFIX + b"k07")
        _forge_rows(monkeypatch, saved, [
            (KV_PREFIX + b"k07", live.commit_ts + 1, hash_bytes(b"v8"))
        ])
        save_database(saved, snapshot_path)
        with pytest.raises(TamperDetectedError, match="k07"):
            load_database(snapshot_path)

    @pytest.mark.parametrize("edit", ["one too few", "one too many"])
    def test_an_edited_live_stamp_count_is_tamper(
        self, saved, snapshot_path, monkeypatch, edit
    ):
        """One newest timestamp per key the tip holds live, no more and
        no fewer."""
        rows, stamps = saved.persisted_versions()
        stamps = stamps[:-1] if edit == "one too few" else stamps + [1]
        monkeypatch.setattr(
            saved, "persisted_versions", lambda: (rows, stamps)
        )
        save_database(saved, snapshot_path)
        with pytest.raises(TamperDetectedError, match="live set"):
            load_database(snapshot_path)

    @pytest.mark.parametrize("edit", ["resurrect", "delete", "add"])
    def test_a_key_the_tip_does_not_hold_as_live_is_tamper(
        self, saved, snapshot_path, edit
    ):
        db = load_database(snapshot_path)
        store = db.txn_manager.store
        stamp = db.oracle.next_timestamp()
        key, value = {
            "resurrect": (b"k13", b"back"),
            "delete": (b"k05", None),
            "add": (b"k99", b"new"),
        }[edit]
        store.install({KV_PREFIX + key: value}, stamp)
        save_database(db, snapshot_path)
        with pytest.raises(TamperDetectedError, match="live set"):
            load_database(snapshot_path)


class TestPersistence:
    #: ``history``'s checkpoint: its length and SHA-256.
    PINNED = (
        37_044,
        "5f0b69b1287bef71f4a90d6d5608e86f5993835eb9cd8584d161789d46864c80",
    )

    def _db(self):
        db = SpitzDatabase()
        for i in range(50):
            db.put(f"k{i:02d}".encode(), f"v{i}".encode())
        db.sql("CREATE TABLE t (id INT, v STR, PRIMARY KEY (id))")
        db.sql("INSERT INTO t (id, v) VALUES (1, 'one')")
        return db

    def test_round_trip_preserves_digest(self, snapshot_path):
        db = self._db()
        digest = db.digest()
        save_database(db, snapshot_path)
        restored = load_database(snapshot_path)
        assert restored.digest() == digest

    def test_round_trip_preserves_data_paths(self, snapshot_path):
        db = self._db()
        save_database(db, snapshot_path)
        restored = load_database(snapshot_path)
        assert restored.get(b"k25") == b"v25"
        assert restored.sql("SELECT v FROM t WHERE id = 1") == [{"v": "one"}]
        assert [v for _, v in restored.history(b"k25")] == [b"v25"]

    def test_restored_db_still_verifiable(self, snapshot_path):
        db = self._db()
        save_database(db, snapshot_path)
        restored = load_database(snapshot_path)
        verifier = ClientVerifier()
        verifier.trust(restored.digest())
        value, proof = restored.get_verified(b"k10")
        assert value == b"v10"
        assert verifier.verify(proof)
        assert restored.verify_chain()

    def test_restored_db_accepts_writes(self, snapshot_path):
        db = self._db()
        save_database(db, snapshot_path)
        restored = load_database(snapshot_path)
        restored.put(b"new", b"write")
        with restored.transaction() as txn:
            txn.put(b"txn", b"write")
        assert restored.get(b"txn") == b"write"
        assert restored.verify_chain()

    def test_pending_writes_flushed_by_save(self, snapshot_path):
        db = SpitzDatabase(block_batch=100)
        db.put(b"pending", b"v")
        save_database(db, snapshot_path)
        restored = load_database(snapshot_path)
        assert restored.ledger.height == 1

    def test_bitflip_detected(self, snapshot_path):
        save_database(self._db(), snapshot_path)
        blob = bytearray(snapshot_path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        snapshot_path.write_bytes(bytes(blob))
        with pytest.raises(TamperDetectedError):
            load_database(snapshot_path)

    def test_wrong_magic_rejected(self, snapshot_path):
        snapshot_path.write_bytes(b"NOTSPITZ" + b"x" * 64)
        with pytest.raises(StorageError):
            load_database(snapshot_path)

    def test_a_node_format_1_file_is_refused_by_name_not_unpickled(
        self, snapshot_path, db_dir, monkeypatch
    ):
        """A file stamped with an older snapshot layout (here layout 1:
        pickled nodes this build cannot decode) is refused before its
        payload is looked at — by the CLI too, as an operational error."""
        root = str(db_dir)
        cli.main(["init", root])
        cli.main(["put", root, "k01", "v"])
        cli.main(["checkpoint", root])
        (checkpoint,) = db_dir.glob("checkpoint-*.spitz")
        checkpoint.write_bytes(b"SPITZDB1" + checkpoint.read_bytes()[8:])
        save_database(self._db(), snapshot_path)
        blob = snapshot_path.read_bytes()
        assert blob.startswith(b"SPITZ014")
        snapshot_path.write_bytes(b"SPITZDB1" + blob[8:])
        monkeypatch.setattr(
            "pickle.Unpickler", lambda *_: pytest.fail("payload was unpickled")
        )
        with pytest.raises(
            FormatVersionError, match="snapshot layout 14 only"
        ):
            load_database(snapshot_path)
        assert issubclass(FormatVersionError, StorageError)
        assert cli.main(["get", root, "k01"]) == 1  # operational, not tamper

    def test_a_layout_2_file_is_refused_by_name(
        self, snapshot_path, monkeypatch
    ):
        """Layout 2 pickled the cell store's indexes and universal keys
        beside the version store; this build keeps versions once."""
        save_database(self._db(), snapshot_path)
        blob = snapshot_path.read_bytes()
        snapshot_path.write_bytes(b"SPITZDB2" + blob[8:])
        monkeypatch.setattr(
            "pickle.Unpickler", lambda *_: pytest.fail("payload was unpickled")
        )
        with pytest.raises(
            FormatVersionError, match="snapshot in layout 2"
        ):
            load_database(snapshot_path)

    def test_a_layout_3_file_is_refused_by_name(
        self, snapshot_path, monkeypatch
    ):
        """Layout 3 holds its index nodes in node layout v2 (u32 key
        lengths, no shared prefix); this build decodes v3 only."""
        save_database(self._db(), snapshot_path)
        blob = snapshot_path.read_bytes()
        snapshot_path.write_bytes(b"SPITZDB3" + blob[8:])
        monkeypatch.setattr(
            "pickle.Unpickler", lambda *_: pytest.fail("payload was unpickled")
        )
        with pytest.raises(FormatVersionError, match="snapshot in layout 3"):
            load_database(snapshot_path)

    def test_a_layout_4_file_is_refused_by_name(
        self, snapshot_path, monkeypatch
    ):
        """Layout 4 pickled a record per chunk (bytes and a reference
        count); this build's chunk store maps an address to its bytes."""
        save_database(self._db(), snapshot_path)
        blob = snapshot_path.read_bytes()
        snapshot_path.write_bytes(b"SPITZDB4" + blob[8:])
        monkeypatch.setattr(
            "pickle.Unpickler", lambda *_: pytest.fail("payload was unpickled")
        )
        with pytest.raises(FormatVersionError, match="snapshot in layout 4"):
            load_database(snapshot_path)

    def test_a_layout_5_file_is_refused_by_name(
        self, snapshot_path, monkeypatch
    ):
        """Layout 5 pickled the chunk store inside the object graph;
        this build writes chunks as records each checked by its hash."""
        save_database(self._db(), snapshot_path)
        blob = snapshot_path.read_bytes()
        snapshot_path.write_bytes(b"SPITZDB5" + blob[8:])
        monkeypatch.setattr(
            "pickle.Unpickler", lambda *_: pytest.fail("payload was unpickled")
        )
        with pytest.raises(FormatVersionError, match="snapshot in layout 5"):
            load_database(snapshot_path)

    def test_a_layout_6_file_is_refused_by_name(
        self, snapshot_path, monkeypatch
    ):
        """Layout 6 wrote every chunk whole; this build writes a retired
        node as the delta it is stored as, with a flag in its length."""
        save_database(self._db(), snapshot_path)
        blob = snapshot_path.read_bytes()
        snapshot_path.write_bytes(b"SPITZDB6" + blob[8:])
        monkeypatch.setattr(
            "pickle.Unpickler", lambda *_: pytest.fail("payload was unpickled")
        )
        with pytest.raises(FormatVersionError, match="snapshot in layout 6"):
            load_database(snapshot_path)

    def test_a_layout_7_file_is_refused_by_name(
        self, snapshot_path, monkeypatch
    ):
        """Layout 7 pickled the database's object graph ahead of the
        chunk section; this build writes a manifest of what cannot be
        derived and checks what it derives against the tip tree."""
        save_database(self._db(), snapshot_path)
        blob = snapshot_path.read_bytes()
        snapshot_path.write_bytes(b"SPITZDB7" + blob[8:])
        monkeypatch.setattr(
            "pickle.Unpickler", lambda *_: pytest.fail("payload was unpickled")
        )
        with pytest.raises(FormatVersionError, match="snapshot in layout 7"):
            load_database(snapshot_path)

    def test_a_layout_8_file_is_refused_by_name(self, snapshot_path):
        """Layout 8's manifest carried a ``ledger_only`` byte that no
        digest commits to; layout 9 has no such mode to persist."""
        save_database(self._db(), snapshot_path)
        blob = snapshot_path.read_bytes()
        snapshot_path.write_bytes(b"SPITZDB8" + blob[8:])
        with pytest.raises(
            FormatVersionError,
            match="snapshot in layout 8; .* snapshot layout 14 only",
        ):
            load_database(snapshot_path)

    def test_a_layout_9_file_is_refused_by_name(self, snapshot_path):
        """Layout 9 held nodes in the columnar layout v3, which this
        build's row-major codec does not read.  Layout 10 is the first
        with a three-digit stamp, so the name check reads both kinds."""
        save_database(self._db(), snapshot_path)
        blob = snapshot_path.read_bytes()
        assert blob.startswith(b"SPITZ014")
        snapshot_path.write_bytes(b"SPITZDB9" + blob[8:])
        with pytest.raises(
            FormatVersionError,
            match="snapshot in layout 9; .* snapshot layout 14 only",
        ):
            load_database(snapshot_path)
        snapshot_path.write_bytes(b"SPITZ015" + blob[8:])
        with pytest.raises(FormatVersionError, match="snapshot in layout 15"):
            load_database(snapshot_path)

    def test_a_layout_10_file_is_refused_by_name(self, snapshot_path):
        """Layout 10 committed search postings in per-column trees
        beside the ledger; later layouts commit them as ledger keys."""
        save_database(self._db(), snapshot_path)
        blob = snapshot_path.read_bytes()
        snapshot_path.write_bytes(b"SPITZ010" + blob[8:])
        with pytest.raises(
            FormatVersionError,
            match="snapshot in layout 10; .* snapshot layout 14 only",
        ):
            load_database(snapshot_path)

    def test_a_layout_11_file_is_refused_by_name(self, snapshot_path):
        """Layout 11 held every delta as one hunk; layout 12 may cut a
        delta's middle into several."""
        save_database(self._db(), snapshot_path)
        blob = snapshot_path.read_bytes()
        snapshot_path.write_bytes(b"SPITZ011" + blob[8:])
        with pytest.raises(
            FormatVersionError,
            match="snapshot in layout 11; .* snapshot layout 14 only",
        ):
            load_database(snapshot_path)

    def test_layout_12_is_refused_by_name(self, snapshot_path):
        """Layout 12 wrote each chunk record's address and each live
        version's key and value digest; layout 13 derives them."""
        save_database(self._db(), snapshot_path)
        blob = snapshot_path.read_bytes()
        snapshot_path.write_bytes(b"SPITZ012" + blob[8:])
        with pytest.raises(
            FormatVersionError,
            match="snapshot in layout 12; .* snapshot layout 14 only",
        ):
            load_database(snapshot_path)

    def test_layout_13_is_refused_by_name(self, snapshot_path):
        """Layout 13 named each delta's base by its 32-byte address;
        layout 14 names it by its record's position."""
        save_database(self._db(), snapshot_path)
        blob = snapshot_path.read_bytes()
        snapshot_path.write_bytes(b"SPITZ013" + blob[8:])
        with pytest.raises(
            FormatVersionError,
            match="snapshot in layout 13; .* snapshot layout 14 only",
        ):
            load_database(snapshot_path)

    @pytest.fixture
    def history(self):
        """400 keys, 60 overwrites and a delete: older versions, a
        newest delete and retired nodes stored as deltas."""
        db = SpitzDatabase()
        db.put_batch({b"k%03d" % i: b"value %d" % i for i in range(400)})
        for round_ in range(60):
            db.put(b"k%03d" % (round_ * 7 % 400), b"round %d" % round_)
        db.delete(b"k005")
        return db

    def test_save_load_save_writes_the_same_bytes(
        self, history, snapshot_path, tmp_path
    ):
        """Load keeps the records in their order and derives what it
        does not read, so saving what it loaded writes the same file."""
        save_database(history, snapshot_path)
        again = tmp_path / "again.spitz"
        save_database(load_database(snapshot_path), again)
        assert again.read_bytes() == snapshot_path.read_bytes()

    def test_the_layout_is_pinned(self, history, snapshot_path):
        """One fixed history's checkpoint, byte for byte: a change to
        the layout shows here first."""
        import hashlib

        size = save_database(history, snapshot_path)
        assert (size, hashlib.sha256(
            snapshot_path.read_bytes()
        ).hexdigest()) == self.PINNED

    def test_save_and_load_hold_one_copy_of_the_payload(self, snapshot_path):
        """The chunk section is streamed record by record both ways and
        the manifest is built, hashed and parsed as it is — no blob of
        the whole file on save, no slice of it on load — so saving holds
        the manifest once and none of the section, and loading holds one
        copy of the chunks: the store's own."""
        import gc
        import tracemalloc

        from repro.durability import checkpoint

        db = SpitzDatabase()
        # Older versions: the version table holds a row for each.
        db.put_batch({b"k%05d" % i: b"old %d" % i for i in range(3000)})
        db.put_batch({b"k%05d" % i: bytes(200) + b"%d" % i
                      for i in range(3000)})
        section = sum(
            len(varint(len(data) << 1)) + len(data)
            for _address, data in db.chunks.items()
        )

        def growth(work):
            """(peak growth, growth kept, result) of ``work()``."""
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = work()
            gc.collect()
            current, peak = tracemalloc.get_traced_memory()
            return peak - base, current - base, result

        tracemalloc.start()
        try:
            size = save_database(db, snapshot_path)
            manifest = size - 48 - section
            data = snapshot_path.read_bytes()[48:48 + manifest]
            building, _kept, _bytes = growth(lambda: checkpoint._manifest(db))
            parsing, _kept, _parsed = growth(
                lambda: checkpoint._Manifest(data)
            )
            del data, _bytes, _parsed
            writing, _kept, _size = growth(
                lambda: save_database(db, snapshot_path)
            )
            loading, kept, restored = growth(
                lambda: load_database(snapshot_path)
            )
        finally:
            tracemalloc.stop()
        assert section > 500_000 and manifest > 100_000
        # Past building the manifest, saving holds nothing section-sized
        # (a joined blob would be a copy of the whole file)...
        assert writing - building < 0.25 * section
        # ...and loading, past what the restored database keeps (the
        # store among it: the one copy of the section) and what parsing
        # the manifest costs anyway, holds the manifest's bytes about
        # once (a slice would be twice, the whole file more).
        assert loading - kept - parsing < 1.5 * manifest
        assert kept > section
        assert restored.get(b"k00007") == bytes(200) + b"7"


def _nodes_under(store, address):
    """Addresses of every node under (and including) ``address``."""
    tag, pairs = decode_node(store.get(address))
    found = {address}
    if tag == "B":
        for _key, child in pairs:
            found |= _nodes_under(store, child)
    return found


def _records(blob):
    """``(offset, address, head, length, delta)`` of every chunk record
    in a layout-14 snapshot: ``magic(8) ‖ digest(32) ‖ manifest
    length(u64) ‖ manifest ‖ (varint(length << 1 | delta) ‖ stored
    bytes)*``; ``head`` is the varint's width, and the address, written
    nowhere, the one a load derives."""
    at = 48 + int.from_bytes(blob[40:48], "big")
    out = []
    while at < len(blob):
        word, start = varint_at(blob, at)
        out.append((at, start - at, word >> 1, bool(word & 1)))
        at = start + (word >> 1)
    assert at == len(blob)
    addresses = ChunkStore().load(
        (blob[at + head:at + head + length], delta)
        for at, head, length, delta in out
    )
    return [
        (at, address, head, length, delta)
        for (at, head, length, delta), address in zip(out, addresses)
    ]


def _refused(snapshot_path, blob, match=None):
    snapshot_path.write_bytes(blob)
    with pytest.raises(TamperDetectedError, match=match):
        load_database(snapshot_path)


def _restored(blob, record, stored, delta=True):
    """``blob`` with ``record`` (one of :func:`_records`) holding
    ``stored`` instead."""
    at, _address, head, length, _delta = record
    return b"".join((
        blob[:at], varint(len(stored) << 1 | delta), stored,
        blob[at + head + length:],
    ))


class TestChunkSection:
    """Layout 14 writes every chunk in its stored form as a ``(length,
    bytes)`` record after the manifest, its address derived on load:
    the section is accepted only once every record rebuilds and the
    addresses derived are the ones the manifest names, in its order."""

    @pytest.fixture
    def saved(self, snapshot_path):
        db = SpitzDatabase()
        for i in range(40):
            db.put(b"k%02d" % i, b"value %d" % i)
        save_database(db, snapshot_path)
        return db, snapshot_path.read_bytes()

    def test_a_round_trip_keeps_every_chunk_and_the_chain(
        self, saved, snapshot_path
    ):
        db, blob = saved
        assert blob.startswith(b"SPITZ014")
        records = _records(blob)
        assert len(records) == db.chunks.stats.unique_chunks
        assert [record[1] for record in records] == list(db.chunks.addresses())
        restored = load_database(snapshot_path)
        assert list(restored.chunks.items()) == list(db.chunks.items())
        assert restored.chunks.stats == db.chunks.stats
        assert restored.chunks.tracer is restored.metrics.tracer
        assert restored.ledger.chunks is restored.chunks
        assert restored.digest() == db.digest()
        # The decode cache is derived: load walks the tip tree to check
        # the live set, so it holds the tip's nodes and the empty leaf
        # every ledger starts from, each decoded from its chunk.
        cache = restored.chunks.decode_cache
        tip = _nodes_under(restored.chunks, db.ledger.tree.root)
        assert set(cache) == tip | {SpitzDatabase().ledger.tree.root}
        assert all(
            decode_node(restored.chunks.get(address)) == node
            for address, node in cache.items()
        )

    def test_a_flipped_byte_in_any_chunk_record_is_tamper(
        self, saved, snapshot_path
    ):
        _db, blob = saved
        for at, _address, head, length, _delta in _records(blob):
            # The head (its delta flag and a length bit), then the first,
            # a middle and the last of the bytes of each record.
            for offset, bit in (
                (0, 0x01), (0, 0x02), (head, 0x01),
                (head + length // 2, 0x01), (head + length - 1, 0x01),
            ):
                flipped = bytearray(blob)
                flipped[at + offset] ^= bit
                _refused(snapshot_path, bytes(flipped))

    def test_a_record_cut_short_is_tamper(self, saved, snapshot_path):
        _db, blob = saved
        last, _address, head, length, _delta = _records(blob)[-1]
        for cut in (last + 1, last + head, last + head + length - 1, last):
            _refused(snapshot_path, blob[:cut])

    def test_a_record_under_another_address_is_tamper(
        self, saved, snapshot_path
    ):
        """A record's address is its place in the manifest's list: two
        records swapped, one written twice or one the snapshot does not
        name all load chunks under addresses it does not name there."""
        _db, blob = saved
        first, second = _records(blob)[1:3]
        one = blob[first[0]:second[0]]
        two = blob[second[0]:second[0] + second[2] + second[3]]
        end = second[0] + len(two)
        _refused(snapshot_path, blob[:first[0]] + two + one + blob[end:])
        _refused(snapshot_path, blob[:end] + two + blob[end:])
        extra = b"not in the snapshot"
        _refused(snapshot_path, blob + varint(len(extra) << 1) + extra)

    def test_a_flipped_byte_in_history_no_tip_walk_reaches_is_tamper(
        self, snapshot_path
    ):
        """Load walks the tip tree and reads each version's value; a
        retired node is neither, and its damage is caught only by the
        addresses the section rebuilds to."""
        db = SpitzDatabase()
        db.put_batch({b"k%02d" % i: b"value %d" % i for i in range(40)})
        for round_ in range(30):
            db.put(b"k33", b"round %02d" % round_)
        save_database(db, snapshot_path)
        blob = snapshot_path.read_bytes()
        reached = _nodes_under(db.chunks, db.ledger.tree.root) | {
            hash_bytes(version.value)
            for _key, version in db.versions.all_versions()
        }
        history = [
            record for record in _records(blob) if record[1] not in reached
        ]
        assert {record[4] for record in history} == {True, False}
        for at, _address, head, length, _delta in history:
            flipped = bytearray(blob)
            flipped[at + head + length - 1] ^= 0x01
            _refused(snapshot_path, bytes(flipped))


class TestDeltaRecords:
    """Retired nodes are written as the reverse deltas they are stored
    as, each naming its base by the base's record position; each is
    accepted only once its chain — every base in the section, at most
    ``MAX_CHAIN`` links — rebuilds, and the bytes it rebuilds to hash to
    the address the manifest names in its place.  Every forgery below
    fails that check, before the manifest's accounting is consulted,
    and the loader names the forged record."""

    @pytest.fixture
    def history(self, snapshot_path):
        """Thirty overwrites of one key: one of its leaf's versions
        ends a chain of the full ``MAX_CHAIN`` links."""
        db = SpitzDatabase()
        db.put_batch({b"k%02d" % i: b"value %d" % i for i in range(40)})
        for round_ in range(30):
            db.put(b"k33", b"round %02d" % round_)
        save_database(db, snapshot_path)
        return db, snapshot_path.read_bytes()

    @staticmethod
    def _deltas(blob):
        return [record for record in _records(blob) if record[4]]

    @staticmethod
    def _unnamed(blob):
        """``(position, record)`` of each delta no delta names as its
        base: a forgery there fails that record alone."""
        records = _records(blob)
        stored = [blob[at + head:at + head + length]
                  for at, _address, head, length, _delta in records]
        named = {
            Delta(data).head()[0]
            for data, record in zip(stored, records) if record[4]
        }
        return [
            (position, record) for position, record in enumerate(records)
            if record[4] and position not in named
        ]

    def test_a_round_trip_keeps_every_delta_and_the_audit_clean(
        self, history, snapshot_path
    ):
        db, blob = history
        stored = dict(db.chunks.items())
        assert len(self._deltas(blob)) == sum(
            isinstance(data, Delta) for data in stored.values()
        ) > 16
        restored = load_database(snapshot_path)
        assert dict(restored.chunks.items()) == stored
        assert restored.chunks.stats.physical_bytes == sum(
            map(len, stored.values())
        ) == db.chunks.stats.physical_bytes
        assert restored.digest() == db.digest()
        assert audit_ledger(restored.ledger) == []
        # Every block's version of the key, read through the chains.
        assert [
            restored.get_at_block(b"k33", height)
            for height in range(restored.ledger.height)
        ] == [b"value 33"] + [b"round %02d" % r for r in range(30)]

    def test_a_flipped_byte_in_a_deltas_middle_is_tamper(
        self, history, snapshot_path
    ):
        _db, blob = history
        for at, _address, head, length, _delta in self._deltas(blob):
            body = Delta(blob[at + head:at + head + length]).head()[3]
            flipped = bytearray(blob)
            flipped[at + head + body + (length - body) // 2] ^= 0x01
            self._refused(snapshot_path, bytes(flipped))

    @staticmethod
    def _forged(blob, record, head):
        """The delta ``record`` with the varint of the position it
        names replaced by ``head(that position, the varint's width)``."""
        at, _address, width, length, _delta = record
        stored = blob[at + width:at + width + length]
        position, cut = varint_at(stored, 0, len(blob))
        return _restored(blob, record, head(position, cut) + stored[cut:])

    def _rebased(self, blob, record, base):
        """The delta ``record`` naming the record at ``base``."""
        return self._forged(blob, record, lambda *_: varint(base))

    def _refused(self, snapshot_path, blob, position=None):
        """Refused, the load naming the record at ``position``."""
        _refused(snapshot_path, blob, (
            "does not rebuild" if position is None
            else f"chunk record {position} does not rebuild"
        ))

    def test_a_delta_naming_an_absent_base_is_tamper(
        self, history, snapshot_path
    ):
        """A position past the section: no record is its base."""
        _db, blob = history
        (position, record), *_ = self._unnamed(blob)
        self._refused(snapshot_path, self._rebased(
            blob, record, len(_records(blob))
        ), position)

    def test_a_delta_naming_itself_is_tamper(self, history, snapshot_path):
        _db, blob = history
        (position, record), *_ = self._unnamed(blob)
        self._refused(
            snapshot_path, self._rebased(blob, record, position), position
        )

    def test_two_deltas_naming_each_other_are_tamper(
        self, history, snapshot_path
    ):
        _db, blob = history
        (first, one), (second, two), *_ = self._unnamed(blob)
        # The later record first: rewriting it leaves the earlier one's
        # offset where it was.
        blob = self._rebased(blob, two, first)
        self._refused(
            snapshot_path, self._rebased(blob, one, second), first
        )

    def test_a_head_cut_short_is_tamper(self, history, snapshot_path):
        """The head less its last byte, or the base's position and a
        lone continuation byte: the record ends before its head's three
        numbers do."""
        _db, blob = history
        (position, record), *_ = self._unnamed(blob)
        at, _address, width, length, _delta = record
        stored = blob[at + width:at + width + length]
        body = Delta(stored).head()[3]
        for cut in (stored[:body - 1], varint(position) + b"\x80"):
            self._refused(
                snapshot_path, _restored(blob, record, cut), position
            )

    def test_a_head_that_is_not_minimal_is_tamper(
        self, history, snapshot_path
    ):
        """The base's position padded with a zero continuation: every
        byte rebuilds as before, and the record is refused all the same,
        so each delta has one stored form."""
        _db, blob = history
        (position, record), *_ = self._unnamed(blob)

        def padded(base, _cut):
            minimal = varint(base)
            return minimal[:-1] + bytes((minimal[-1] | 0x80, 0))

        self._refused(
            snapshot_path, self._forged(blob, record, padded), position
        )

    def test_a_chain_longer_than_max_chain_is_tamper(
        self, history, snapshot_path
    ):
        """The whole chunk a full-length chain ends on, re-written as a
        correct delta against another chunk: every link rebuilds to the
        right bytes, and the chain is one too long."""
        db, blob = history
        stored = dict(db.chunks.items())
        order = list(stored)

        def end(data, links=0):
            while isinstance(data, Delta):
                data, links = stored[order[data.head()[0]]], links + 1
            return data, links

        ends = {
            hash_bytes(whole)
            for whole, links in map(end, stored.values())
            if links == MAX_CHAIN
        }
        assert ends
        tip = next(iter(ends))
        other = next(
            address for address, data in stored.items()
            if type(data) is bytes and address != tip
            and len(data) == len(stored[tip])
        )
        scratch = ChunkStore()
        scratch.put(stored[tip])
        scratch.put(stored[other])
        scratch.supersede(tip, other)
        forged = dict(scratch.items())[tip]
        assert isinstance(forged, Delta) and forged.head()[0] == 1
        (record,) = [
            record for record in _records(blob) if record[1] == tip
        ]
        # Named, as in the section, by the position of ``other``.
        forged = varint(order.index(other)) + forged[1:]
        self._refused(snapshot_path, _restored(blob, record, forged))


class TestCli:
    def test_init_put_get_verify(self, db_dir, capsys):
        path = str(db_dir)
        assert cli.main(["init", path]) == 0
        assert cli.main(["put", path, "account:alice", "100"]) == 0
        assert cli.main(["get", path, "account:alice", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out and "100" in out

    def test_init_refuses_overwrite(self, tmp_path, capsys):
        """An existing file is never overwritten (a database is a
        directory; TestDurableCli covers an existing one)."""
        plain = tmp_path / "notes.txt"
        plain.write_text("keep me")
        assert cli.main(["init", str(plain)]) == 1
        assert "refusing" in capsys.readouterr().err
        assert plain.read_text() == "keep me"

    def test_get_absent(self, db_dir, capsys):
        path = str(db_dir)
        cli.main(["init", path])
        assert cli.main(["get", path, "ghost"]) == 0
        assert "(absent)" in capsys.readouterr().out

    def test_sql_and_scan(self, db_dir, capsys):
        path = str(db_dir)
        cli.main(["init", path])
        assert cli.main([
            "sql", path, "CREATE TABLE t (id INT, PRIMARY KEY (id))"
        ]) == 0
        assert cli.main(["sql", path, "INSERT INTO t (id) VALUES (7)"]) == 0
        assert cli.main(["sql", path, "SELECT * FROM t"]) == 0
        out = capsys.readouterr().out
        assert "{'id': 7}" in out and "(1 rows)" in out

    def test_history_and_delete(self, db_dir, capsys):
        path = str(db_dir)
        cli.main(["init", path])
        cli.main(["put", path, "k", "v1"])
        cli.main(["put", path, "k", "v2"])
        cli.main(["delete", path, "k"])
        assert cli.main(["get", path, "k"]) == 0
        assert cli.main(["history", path, "k"]) == 0
        out = capsys.readouterr().out
        assert "(absent)" in out
        assert "v1" in out and "v2" in out

    def test_audit_and_digest(self, db_dir, capsys):
        path = str(db_dir)
        cli.main(["init", path])
        cli.main(["put", path, "a", "1"])
        assert cli.main(["audit", path]) == 0
        assert cli.main(["digest", path]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "height: 1" in out

    def test_indexed_init_then_verified_search_and_mget(
        self, db_dir, capsys
    ):
        """``init --index`` on a directory: every later invocation
        recovers the same indexed chain, so a verified search in a
        later invocation checks out."""
        path = str(db_dir)
        assert cli.main(["init", path, "--index", "items.price"]) == 0
        assert cli.main([
            "sql", path,
            "CREATE TABLE items (id INT, price INT, PRIMARY KEY (id))",
        ]) == 0
        for pk, price in [(1, 5), (2, 15), (3, 25)]:
            assert cli.main([
                "sql", path,
                f"INSERT INTO items (id, price) VALUES ({pk}, {price})",
            ]) == 0
        capsys.readouterr()
        assert cli.main(
            ["search", path, "items.price", ">= 10", "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "[VERIFIED; 2 matches," in out
        assert "items.price\t2\t@" in out and "items.price\t3\t@" in out
        assert cli.main(["put", path, "a", "1"]) == 0
        assert cli.main(["mget", path, "a", "b", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "a\t1\nb\t(absent)\n[VERIFIED; one multiproof" in out

    def test_remote_search_shares_the_verified_rendering(self, capsys):
        from repro.serve.server import serve_cluster

        service = serve_cluster(nodes=1, indexed_columns=["t.v"])
        try:
            db = service.cluster.db
            db.sql("CREATE TABLE t (a INT, v INT, PRIMARY KEY (a))")
            db.sql("INSERT INTO t (a, v) VALUES (1, 42)")
            assert cli.main([
                "search", "t.v", "== 42", "--port", str(service.port),
                "--verify",
            ]) == 0
            out = capsys.readouterr().out
            assert "t.v\t1\t@" in out
            assert "[VERIFIED; 1 matches," in out and "over the wire]" in out
            assert cli.main(["search", "t.v", "== 42"]) == 1
            assert "needs a DB path" in capsys.readouterr().err
        finally:
            service.stop()

    def test_missing_db_errors(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.d")
        assert cli.main(["get", missing, "k"]) == 1
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "nope.d").exists()

    @pytest.mark.parametrize("argv", [
        ["get", "{db}", "k"],
        ["get", "{db}", "k", "--verify"],
        ["mget", "{db}", "a", "b"],
        ["put", "{db}", "k", "v"],
        ["delete", "{db}", "k"],
        ["scan", "{db}", "a", "z"],
        ["history", "{db}", "k"],
        ["sql", "{db}", "SELECT * FROM t"],
        ["search", "{db}", "t.v", ">= 1"],
        ["digest", "{db}"],
        ["audit", "{db}"],
        ["stats", "{db}"],
        ["checkpoint", "{db}"],
        ["recover", "{db}"],
    ], ids=lambda argv: argv[0] + ("-verify" if "--verify" in argv else ""))
    def test_a_directory_that_is_not_a_database_is_refused_untouched(
        self, tmp_path, capsys, argv
    ):
        """Only ``init`` makes a database: every other subcommand
        refuses a directory holding no log and no checkpoint, and
        leaves it exactly as it was (opening would start a log)."""
        stray = tmp_path / "stray"
        stray.mkdir()
        (stray / "notes.txt").write_text("not a database")
        empty = tmp_path / "empty"
        empty.mkdir()
        for root in (empty, stray):
            before = sorted(p.name for p in root.iterdir())
            args = [part.format(db=root) for part in argv]
            assert cli.main(args) == 1
            err = capsys.readouterr().err
            assert f"no database at {root}; run 'init {root}' first" in err
            assert sorted(p.name for p in root.iterdir()) == before

    def test_verification_failure_exit_code(self, db_dir, capsys):
        # A key that is absent still verifies (absence proof), so to
        # exercise the failure path we check the exit code contract on
        # a healthy read instead and rely on tamper tests elsewhere.
        path = str(db_dir)
        cli.main(["init", path])
        cli.main(["put", path, "k", "v"])
        assert cli.main(["get", path, "k", "--verify"]) == 0


class TestCliExitCodes:
    """Tampering is distinguishable from operational failure by exit
    code alone: 1 for ordinary errors, 3 for detected tampering."""

    def test_operational_error_exits_1(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.d")
        assert cli.main(["get", missing, "k"]) == 1
        err = capsys.readouterr().err
        assert "error" in err and "TAMPER" not in err

    def test_tampered_snapshot_exits_3(self, db_dir, capsys):
        path = str(db_dir)
        cli.main(["init", path])
        for i in range(20):
            cli.main(["put", path, f"k{i}", "v"])
        cli.main(["checkpoint", path])
        (snapshot_path,) = db_dir.glob("checkpoint-*.spitz")
        blob = bytearray(snapshot_path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        snapshot_path.write_bytes(bytes(blob))
        assert cli.main(["get", path, "k1"]) == cli.EXIT_TAMPERED
        assert "TAMPER DETECTED" in capsys.readouterr().err

    def test_exit_codes_are_distinct(self):
        assert cli.EXIT_TAMPERED == 3
        assert cli.EXIT_TAMPERED != 1
