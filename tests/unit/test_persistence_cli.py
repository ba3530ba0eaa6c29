"""Unit tests for the checkpoint snapshot format and the CLI."""

import pytest

from repro.core.audit import audit_ledger
from repro.core.database import SpitzDatabase
from repro.core.schema import KV_PREFIX
from repro.durability.checkpoint import load_database, save_database
from repro.core.verifier import ClientVerifier
from repro.crypto.hashing import hash_bytes
from repro.forkbase.chunk_store import MAX_CHAIN, ChunkStore, Delta
from repro.indexes.siri import decode_node
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


class TestLiveSet:
    """Unverified reads answer from the version store; a checkpoint's
    version table is accepted only if its live set is the tip tree's
    ``(key → value digest)``, which the chain digest commits to."""

    @pytest.fixture
    def saved(self, snapshot_path):
        db = SpitzDatabase()
        for i in range(20):
            db.put(b"k%02d" % i, b"v%d" % i)
        db.delete(b"k13")
        save_database(db, snapshot_path)
        return db

    def test_an_edited_live_version_is_tamper(self, saved, snapshot_path):
        """The live version of one key edited, the chain and every chunk
        untouched: unverified ``get`` would serve the edit."""
        edited = load_database(snapshot_path)
        versions = edited.txn_manager.store.versions_of(KV_PREFIX + b"k07")
        versions[-1] = Version(versions[-1].commit_ts, b"EDITED", 0)
        assert edited.get(b"k07") == b"EDITED"
        save_database(edited, snapshot_path)
        assert edited.digest() == saved.digest() and edited.verify_chain()
        with pytest.raises(TamperDetectedError, match="k07"):
            load_database(snapshot_path)

    def test_flipping_ledger_only_does_not_skip_the_check(
        self, saved, snapshot_path, monkeypatch
    ):
        """The configuration is not committed to, so an editor can set
        ``ledger_only``; a ledger-only database persists no versions,
        so the edit either goes with them or is refused."""
        edited = load_database(snapshot_path)
        versions = edited.txn_manager.store.versions_of(KV_PREFIX + b"k07")
        versions[-1] = Version(versions[-1].commit_ts, b"EDITED", 0)
        forged = list(edited.persisted_versions())
        edited.ledger_only = True
        save_database(edited, snapshot_path)
        flipped = load_database(snapshot_path)
        assert flipped.ledger_only and flipped.digest() == saved.digest()
        assert flipped.get(b"k07") is None
        assert flipped.get_verified(b"k07")[0] == b"v7"
        # A ledger-only manifest that does carry the versions.
        monkeypatch.setattr(edited, "persisted_versions", lambda: forged)
        save_database(edited, snapshot_path)
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
            "delete": (b"k05", Version.TOMBSTONE),
            "add": (b"k99", b"new"),
        }[edit]
        store.install({KV_PREFIX + key: value}, stamp, txn_id=0)
        save_database(db, snapshot_path)
        with pytest.raises(TamperDetectedError, match="live set"):
            load_database(snapshot_path)


class TestPersistence:
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
        assert blob.startswith(b"SPITZDB8")
        snapshot_path.write_bytes(b"SPITZDB1" + blob[8:])
        monkeypatch.setattr(
            "pickle.Unpickler", lambda *_: pytest.fail("payload was unpickled")
        )
        with pytest.raises(
            FormatVersionError, match="snapshot layout 8 only"
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
        db.put_batch({b"k%05d" % i: bytes(200) + b"%d" % i
                      for i in range(3000)})
        stats = db.chunks.stats
        section = 36 * stats.unique_chunks + stats.physical_bytes

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


_DELTA_BIT = 1 << 31


def _nodes_under(store, address):
    """Addresses of every node under (and including) ``address``."""
    tag, pairs = decode_node(store.get(address))
    found = {address}
    if tag == "B":
        for _key, child in pairs:
            found |= _nodes_under(store, child)
    return found


def _records(blob):
    """``(offset, address, length, delta)`` of every chunk record in a
    layout-8 snapshot: ``magic(8) ‖ digest(32) ‖ manifest length(u64)
    ‖ manifest ‖ (address(32) ‖ length(u32; top bit: a delta) ‖ stored
    bytes)*``."""
    at = 48 + int.from_bytes(blob[40:48], "big")
    out = []
    while at < len(blob):
        length = int.from_bytes(blob[at + 32:at + 36], "big")
        delta = bool(length & _DELTA_BIT)
        length &= ~_DELTA_BIT
        out.append((at, blob[at:at + 32], length, delta))
        at += 36 + length
    assert at == len(blob)
    return out


def _refused(snapshot_path, blob, match=None):
    snapshot_path.write_bytes(blob)
    with pytest.raises(TamperDetectedError, match=match):
        load_database(snapshot_path)


def _restored(blob, at, length, stored, delta=True):
    """``blob`` with the record at ``at`` holding ``stored`` instead."""
    flag = _DELTA_BIT if delta else 0
    head = blob[at:at + 32] + (len(stored) | flag).to_bytes(4, "big")
    return blob[:at] + head + stored + blob[at + 36 + length:]


class TestChunkSection:
    """Layout 8 writes every chunk in its stored form as an ``(address,
    length, bytes)`` record after the manifest; a record is accepted
    only once it rebuilds to bytes of its own hash, and the section
    only whole."""

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
        assert blob.startswith(b"SPITZDB8")
        records = _records(blob)
        assert len(records) == db.chunks.stats.unique_chunks
        restored = load_database(snapshot_path)
        assert dict(restored.chunks.items()) == dict(db.chunks.items())
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
        for at, _address, length, _delta in _records(blob):
            # The address, the length and the bytes of each record.
            for offset in (0, 31, 32, 35, 36, 36 + length // 2, 35 + length):
                flipped = bytearray(blob)
                flipped[at + offset] ^= 0x01
                _refused(snapshot_path, bytes(flipped))

    def test_a_record_cut_short_is_tamper(self, saved, snapshot_path):
        _db, blob = saved
        last, _address, length, _delta = _records(blob)[-1]
        for cut in (last + 10, last + 36, last + 36 + length - 1, last):
            _refused(snapshot_path, blob[:cut])

    def test_a_record_under_another_address_is_tamper(
        self, saved, snapshot_path
    ):
        _db, blob = saved
        (first, a, *_), (second, b, *_) = _records(blob)[:2]
        swapped = bytearray(blob)
        swapped[first:first + 32], swapped[second:second + 32] = b, a
        _refused(snapshot_path, bytes(swapped))
        # A well-formed record the snapshot does not name.
        extra = b"not in the snapshot"
        _refused(
            snapshot_path,
            blob + hash_bytes(extra) + len(extra).to_bytes(4, "big") + extra,
        )


class TestDeltaRecords:
    """Retired nodes are written as the reverse deltas they are stored
    as; each is accepted only once its chain — every base in the
    section, at most ``MAX_CHAIN`` links — rebuilds to bytes that hash
    to its address.  Every forgery below fails that check, before the
    manifest's accounting is consulted."""

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
        return [record for record in _records(blob) if record[3]]

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
        for at, _address, length, _delta in self._deltas(blob):
            flipped = bytearray(blob)
            flipped[at + 36 + 40 + (length - 40) // 2] ^= 0x01
            self._refused(snapshot_path, bytes(flipped))

    def _rebased(self, blob, at, length, base):
        """The delta at ``at`` with its base address replaced."""
        stored = blob[at + 36:at + 36 + length]
        return _restored(blob, at, length, base + stored[32:])

    def _refused(self, snapshot_path, blob):
        _refused(snapshot_path, blob, "does not rebuild")

    def test_a_delta_naming_an_absent_base_is_tamper(
        self, history, snapshot_path
    ):
        _db, blob = history
        at, _address, length, _delta = self._deltas(blob)[0]
        self._refused(
            snapshot_path,
            self._rebased(blob, at, length, hash_bytes(b"absent")),
        )

    def test_a_delta_naming_itself_is_tamper(self, history, snapshot_path):
        _db, blob = history
        at, address, length, _delta = self._deltas(blob)[0]
        self._refused(snapshot_path, self._rebased(blob, at, length, address))

    def test_two_deltas_naming_each_other_are_tamper(
        self, history, snapshot_path
    ):
        _db, blob = history
        _first, (_at, a, _la, _), (at, b, length, _) = self._deltas(blob)[:3]
        # The later record first: rewriting it leaves the earlier one's
        # offset where it was.
        blob = self._rebased(blob, at, length, a)
        at, _a, length, _delta = self._deltas(blob)[1]
        self._refused(snapshot_path, self._rebased(blob, at, length, b))

    def test_a_chain_longer_than_max_chain_is_tamper(
        self, history, snapshot_path
    ):
        """The whole chunk a full-length chain ends on, re-written as a
        correct delta against another chunk: every link rebuilds to the
        right bytes, and the chain is one too long."""
        db, blob = history
        stored = dict(db.chunks.items())

        def end(data, links=0):
            while isinstance(data, Delta):
                data, links = stored[data[:32]], links + 1
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
        assert isinstance(forged, Delta)
        (at, _address, length, _delta), = [
            record for record in _records(blob) if record[1] == tip
        ]
        self._refused(snapshot_path, _restored(blob, at, length, forged))


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
