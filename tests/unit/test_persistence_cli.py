"""Unit tests for the checkpoint snapshot format and the CLI."""

import pytest

from repro.core.database import SpitzDatabase
from repro.durability.checkpoint import load_database, save_database
from repro.core.verifier import ClientVerifier
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
        assert blob.startswith(b"SPITZDB3")
        snapshot_path.write_bytes(b"SPITZDB1" + blob[8:])
        monkeypatch.setattr(
            "pickle.loads", lambda *_: pytest.fail("payload was unpickled")
        )
        with pytest.raises(
            FormatVersionError, match="snapshot layout 3 only"
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
            "pickle.loads", lambda *_: pytest.fail("payload was unpickled")
        )
        with pytest.raises(
            FormatVersionError, match="snapshot in layout 2"
        ):
            load_database(snapshot_path)

    def test_save_and_load_hold_one_copy_of_the_payload(
        self, snapshot_path, monkeypatch
    ):
        """Header and payload are written, hashed and unpickled as they
        are — no ``magic + digest + payload`` join on save, no
        ``blob[40:]`` slice on load — so each holds one copy of the
        payload, not two."""
        import gc
        import pickle
        import tracemalloc

        db = SpitzDatabase()
        db.put_batch({b"k%05d" % i: bytes(200) + b"%d" % i
                      for i in range(3000)})
        dumped = {}
        plain_dumps = pickle.dumps

        def dumps(*args, **kwargs):
            payload = plain_dumps(*args, **kwargs)
            tracemalloc.reset_peak()
            dumped["at"] = tracemalloc.get_traced_memory()[0]
            return payload

        def growth(work):
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = work()
            return tracemalloc.get_traced_memory()[1] - base, result

        monkeypatch.setattr(pickle, "dumps", dumps)
        tracemalloc.start()
        try:
            payload = save_database(db, snapshot_path) - 40
            writing = tracemalloc.get_traced_memory()[1] - dumped["at"]
            data = snapshot_path.read_bytes()[40:]
            unpickling, _db = growth(lambda: pickle.loads(data))
            del data, _db
            loading, restored = growth(
                lambda: load_database(snapshot_path)
            )
        finally:
            tracemalloc.stop()
        assert payload > 1_000_000
        # Past the pickle, saving holds nothing payload-sized (a joined
        # blob would be a whole second copy)...
        assert writing < 0.25 * payload
        # ...and loading holds the file's payload once on top of what
        # unpickling that payload costs anyway (a slice would be twice).
        assert loading - unpickling < 1.5 * payload
        assert restored.get(b"k00007") == bytes(200) + b"7"


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
