"""Unit tests for the virtual cell store: a view of the version store."""

from repro.core.cell_store import CellStore, parse_logical_key
from repro.core.database import SpitzDatabase
from repro.crypto.hashing import hash_bytes
from repro.txn.mvcc import MVCCStore

KEY = b"t\x00t\x00col\x00pk"  # table "t", column "col", primary key "pk"


class _Cells:
    """A version store and the cell view over it."""

    def __init__(self):
        self.store = MVCCStore()
        self.cells = CellStore(self.store)

    def put(self, key, timestamp, value):
        self.store.install({key: value}, timestamp)


class TestCellStore:
    def test_put_then_latest(self):
        view = _Cells()
        view.put(KEY, 1, b"v1")
        cell = view.cells.latest(KEY)
        assert cell.value == b"v1"
        assert (cell.ukey.column, cell.ukey.primary_key) == (
            parse_logical_key(KEY)
        )

    def test_a_cell_is_keyed_by_its_chunk_address_hashed_once(
        self, monkeypatch
    ):
        """The universal key carries "the hash of its value": the
        address the ledger stored the value under.  A put hashes the
        value once (its one chunk put); the view hashes it once more,
        only when asked for the cell."""
        from repro.core import cell_store
        from repro.forkbase import chunk_store

        calls = []
        for module in (chunk_store, cell_store):
            plain = module.hash_bytes
            monkeypatch.setattr(
                module, "hash_bytes",
                lambda data, plain=plain: calls.append(data) or plain(data),
            )
        db = SpitzDatabase()
        db.put(b"pk", b"value")
        assert calls.count(b"value") == 1
        cell = db.cells.latest(b"k\x00pk")
        assert calls.count(b"value") == 2
        assert cell.ukey.value_hash == hash_bytes(b"value")
        assert db.chunks.get(cell.ukey.value_hash) == b"value"

    def test_get_exact_version(self):
        view = _Cells()
        view.put(KEY, 5, b"v")
        view.put(KEY, 7, b"w")
        cell = view.cells.at_time(KEY, 5)
        assert (cell.ukey.timestamp, cell.value) == (5, b"v")

    def test_missing(self):
        view = _Cells()
        assert view.cells.latest(KEY) is None
        assert view.cells.versions(KEY) == []

    def test_versions_ordered_by_timestamp(self):
        view = _Cells()
        for ts in (1, 2, 3):
            view.put(KEY, ts, f"v{ts}".encode())
        versions = view.cells.versions(KEY)
        assert [c.ukey.timestamp for c in versions] == [1, 2, 3]
        assert versions[-1].value == b"v3"

    def test_at_time(self):
        view = _Cells()
        view.put(KEY, 10, b"old")
        view.put(KEY, 20, b"new")
        assert view.cells.at_time(KEY, 15).value == b"old"
        assert view.cells.at_time(KEY, 25).value == b"new"
        assert view.cells.at_time(KEY, 5) is None

    def test_immutability_values_deduplicated(self):
        """Two cells of one value share one chunk."""
        db = SpitzDatabase()
        db.put(b"p1", b"same-value")
        stats = db.chunks.stats
        dedup_hits = stats.puts - stats.unique_chunks
        db.put(b"p2", b"same-value")
        first = db.cells.latest(b"k\x00p1")
        second = db.cells.latest(b"k\x00p2")
        assert first.ukey.value_hash == second.ukey.value_hash
        assert stats.puts - stats.unique_chunks >= dedup_hits + 1

    def test_cells_isolated_by_column(self):
        view = _Cells()
        view.put(b"t\x00t\x00c1\x00pk", 1, b"in-c1")
        assert view.cells.latest(b"t\x00t\x00c2\x00pk") is None

    def test_a_delete_is_not_a_cell(self):
        view = _Cells()
        view.put(KEY, 1, b"v")
        view.put(KEY, 2, None)
        view.put(KEY, 3, b"w")
        assert [c.value for c in view.cells.versions(KEY)] == [b"v", b"w"]
        assert view.cells.at_time(KEY, 2) is None
        assert view.cells.at_time(KEY, 1).value == b"v"
        view.put(KEY, 4, None)
        assert view.cells.latest(KEY) is None
