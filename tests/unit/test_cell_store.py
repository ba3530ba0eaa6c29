"""Unit tests for the virtual cell store."""

from repro.core.cell_store import CellStore
from repro.crypto.hashing import hash_bytes
from repro.forkbase.chunk_store import ChunkStore


def _cells():
    return CellStore(ChunkStore())


class TestCellStore:
    def test_put_then_latest(self):
        cells = _cells()
        cells.put("col", b"pk", 1, b"v1")
        assert cells.latest("col", b"pk").value == b"v1"

    def test_a_cell_is_keyed_by_its_chunk_address_hashed_once(
        self, monkeypatch
    ):
        """The universal key carries "the hash of its value": the very
        address ``ChunkStore.put`` computed, not a second hash."""
        from repro.forkbase import chunk_store

        calls = []
        plain = chunk_store.hash_bytes
        monkeypatch.setattr(
            chunk_store, "hash_bytes",
            lambda data: calls.append(data) or plain(data),
        )
        chunks = ChunkStore()
        ukey = CellStore(chunks).put("col", b"pk", 5, b"value")
        assert calls == [b"value"]
        assert ukey.value_hash == hash_bytes(b"value")
        assert chunks.get(ukey.value_hash) == b"value"

    def test_get_exact_version(self):
        cells = _cells()
        ukey = cells.put("col", b"pk", 5, b"v")
        assert cells.get(ukey) == b"v"

    def test_missing(self):
        cells = _cells()
        assert cells.latest("col", b"nope") is None
        assert cells.get_by_encoded(b"garbage") is None

    def test_versions_ordered_by_timestamp(self):
        cells = _cells()
        for ts in (1, 2, 3):
            cells.put("col", b"pk", ts, f"v{ts}".encode())
        versions = cells.versions("col", b"pk")
        assert [c.ukey.timestamp for c in versions] == [1, 2, 3]
        assert versions[-1].value == b"v3"

    def test_at_time(self):
        cells = _cells()
        cells.put("col", b"pk", 10, b"old")
        cells.put("col", b"pk", 20, b"new")
        assert cells.at_time("col", b"pk", 15).value == b"old"
        assert cells.at_time("col", b"pk", 25).value == b"new"
        assert cells.at_time("col", b"pk", 5) is None

    def test_immutability_values_deduplicated(self):
        chunks = ChunkStore()
        cells = CellStore(chunks)
        cells.put("a", b"p1", 1, b"same-value")
        before = chunks.stats.physical_bytes
        cells.put("a", b"p2", 2, b"same-value")
        assert chunks.stats.physical_bytes == before

    def test_cells_isolated_by_column(self):
        cells = _cells()
        cells.put("c1", b"pk", 1, b"in-c1")
        assert cells.latest("c2", b"pk") is None

    def test_scan_by_encoded_range(self):
        cells = _cells()
        for i in range(5):
            cells.put("col", f"pk{i}".encode(), 1, str(i).encode())
        from repro.core.universal_key import UniversalKey

        low, _ = UniversalKey.prefix("col", b"pk1")
        _, high = UniversalKey.prefix("col", b"pk3")
        found = [c.ukey.primary_key for c in cells.scan(low, high)]
        assert found == [b"pk1", b"pk2", b"pk3"]

    def test_len_counts_versions(self):
        cells = _cells()
        cells.put("c", b"p", 1, b"a")
        cells.put("c", b"p", 2, b"b")
        assert len(cells) == 2
