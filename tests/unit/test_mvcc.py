"""Unit tests for the MVCC version store."""

import pytest

from repro.txn.mvcc import MVCCStore, Version


class TestMvccStore:
    def test_read_missing(self):
        assert MVCCStore().read("k", 100) is None

    def test_snapshot_reads(self):
        store = MVCCStore()
        store.install({"k": "v1"}, commit_ts=10)
        store.install({"k": "v2"}, commit_ts=20)
        assert store.read("k", 5) is None
        assert store.read("k", 10).value == "v1"
        assert store.read("k", 15).value == "v1"
        assert store.read("k", 20).value == "v2"
        assert store.read("k", 99).value == "v2"

    def test_read_latest(self):
        store = MVCCStore()
        store.install({"k": "a"}, 1)
        store.install({"k": "b"}, 2)
        assert store.read_latest("k").value == "b"

    def test_latest_commit_ts(self):
        store = MVCCStore()
        assert store.latest_commit_ts("k") == 0
        store.install({"k": "v"}, 7)
        assert store.latest_commit_ts("k") == 7

    def test_out_of_order_install_rejected(self):
        store = MVCCStore()
        store.install({"k": "v"}, 10)
        with pytest.raises(ValueError):
            store.install({"k": "w"}, 10)
        with pytest.raises(ValueError):
            store.install({"k": "w"}, 5)

    def test_atomic_multi_key_install(self):
        store = MVCCStore()
        store.install({"a": 1, "b": 2}, 5)
        assert store.read("a", 5).value == 1
        assert store.read("b", 5).value == 2

    def test_history(self):
        store = MVCCStore()
        for ts, value in [(1, "a"), (2, "b"), (3, "c")]:
            store.install({"k": value}, ts)
        assert [v.value for v in store.history("k")] == ["a", "b", "c"]

    def test_tombstone(self):
        store = MVCCStore()
        store.install({"k": "v"}, 1)
        store.install({"k": None}, 2)
        assert store.read("k", 2) == Version(2, None)
        assert store.read("k", 1) == Version(1, "v")

    def test_snapshot_items_excludes_tombstones(self):
        store = MVCCStore()
        store.install({"a": 1, "b": 2}, 1)
        store.install({"a": None}, 2)
        assert list(store.snapshot_items(1)) == [("a", 1), ("b", 2)]
        assert list(store.snapshot_items(2)) == [("b", 2)]

    def test_a_read_allocates_no_list_of_stamps(self):
        """A snapshot read bisects the version list in place: no
        O(versions) list per call, however hot the key."""
        import tracemalloc

        store = MVCCStore()
        for ts in range(1, 10_001):
            store.install({"hot": ts}, ts)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            found = [store.read("hot", ts) for ts in (0, 1, 4_321, 10_000)]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert [v and v.value for v in found] == [None, 1, 4_321, 10_000]
        assert peak < 1_000  # a list of 10 000 stamps is ~80 kB

    def test_versions_of_is_the_live_list(self):
        store = MVCCStore()
        assert store.versions_of("k") is None
        store.install({"k": "a"}, 1)
        held = store.versions_of("k")
        store.install({"k": "b"}, 2)
        assert [v.value for v in held] == ["a", "b"]
        assert store.history("k") is not held  # history is a copy

    def test_version_count(self):
        store = MVCCStore()
        store.install({"a": 1}, 1)
        store.install({"a": 2, "b": 1}, 2)
        assert store.version_count() == 3
        assert len(store) == 2
