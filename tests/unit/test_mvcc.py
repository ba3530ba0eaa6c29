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
        # Refused before anything changed: no version went in.
        assert [v.commit_ts for v in store.history("k")] == [10]
        assert store.read_latest("k").value == "v"

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

    def test_only_a_rewritten_key_keeps_older_versions(self):
        store = MVCCStore()
        store.install({"k": "a", "j": "x"}, 1)
        store.install({"k": "b"}, 2)
        store.install({"k": None}, 3)
        assert store._older == {"k": [Version(1, "a"), Version(2, "b")]}
        assert store.read_latest("k") == Version(3, None)
        held = store.history("k")
        store.install({"k": "c"}, 4)
        assert [v.value for v in held] == ["a", "b", None]  # a copy
        assert store.read("k", 3) == Version(3, None)
        assert store.read("j", 4) == Version(1, "x")

    def test_range_serves_live_keys_in_order(self):
        store = MVCCStore()
        store.install({"d": 4, "b": 2, "a": 1, "c": 3}, 1)
        store.install({"b": None, "c": 30}, 2)
        assert store.range("a", "d") == [("a", 1), ("c", 30), ("d", 4)]
        assert store.range("b", "d", inclusive=False) == [("c", 30)]
        assert list(store.keys()) == ["a", "b", "c", "d"]

    def test_all_versions_walks_keys_then_commits(self):
        store = MVCCStore()
        store.install({"b": 1, "a": 1}, 1)
        store.install({"a": None}, 2)
        assert list(store.all_versions()) == [
            ("a", Version(1, 1)), ("a", Version(2, None)), ("b", Version(1, 1)),
        ]

    def test_restore_adopts_the_same_map(self):
        store = MVCCStore()
        store.install({"b": 1, "a": 1}, 1)
        store.install({"a": None, "c": 3}, 2)
        restored = MVCCStore()
        restored.restore(
            (key, version) for key in ("c", "a", "b")
            for version in store.history(key)
        )
        assert list(restored.all_versions()) == list(store.all_versions())
        assert restored._older == store._older
        assert restored.read("a", 1) == Version(1, 1)

    def test_a_key_written_once_allocates_no_version_list(self):
        """10 000 keys written once each, in 10 blocks: the store holds
        each one's tree slot and ``Version``; a dict slot and a list per
        key, beside them, measured ~165 B a key."""
        import tracemalloc

        blocks = [
            {b"key%05d" % i: b"value%05d" % i for i in range(n, n + 1000)}
            for n in range(0, 10_000, 1000)
        ]
        store = MVCCStore()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for stamp, writes in enumerate(blocks, 1):
                store.install(writes, stamp)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(store) == store.version_count() == 10_000
        assert held / 10_000 < 130

    @pytest.mark.stress
    def test_scans_racing_installs_see_whole_states(self):
        """Writers insert keys all over the tree (leaf and interior
        splits), then overwrite each (moving versions to the older
        table), while readers scan: every scan is in strict key order
        with each key's own value, never shorter than the reader's last
        (no key is ever deleted), and no install is lost."""
        import random
        import sys
        import threading

        writers, readers, per_writer = 3, 3, 1500
        own = [
            [f"k{w}-{i:05d}" for i in range(per_writer)]
            for w in range(writers)
        ]
        done = threading.Event()
        errors = []

        def write(keys, seed):
            order = random.Random(seed).sample(keys, len(keys))
            for generation in (1, 2):
                for index, key in enumerate(order):
                    store.install(
                        {key: (key, generation)},
                        generation * 10 ** 6 + index,
                    )

        def scan():
            seen = 0
            try:
                while not done.is_set():
                    pairs = store.range("k", "l")
                    assert all(
                        a < b for (a, _), (b, _) in zip(pairs, pairs[1:])
                    )
                    assert all(key == value[0] for key, value in pairs)
                    assert len(pairs) >= seen
                    seen = len(pairs)
            except AssertionError as error:
                errors.append(error)

        store = MVCCStore()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            scanners = [threading.Thread(target=scan) for _ in range(readers)]
            installers = [
                threading.Thread(target=write, args=(keys, seed))
                for seed, keys in enumerate(own)
            ]
            for thread in scanners + installers:
                thread.start()
            for thread in installers:
                thread.join(timeout=30)
            done.set()
            for thread in scanners:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in scanners + installers)
        assert errors == []
        total = writers * per_writer
        assert len(store) == total and store.version_count() == 2 * total
        assert all(
            [v.value for v in store.history(key)] == [(key, 1), (key, 2)]
            for keys in own for key in keys
        )

    def test_version_count(self):
        store = MVCCStore()
        store.install({"a": 1}, 1)
        store.install({"a": 2, "b": 1}, 2)
        assert store.version_count() == 3
        assert len(store) == 2
