"""Unit tests for the ForkBase facade."""

import pickle
from pathlib import Path

import pytest

from repro.errors import StorageError
from repro.forkbase.store import ForkBase


class _Payload:
    """Unpickling it creates the file at ``marker``."""

    def __init__(self, marker: Path):
        self.marker = marker

    def __reduce__(self):
        return Path.touch, (self.marker,)


class TestForkBase:
    def test_put_get(self):
        fb = ForkBase()
        fb.put("doc", b"content")
        assert fb.get("doc") == b"content"

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            ForkBase().get("ghost")

    def test_historical_read(self):
        fb = ForkBase()
        fb.put("doc", b"v1 content")
        first = fb.commit("v1")
        fb.put("doc", b"v2 content")
        fb.commit("v2")
        assert fb.get("doc") == b"v2 content"
        assert fb.get_at("doc", first) == b"v1 content"

    def test_delete_preserves_history(self):
        fb = ForkBase()
        fb.put("doc", b"data")
        first = fb.commit("v1")
        fb.delete("doc")
        fb.commit("v2")
        with pytest.raises(KeyError):
            fb.get("doc")
        assert fb.get_at("doc", first) == b"data"

    def test_keys_sorted(self):
        fb = ForkBase()
        for name in ("zebra", "apple", "mango"):
            fb.put(name, b"x")
        assert list(fb.keys()) == ["apple", "mango", "zebra"]

    def test_branches_isolated(self):
        fb = ForkBase()
        fb.put("k", b"main")
        fb.commit("m1")
        fb.versions.create_branch("fork")
        fb.put("k", b"forked", branch="fork")
        fb.commit("f1", branch="fork")
        assert fb.get("k") == b"main"
        assert fb.get("k", branch="fork") == b"forked"

    def test_identical_values_deduplicate(self):
        fb = ForkBase()
        payload = b"redundant " * 500
        fb.put("a", payload)
        before = fb.stats.physical_bytes
        fb.put("b", payload)
        # The 5000-byte payload is fully deduplicated; only the small
        # map-node delta for the new key is stored.
        assert fb.stats.physical_bytes - before < 500

    def test_storage_report_fields(self):
        fb = ForkBase()
        fb.put("k", b"some data here")
        report = fb.storage_report()
        assert set(report) == {
            "logical_bytes", "physical_bytes", "dedup_ratio",
            "unique_chunks",
        }
        assert report["physical_bytes"] > 0

    def test_a_pickle_at_a_blob_address_is_refused_unrun(self, tmp_path):
        fb = ForkBase()
        address = fb.put("doc", b"content")
        # The store maps an address to its stored form: put a pickle
        # with a side effect where the blob's index was.
        marker = tmp_path / "unpickled"
        fb.chunks._entries[address] = pickle.dumps(_Payload(marker))
        with pytest.raises((ValueError, StorageError)):
            fb.get("doc")
        assert not marker.exists()
