"""Unit tests for Blob, a chunked byte string indexed by one POS-tree
leaf."""

from repro.forkbase.chunker import FixedSizeChunker
from repro.forkbase.store import Blob
from repro.indexes.siri import decode_node


class TestBlob:
    def test_round_trip(self, store):
        data = bytes(range(256)) * 40
        blob = Blob.write(store, data)
        assert blob.read() == data
        assert len(blob) == len(data)

    def test_identical_blobs_share_chunks(self, store):
        data = b"shared content " * 1000
        Blob.write(store, data)
        before = store.stats.physical_bytes
        Blob.write(store, data)
        assert store.stats.physical_bytes == before

    def test_empty_blob(self, store):
        blob = Blob.write(store, b"")
        assert blob.read() == b""
        assert len(blob) == 0

    def test_index_is_a_leaf_keyed_by_end_offsets(self, store):
        data = bytes(range(256)) * 10
        blob = Blob.write(store, data, FixedSizeChunker(1000))
        tag, pairs = decode_node(store.get(blob.address))
        assert tag == "L"
        assert [int.from_bytes(end, "big") for end, _ in pairs] == [
            1000, 2000, 2560,
        ]
        assert [store.get(chunk) for _, chunk in pairs] == [
            data[:1000], data[1000:2000], data[2000:],
        ]
