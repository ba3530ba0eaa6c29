"""Unit tests for the Merkle-committed search index (repro.search.committed).

Covers the canonical codecs (posted values, posting lists, column
manifests), their strict-decode guarantees, and the
CommittedSearchIndex lifecycle: two-phase note_change/seal
maintenance, bulk loading, and rebuild-from-authoritative-state
equivalence.
"""

import pytest

from repro.crypto.hashing import Digest
from repro.errors import QueryError
from repro.forkbase.chunk_store import ChunkStore
from repro.indexes.inverted import (
    InvertedIndex,
    decode_search_value,
    encode_search_value,
)
from repro.search.committed import (
    SEARCH_ROOT_KEY,
    CommittedSearchIndex,
    decode_manifest,
    decode_postings,
    encode_manifest,
    encode_postings,
    index_root_of,
)


# -- search value codec -----------------------------------------------------


class TestSearchValueCodec:
    def test_round_trip_strings(self):
        for text in ["", "alice", "wiki/page-07", "naïve", "ffff"]:
            assert decode_search_value(encode_search_value(text)) == text

    def test_round_trip_numbers(self):
        for num in [0, 1, -1, 10.5, -273.15, 2**52, float("inf")]:
            encoded = encode_search_value(num)
            assert decode_search_value(encoded) == float(num)

    def test_numeric_encoding_preserves_order(self):
        values = [float("-inf"), -1e9, -2.5, -1, 0, 0.5, 3, 1e18, float("inf")]
        encodings = [encode_search_value(v) for v in values]
        assert encodings == sorted(encodings)

    def test_string_encoding_preserves_order(self):
        values = ["", "a", "ab", "b", "ba", "z"]
        encodings = [encode_search_value(v) for v in values]
        assert encodings == sorted(encodings)

    def test_numbers_sort_before_strings(self):
        assert encode_search_value(1e300) < encode_search_value("")

    def test_nan_rejected(self):
        with pytest.raises(QueryError):
            encode_search_value(float("nan"))

    def test_bool_and_composite_rejected(self):
        for bad in [True, [1], {"a": 1}, None, b"bytes"]:
            with pytest.raises(QueryError):
                encode_search_value(bad)

    def test_int_and_equal_float_encode_identically(self):
        assert encode_search_value(7) == encode_search_value(7.0)


# -- postings codec ---------------------------------------------------------


class TestPostingsCodec:
    def test_round_trip(self):
        postings = [b"u1", b"u2", b"longer-universal-key"]
        assert decode_postings(encode_postings(postings)) == tuple(
            sorted(postings)
        )

    def test_canonical_sorted_deduped(self):
        a = encode_postings([b"b", b"a", b"a", b"c"])
        b = encode_postings([b"c", b"b", b"a"])
        assert a == b
        assert decode_postings(a) == (b"a", b"b", b"c")

    def test_empty_list(self):
        assert decode_postings(encode_postings([])) == ()

    def test_strict_decode_rejects_trailing_bytes(self):
        blob = encode_postings([b"x"]) + b"\x00"
        with pytest.raises(ValueError):
            decode_postings(blob)

    def test_strict_decode_rejects_truncation(self):
        blob = encode_postings([b"abcdef"])
        with pytest.raises(ValueError):
            decode_postings(blob[:-2])

    def test_strict_decode_rejects_unsorted(self):
        # Hand-build count=2 with entries out of order.
        blob = (
            (2).to_bytes(4, "big")
            + (1).to_bytes(2, "big") + b"b"
            + (1).to_bytes(2, "big") + b"a"
        )
        with pytest.raises(ValueError):
            decode_postings(blob)

    def test_strict_decode_rejects_duplicates(self):
        blob = (
            (2).to_bytes(4, "big")
            + (1).to_bytes(2, "big") + b"a"
            + (1).to_bytes(2, "big") + b"a"
        )
        with pytest.raises(ValueError):
            decode_postings(blob)


# -- manifest codec ---------------------------------------------------------


class TestManifestCodec:
    def test_round_trip_and_canonical_order(self):
        roots = {
            "b.col": Digest(b"\x02" * 32),
            "a.col": Digest(b"\x01" * 32),
        }
        blob = encode_manifest(roots)
        assert decode_manifest(blob) == roots
        # Same mapping in a different insertion order is byte-identical.
        assert blob == encode_manifest(dict(reversed(list(roots.items()))))

    def test_index_root_is_deterministic(self):
        one = encode_manifest({"c": Digest(b"\x07" * 32)})
        other = encode_manifest({"c": Digest(b"\x08" * 32)})
        assert index_root_of(one) == index_root_of(bytes(one))
        assert index_root_of(one) != index_root_of(other)

    def test_decode_garbage_raises(self):
        for blob in [b"not-a-manifest", b"", b"SIDX1"]:
            with pytest.raises(ValueError):
                decode_manifest(blob)
        blob = encode_manifest({"a.b": Digest(b"\x01" * 32)})
        with pytest.raises(ValueError):
            decode_manifest(blob + b"\x00")


# -- committed index lifecycle ----------------------------------------------


def _populated_inverted():
    inverted = InvertedIndex()
    inverted.add("t.term", "alpha", b"u1")
    inverted.add("t.term", "alpha", b"u2")
    inverted.add("t.term", "beta", b"u3")
    inverted.add("t.score", 10, b"u1")
    inverted.add("t.score", 20, b"u2")
    return inverted


class TestCommittedSearchIndex:
    def test_seal_commits_noted_changes(self):
        index = CommittedSearchIndex(ChunkStore(), ["t.term", "t.score"])
        inverted = _populated_inverted()
        for column, value in [
            ("t.term", "alpha"), ("t.term", "beta"),
            ("t.score", 10), ("t.score", 20),
        ]:
            index.note_change(column, value)
        manifest = index.seal(inverted)
        assert index.pending_changes == 0
        roots = decode_manifest(manifest)
        assert set(roots) == {"t.term", "t.score"}
        assert index.index_root == index_root_of(manifest)

    def test_unindexed_column_notes_are_ignored(self):
        index = CommittedSearchIndex(ChunkStore(), ["t.term"])
        index.note_change("t.other", "x")
        assert index.pending_changes == 0

    def test_seal_reflects_removal(self):
        index = CommittedSearchIndex(ChunkStore(), ["t.term"])
        inverted = InvertedIndex()
        inverted.add("t.term", "alpha", b"u1")
        index.note_change("t.term", "alpha")
        first = index.seal(inverted)
        inverted.remove("t.term", "alpha", b"u1")
        index.note_change("t.term", "alpha")
        second = index.seal(inverted)
        assert first != second
        # Empty postings delete the leaf: resealing an empty index
        # equals a never-populated one.
        fresh = CommittedSearchIndex(ChunkStore(), ["t.term"])
        assert second == fresh.seal(InvertedIndex())

    def test_bulk_load_equals_incremental(self):
        inverted = _populated_inverted()
        incremental = CommittedSearchIndex(
            ChunkStore(), ["t.score", "t.term"]
        )
        incremental.rebuild_from(inverted)
        bulk = CommittedSearchIndex(ChunkStore(), ["t.term", "t.score"])
        bulk.bulk_load("t.term", {"alpha": [b"u2", b"u1"], "beta": [b"u3"]})
        bulk.bulk_load("t.score", {10: [b"u1"], 20: [b"u2"]})
        assert incremental.manifest_bytes() == bulk.manifest_bytes()
        assert incremental.index_root == bulk.index_root

    def test_manifest_cached_until_next_seal(self):
        index = CommittedSearchIndex(ChunkStore(), ["t.term"])
        index.seal(InvertedIndex())
        assert index.manifest_bytes() is index.manifest_bytes()

    def test_columns_sorted_and_covers(self):
        index = CommittedSearchIndex(ChunkStore(), ["z.b", "a.a"])
        assert index.columns == ("a.a", "z.b")
        assert index.covers("z.b")
        assert not index.covers("nope")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(QueryError):
            CommittedSearchIndex(ChunkStore(), ["a", "a"])

    def test_search_root_key_never_parses_as_cell(self):
        # The manifest anchor must stay outside the logical keyspace:
        # prefix byte "s" + NUL cannot collide with table cells.
        assert SEARCH_ROOT_KEY.startswith(b"s\x00")
