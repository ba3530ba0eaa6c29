"""Unit tests for the committed-postings codecs (repro.search.committed).

Covers the canonical codecs a committed posting is made of — the posted
value (the tail of its ledger key), the posting list (its value) — their
strict-decode guarantees, and the posting key's layout.
"""

import pytest

from repro.core.schema import DOC_PREFIX, KV_PREFIX, TABLE_PREFIX
from repro.errors import QueryError
from repro.indexes.inverted import decode_search_value, encode_search_value
from repro.search.committed import (
    SEARCH_PREFIX,
    column_prefix,
    decode_postings,
    encode_postings,
    posting_key,
)


# -- search value codec -----------------------------------------------------


class TestSearchValueCodec:
    def test_round_trip_strings(self):
        for text in ["", "alice", "wiki/page-07", "naïve", "ffff"]:
            assert decode_search_value(encode_search_value(text)) == text

    def test_round_trip_numbers(self):
        for num in [0, 1, -1, 10.5, -273.15, 2**52, float("inf")]:
            encoded = encode_search_value(num)
            assert decode_search_value(encoded) == num

    def test_ints_past_two_to_the_53_stay_exact(self):
        edges = [2**53, 2**53 + 1, 2**63 - 1, -(2**63), -(2**63) + 1]
        for num in edges:
            assert decode_search_value(encode_search_value(num)) == num
        assert encode_search_value(2**53) < encode_search_value(2**53 + 1)
        assert encode_search_value(2**53 + 1) < encode_search_value(
            float(2**53 + 2)
        )

    def test_ints_past_64_bits_are_refused(self):
        for num in [2**63, -(2**63) - 1, 10**400]:
            with pytest.raises(QueryError):
                encode_search_value(num)

    def test_non_canonical_numerics_do_not_decode(self):
        negative_zero = encode_search_value(0.5)[:1] + bytes(
            [0x7F] + [0xFF] * 7
        ) + b"\x00\x00"
        for blob in [
            encode_search_value(1.5)[:-1] + b"\x01",  # remainder on 1.5
            encode_search_value(2**53)[:-2] + b"\x00\x02",  # past the ulp
            negative_zero,
            encode_search_value(7)[:-1],  # cut short
        ]:
            with pytest.raises(ValueError):
                decode_search_value(blob)

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


# -- posting keys -----------------------------------------------------------


class TestPostingKey:
    def test_posting_keys_sit_outside_every_data_keyspace(self):
        key = posting_key("t.v", 7)
        assert key.startswith(SEARCH_PREFIX)
        for prefix in (KV_PREFIX, TABLE_PREFIX, DOC_PREFIX):
            assert not key.startswith(prefix)

    def test_a_column_prefix_is_no_prefix_of_a_neighbour(self):
        assert not column_prefix("t.ab").startswith(column_prefix("t.a"))
        assert not posting_key("t.ab", "x").startswith(column_prefix("t.a"))

    def test_a_nul_in_the_column_is_refused(self):
        with pytest.raises(QueryError):
            column_prefix("t.a\x00b")
