"""Unit tests for universal keys."""

import pytest

from repro.core.universal_key import UniversalKey
from repro.crypto.hashing import hash_bytes


def _for_cell(column, primary_key, timestamp, value):
    return UniversalKey(column, primary_key, timestamp, hash_bytes(value))


class TestUniversalKey:
    def test_encode_decode_round_trip(self):
        ukey = _for_cell("table.col", b"pk-1", 42, b"v")
        decoded = UniversalKey.decode(ukey.encode())
        assert decoded.column == "table.col"
        assert decoded.primary_key == b"pk-1"
        assert decoded.timestamp == 42

    def test_decode_with_nul_bytes_in_pk(self):
        ukey = _for_cell("c", b"a\x00b\x00", 7, b"v")
        decoded = UniversalKey.decode(ukey.encode())
        assert decoded.primary_key == b"a\x00b\x00"
        assert decoded.timestamp == 7

    def test_decode_empty_pk(self):
        ukey = _for_cell("c", b"", 1, b"v")
        assert UniversalKey.decode(ukey.encode()).primary_key == b""

    def test_timestamp_ordering_within_cell(self):
        keys = [
            _for_cell("c", b"pk", ts, b"v").encode()
            for ts in range(10)
        ]
        assert keys == sorted(keys)

    def test_prefix_covers_all_versions(self):
        low, high = UniversalKey.prefix("c", b"pk")
        for ts in (0, 1, 1000, 2**40):
            encoded = _for_cell("c", b"pk", ts, b"v").encode()
            assert low <= encoded <= high

    def test_prefix_excludes_other_cells(self):
        low, high = UniversalKey.prefix("c", b"pk")
        other = _for_cell("c", b"pk2", 1, b"v").encode()
        assert not (low <= other <= high)
        other_col = _for_cell("d", b"pk", 1, b"v").encode()
        assert not (low <= other_col <= high)

    def test_distinct_values_distinct_keys(self):
        a = _for_cell("c", b"pk", 1, b"v1")
        b = _for_cell("c", b"pk", 1, b"v2")
        assert a != b
        assert a.encode() != b.encode()

    def test_encode_is_memoized(self):
        ukey = _for_cell("c", b"pk", 1, b"v")
        assert ukey.encode() is ukey.encode()
