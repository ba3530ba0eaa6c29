"""Unit tests for canonical encoding and digests."""

import gc

import pytest

from repro import SpitzDatabase
from repro.crypto.hashing import (
    EMPTY_DIGEST,
    canonical_encode,
    digest_from_hex,
    hash_bytes,
    hash_many,
    hash_value,
    short,
)
from repro.crypto.merkle import HashChain, MerkleTree


class TestDigest:
    def test_requires_32_bytes(self):
        with pytest.raises(ValueError):
            digest_from_hex(b"short".hex())

    def test_round_trips_hex(self):
        digest = hash_bytes(b"abc")
        assert digest_from_hex(digest.hex()) == digest

    def test_is_usable_as_dict_key(self):
        mapping = {hash_bytes(b"a"): 1, hash_bytes(b"b"): 2}
        assert mapping[hash_bytes(b"a")] == 1

    def test_short_is_prefix_of_hex(self):
        digest = hash_bytes(b"xyz")
        assert len(short(digest)) == 12
        assert digest.hex().startswith(short(digest))

    def test_empty_digest_matches_sha256_of_empty(self):
        assert EMPTY_DIGEST == hash_bytes(b"")


class TestDigestsAreBytes:
    """A digest is the ``bytes`` hashlib returns: no instance of a
    subclass, so neither it nor a tuple holding it is tracked by the
    cyclic collector."""

    def test_every_hasher_returns_plain_bytes(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        chain = HashChain()
        digests = [
            hash_bytes(b"a"),
            hash_value(("a", 1)),
            hash_many([b"a", b"b"]),
            EMPTY_DIGEST,
            tree.root,
            tree.prove(1).root_from(b"b"),
            chain.append(hash_bytes(b"a")).chain_digest,
        ]
        for digest in digests:
            assert type(digest) is bytes and len(digest) == 32
            assert not gc.is_tracked(digest)

    def test_the_decode_cache_holds_no_tracked_pair(self):
        db = SpitzDatabase()
        db.put_batch({
            b"k%05d" % n: b"value %d" % n for n in range(2000)
        })
        gc.collect()
        nodes = list(db.chunks.decode_cache.values())
        assert len(nodes) > 10
        tracked = [
            pair for node in nodes for pair in node[1] if gc.is_tracked(pair)
        ]
        assert tracked == []


class TestCanonicalEncode:
    def test_distinct_types_encode_differently(self):
        values = [0, "", b"", ()]
        encodings = [canonical_encode(v) for v in values]
        assert len(set(encodings)) == len(values)

    def test_int_and_string_of_same_text_differ(self):
        assert canonical_encode(42) != canonical_encode("42")

    def test_list_concatenation_is_unambiguous(self):
        assert canonical_encode(("ab", "c")) != canonical_encode(("a", "bc"))

    def test_nested_structures(self):
        value = ("a", (1, 2, ("b", b"bytes")), ("c", ()))
        assert canonical_encode(value) == canonical_encode(value)
        assert canonical_encode(value) != canonical_encode(
            ("a", (1, 2, "b", b"bytes"), ("c", ()))
        )

    def test_bool_is_not_int(self):
        assert canonical_encode(1)
        with pytest.raises(TypeError):
            canonical_encode(True)
        with pytest.raises(TypeError):
            hash_value(("flag", False))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonical_encode(object())

    def test_every_removed_type_raises(self):
        for value in (None, 0.5, [1, 2], {"a": 1}, frozenset({1})):
            with pytest.raises(TypeError):
                canonical_encode(value)
            with pytest.raises(TypeError):
                canonical_encode(("inside", value))


class TestHashers:
    def test_hash_value_deterministic(self):
        assert hash_value(("k", (1, "two"))) == hash_value(("k", (1, "two")))

    def test_hash_many_length_prefixed(self):
        assert hash_many([b"ab", b"c"]) != hash_many([b"a", b"bc"])

    def test_hash_many_accepts_generator(self):
        assert hash_many(p for p in [b"x", b"y"]) == hash_many([b"x", b"y"])

    def test_hash_bytes_distinct_inputs(self):
        assert hash_bytes(b"a") != hash_bytes(b"b")
