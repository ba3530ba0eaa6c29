"""Soundness fuzz at node level: the codec a verifier runs on server
bytes, and every proof kind under node- and value-level damage.

- **codec** — :func:`~repro.indexes.siri.decode_node` is total over
  arbitrary bytes (``ValueError`` or a node, nothing else), accepts
  only canonical bytes (what it accepts re-encodes to exactly what it
  was given) and inverts :func:`~repro.indexes.siri.encode_node`;
- **proofs** — for every sample of ``tests/wire_samples.py``, a warm
  and a cold :class:`~repro.core.verifier.ClientVerifier` never raise
  and never accept a lie, whatever is done to the node blobs (a byte
  flipped, a blob cut short, two swapped, blobs appended) or to a
  claimed value.  Damage a verifier must read — a value, or a blob on
  a cold verifier's walk — is rejected outright; blobs it never reaches
  (appended junk, or, for a warm verifier, a node it already holds)
  change nothing;
- **one replay** — for random trees, key sets, ranges and a verifier
  that already holds *any subset* of a proof's nodes: honest point,
  multi and range proofs verify; SHA-256 runs over a node blob exactly
  once per cache miss and never on a hit, and so does the node decoder;
  a point proof is the one-key multiproof under every mutation above; a
  dropped blob, two swapped, or a path cut short is ``False`` cold, and
  no damage makes a warm verifier accept a false claim.  The hit-costs-
  no-hash count is repeated through ``ClientVerifier`` for every sample;
- **no pickle** — with ``pickle.loads``, ``pickle.load`` and
  ``pickle.Unpickler`` made to raise, every proof kind still decodes
  from its wire frame and verifies.

Runs under one fixed Hypothesis profile: same examples every run.
"""

import base64
import copy
import dataclasses
import json
import pickle
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.audit import ProofBundle, make_bundle, verify_bundle
from repro.core.database import SpitzDatabase
from repro.core.verifier import ClientVerifier
from repro.crypto import hashing
from repro.crypto.hashing import hash_bytes
from repro.forkbase.chunk_store import ChunkStore
from repro.indexes import siri
from repro.indexes.pos_tree import PosRangeProof, PosTree
from repro.indexes.siri import NodeCache, cache_node, decode_node, encode_node
from repro.serve.codec import decode_value, encode_value
from tests.wire_samples import sharded_samples, single_ledger_samples

settings.register_profile(
    "node-fuzz", derandomize=True, deadline=None, max_examples=300
)
FIXED = settings.get_profile("node-fuzz")

#: Short keys of mixed lengths (the empty key among them), and keys on
#: shared stems — one 142 bytes long, so a prefix or a suffix of 128
#: bytes or more takes a multi-byte varint.
keys = st.one_of(
    st.binary(max_size=12),
    st.builds(
        bytes.__add__,
        st.sampled_from([b"k\x00", b"k\x00" + b"ab" * 70]),
        st.binary(max_size=160),
    ),
)
nodes = st.builds(
    lambda tag, pairs: (tag, tuple(sorted(pairs.items()))),
    st.sampled_from("LB"),
    st.dictionaries(keys, st.binary(min_size=32, max_size=32), max_size=12),
)
#: One edit to a byte string: (position share, bytes dropped, inserted).
edits = st.lists(
    st.tuples(
        st.floats(0, 1), st.integers(0, 6), st.binary(max_size=6)
    ),
    min_size=1,
    max_size=3,
)


def _edited(data: bytes, changes) -> bytes:
    for share, dropped, inserted in changes:
        at = int(share * len(data))
        data = data[:at] + inserted + data[at + dropped:]
    return data


def _decodes_strictly(data: bytes) -> None:
    try:
        node = decode_node(data)
    except ValueError:
        return
    assert encode_node(node) == data


class TestNodeCodec:
    @FIXED
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_raise_value_error_or_are_canonical(self, data):
        _decodes_strictly(data)

    @FIXED
    @given(nodes, edits)
    def test_damaged_encodings_raise_value_error_or_are_canonical(
        self, node, changes
    ):
        _decodes_strictly(_edited(encode_node(node), changes))

    @FIXED
    @given(nodes)
    def test_round_trip_is_exact_both_ways(self, node):
        data = encode_node(node)
        assert decode_node(data) == node
        assert encode_node(decode_node(data)) == data

    def test_the_layout_stores_the_prefix_once_and_lengths_as_varints(self):
        """Layout v4: ``tag ‖ varint(prefix length) ‖ prefix`` then one
        ``varint(suffix length) ‖ suffix ‖ digest`` row per pair, no
        count.  Empty and one-pair nodes, an empty key, mixed key
        lengths, and a prefix and a suffix long enough for two-byte
        varints."""
        digest = bytes(range(32))
        stem = b"k\x00" + b"x" * 200
        long_pairs = ((stem, digest), (stem + b"\x00" * 130, digest),
                      (stem + b"\x01", digest))
        for pairs in (
            (),
            ((b"", digest),),
            ((stem, digest),),
            ((b"", digest), (b"a", digest), (b"ab" * 100, digest)),
            ((b"k1", digest), (b"k22", digest), (b"k333", digest)),
            long_pairs,
        ):
            for tag in "LB":
                data = encode_node((tag, pairs))
                assert decode_node(data) == (tag, pairs)
                assert encode_node(decode_node(data)) == data
        data = encode_node(("L", long_pairs))
        # 202 = 0xCA, 130 = 0x82: seven bits a byte, low bits first.
        assert data[:3] == b"L\xca\x01" and data[3:205] == stem
        rows = data[205:]
        assert rows == b"".join((
            b"\x00", digest,
            b"\x82\x01", b"\x00" * 130, digest,
            b"\x01\x01", digest,
        ))
        assert encode_node(("L", ())) == b"L\x00"
        assert encode_node(("B", ((b"k1", digest), (b"k22", digest)))) == (
            b"B\x01k" + b"\x011" + digest + b"\x0222" + digest
        )

    def test_an_insert_is_one_contiguous_edit(self):
        """Adding, removing or re-pointing a pair changes one run of
        bytes: the node without the pair is the node with it minus one
        row, the header unchanged while the prefix is."""
        digest = b"\x07" * 32
        pairs = [(b"k%02d" % n, digest) for n in range(0, 40, 2)]
        whole = encode_node(("L", tuple(pairs)))
        for at in range(1, len(pairs) - 1):
            fewer = encode_node(("L", tuple(pairs[:at] + pairs[at + 1:])))
            row = b"\x02" + pairs[at][0][1:] + digest
            start = whole.index(row)
            assert fewer == whole[:start] + whole[start + len(row):]
            other = encode_node(("L", tuple(
                pairs[:at] + [(pairs[at][0], b"\x09" * 32)] + pairs[at + 1:]
            )))
            assert len(other) == len(whole)
            assert other[:start + 3] == whole[:start + 3]
            assert other[start + len(row):] == whole[start + len(row):]

    def test_every_way_to_be_malformed_is_a_value_error(self):
        digest = b"\x07" * 32
        good = encode_node(("L", ((b"ka", digest), (b"kb", digest))))
        assert good == b"L\x01k" + b"\x01a" + digest + b"\x01b" + digest
        # Keys with no common prefix, minimally encoded, decode; so do
        # rows of mixed lengths.
        assert decode_node(b"L\x00\x01a" + digest + b"\x01b" + digest)
        assert decode_node(b"L\x01k\x01a" + digest + b"\x02bb" + digest)
        for data in (
            b"",
            b"L",  # no prefix length
            b"X" + good[1:],  # bad tag
            good + b"\x00",  # trailing byte: a row with no digest
            good[:-1],  # the last row cut short inside its digest
            good[:-32],  # the last row has no digest at all
            good[:-33],  # a stray length byte
            b"L\x01k\x01a" + digest + b"\x02bb" + digest[:-1],  # mixed, short
            b"L\x01k\x01b" + digest + b"\x01a" + digest,  # unsorted keys
            b"L\x01k\x01a" + digest + b"\x01a" + digest,  # duplicate key
            b"L\x01k\x02bb" + digest + b"\x01b" + digest,  # mixed, unsorted
            b"L\x80\x00\x02ka" + digest + b"\x02kb" + digest,  # prefix varint
            b"L\x01k\x81\x00a" + digest + b"\x01b" + digest,  # suffix varint
            b"L\x80",  # varint cut short
            b"L" + b"\xff" * 9 + b"\x01",  # varint past the node
            b"L\x00\x02ka" + digest + b"\x02kb" + digest,  # prefix one short
            b"L\x02ka" + digest + b"\x01b" + digest,  # prefix one long
            b"L\x05kkk",  # the prefix cut short
            b"L\x01k",  # an empty node has no prefix
            b"B\x03abc",  # nor a longer one
            # A one-pair node's prefix is its whole key.
            b"L\x01k\x01a" + digest,
            b"L\x01k\x7fa" + digest + b"\x01b" + digest,  # into the digests
            b"L\x01k\xff\x01a" + digest + b"\x01b" + digest,  # and past
        ):
            with pytest.raises(ValueError):
                decode_node(data)

    def test_encoding_refuses_a_digest_of_the_wrong_size(self):
        with pytest.raises(ValueError):
            encode_node(("L", ((b"k", b"short"),)))

    def test_encoding_checks_each_digest_not_their_sum(self):
        """31 + 33 bytes are two digests' worth, and those bytes would
        decode to another node: one byte of the second digest in the
        first."""
        with pytest.raises(ValueError):
            encode_node(("L", ((b"a", b"x" * 31), (b"b", b"y" * 33))))

    def test_encoding_refuses_keys_out_of_order(self):
        """The prefix of the first and last key is stored once, so the
        bytes of these keys would decode to ``a1, a2, a3``."""
        digest = b"\x07" * 32
        with pytest.raises(ValueError):
            encode_node(("L", ((b"a1", digest), (b"b2", digest),
                               (b"a3", digest))))


# ---------------------------------------------------------------------------
# proofs
# ---------------------------------------------------------------------------

SAMPLES = {
    name: sample
    for name, sample in {**single_ledger_samples(), **sharded_samples()}.items()
    if sample.truthful is not None
}


def _paths(node, prefix=()):
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for step, child in children:
        yield prefix + (step,), child
        yield from _paths(child, prefix + (step,))


def _node_lists(frame):
    """Paths of every list of node blobs in a proof frame."""
    return [path for path, child in _paths(frame) if path[-1] == "nodes"]


def _value_slots(frame):
    """Paths of every claimed value: a point claim's ``value`` and the
    second item of each ``entries`` pair (absences have none; a search
    predicate's operand is not a claim)."""
    return [
        path for path, child in _paths(frame)
        if isinstance(child, str) and "predicate" not in path and (
            path[-1] == "value"
            or (len(path) >= 3 and path[-3] == "entries" and path[-1] == 1)
        )
    ]


def _get(frame, path):
    for step in path:
        frame = frame[step]
    return frame


def _with(frame, path, value):
    frame = copy.deepcopy(frame)
    _get(frame, path[:-1])[path[-1]] = value
    return frame


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _flipped(text: str, at: int) -> str:
    data = bytearray(base64.b64decode(text))
    data[at % len(data)] ^= 1 << (at % 8)
    return _b64(bytes(data))


class Checked:
    """One sample with a warm verifier (it has accepted the honest
    proof) and a factory of cold ones."""

    def __init__(self, name):
        self.name = name
        value, self.digest, self.truthful = SAMPLES[name]
        self.frame = json.loads(json.dumps(encode_value(value)))
        self.warm = self.cold()
        assert self.warm.verify(decode_value(self.frame)), name

    def cold(self):
        verifier = ClientVerifier()
        verifier.trust(self.digest)
        return verifier

    def verdicts(self, frame):
        """(warm, cold) verdicts on ``frame``: never an exception,
        never a lie accepted."""
        proof = decode_value(frame)
        verdicts = []
        for verifier in (self.warm, self.cold()):
            accepted = verifier.verify(proof)  # must not raise
            assert accepted is False or self.truthful(proof), self.name
            verdicts.append(accepted)
        return verdicts


@pytest.fixture(scope="module", params=sorted(SAMPLES))
def checked(request):
    return Checked(request.param)


class TestProofsUnderNodeDamage:
    def test_every_sample_carries_nodes(self, checked):
        assert _node_lists(checked.frame)

    def test_a_flipped_bit_in_any_byte_of_any_blob(self, checked):
        for path in _node_lists(checked.frame):
            blobs = _get(checked.frame, path)
            for index, blob in enumerate(blobs):
                for at in range(len(base64.b64decode(blob))):
                    damaged = list(blobs)
                    damaged[index] = _flipped(blob, at)
                    _warm, cold = checked.verdicts(
                        _with(checked.frame, path, damaged)
                    )
                    assert cold is False, (checked.name, path, index, at)

    def test_any_blob_cut_short(self, checked):
        for path in _node_lists(checked.frame):
            blobs = _get(checked.frame, path)
            for index, blob in enumerate(blobs):
                data = base64.b64decode(blob)
                for keep in {0, 1, 4, 5, len(data) // 2, len(data) - 1}:
                    damaged = list(blobs)
                    damaged[index] = _b64(data[:keep])
                    _warm, cold = checked.verdicts(
                        _with(checked.frame, path, damaged)
                    )
                    assert cold is False, (checked.name, path, index, keep)

    def test_any_blob_dropped(self, checked):
        for path in _node_lists(checked.frame):
            blobs = _get(checked.frame, path)
            for index in range(len(blobs)):
                _warm, cold = checked.verdicts(_with(
                    checked.frame, path, blobs[:index] + blobs[index + 1:]
                ))
                assert cold is False, (checked.name, path, index)

    def test_any_two_blobs_swapped(self, checked):
        for path in _node_lists(checked.frame):
            blobs = _get(checked.frame, path)
            for first in range(len(blobs)):
                for second in range(first + 1, len(blobs)):
                    swapped = list(blobs)
                    swapped[first], swapped[second] = (
                        swapped[second], swapped[first]
                    )
                    checked.verdicts(_with(checked.frame, path, swapped))

    def test_blobs_appended_change_nothing(self, checked):
        """Junk, a well-formed node nothing names, a repeat of a node
        the proof already has: the walk never reaches them."""
        stray = encode_node(("L", ((b"stray", bytes(hash_bytes(b"x"))),)))
        honest = checked.cold()
        assert honest.verify(decode_value(checked.frame))
        for path in _node_lists(checked.frame):
            blobs = _get(checked.frame, path)
            extended = blobs + [
                _b64(b""), _b64(b"\x00junk"), _b64(stray), blobs[0]
            ]
            proof = decode_value(_with(checked.frame, path, extended))
            cold = checked.cold()
            assert checked.warm.verify(proof) and cold.verify(proof)
            assert len(cold._node_cache) == len(honest._node_cache)

    def test_a_flipped_bit_in_any_byte_of_any_claimed_value(self, checked):
        for path in _value_slots(checked.frame):
            value = _get(checked.frame, path)
            for at in range(len(base64.b64decode(value))):
                verdicts = checked.verdicts(
                    _with(checked.frame, path, _flipped(value, at))
                )
                assert verdicts == [False, False], (checked.name, path, at)

    def test_the_samples_cover_values_and_absences(self):
        slots = {
            name: len(_value_slots(encode_value(sample.value)))
            for name, sample in SAMPLES.items()
        }
        assert slots["absent"] == 0 and slots["point"] == 1
        assert slots["multi"] == 2 and slots["range"] == 8


def test_a_chain_of_nodes_deeper_than_any_tree_is_rejected_not_raised():
    value = b"v"
    blob = encode_node(("L", ((b"k", bytes(hash_bytes(value))),)))
    chain = [blob]
    for _ in range(3000):
        blob = encode_node(("B", ((b"k", bytes(hash_bytes(blob))),)))
        chain.append(blob)
    root = hash_bytes(blob)
    proof = PosRangeProof(
        low=b"a", high=b"z", entries=((b"k", value),),
        nodes=tuple(reversed(chain)), root=root,  # root first: walk order
    )
    assert proof.verify(root) is False


# ---------------------------------------------------------------------------
# one replay
# ---------------------------------------------------------------------------


@contextmanager
def _counted(blobs):
    """Per blob of ``blobs``: the SHA-256 runs over it, whoever asks
    :mod:`repro.crypto.hashing`, and the verifier's decodes of it."""
    blobs = frozenset(blobs)
    hashed, decoded = Counter(), Counter()
    real = hashing.hashlib

    class CountingHashlib:
        @staticmethod
        def sha256(data=b""):
            if data in blobs:
                hashed[data] += 1
            return real.sha256(data)

    def decode(data):
        if data in blobs:
            decoded[data] += 1
        return decode_node(data)

    with mock.patch.object(hashing, "hashlib", CountingHashlib):
        with mock.patch.object(siri, "decode_node", decode):
            yield hashed, decoded


def _holding(blobs):
    """A node cache that has hash-checked exactly ``blobs``."""
    cache = NodeCache()
    for blob in blobs:
        cache_node(cache, hash_bytes(blob), blob)
    return cache


def _damaged(blobs):
    """Every node-list mutation the sample fuzz above applies, by name."""
    for index, blob in enumerate(blobs):
        before, after = blobs[:index], blobs[index + 1:]
        for at in {0, len(blob) // 2, len(blob) - 1}:
            data = bytearray(blob)
            data[at] ^= 1 << (at % 8)
            yield "flipped", before + (bytes(data),) + after
        for keep in {0, 5, len(blob) - 1}:
            yield "cut", before + (blob[:keep],) + after
        yield "dropped", before + after
        for second in range(index + 1, len(blobs)):
            swapped = list(blobs)
            swapped[index], swapped[second] = blobs[second], blobs[index]
            yield "swapped", tuple(swapped)
    yield "appended", blobs + (b"", b"\x00junk", blobs[0])


small_keys = st.text(alphabet="abcd", min_size=1, max_size=4).map(str.encode)
trees = st.dictionaries(
    small_keys, st.binary(max_size=6), min_size=1, max_size=90
).map(lambda items: PosTree.from_items(ChunkStore(), list(items.items()), 2))
key_sets = st.lists(small_keys, min_size=1, max_size=6)
REPLAY = settings(FIXED, max_examples=60)


def _forged(value):
    """A claim about a key that ``value`` (None: absent) makes false."""
    return None if value is not None else b"forged!"


def _honest(tree, keys, bounds):
    """A point, a multi and a range proof as the server builds them, each
    with a copy that makes one false claim over the same nodes."""
    low, high = sorted(bounds)
    point = tree.get_with_proof(keys[0])[1]
    multi = tree.get_many_with_proof(keys)[1]
    ranged = tree.scan_with_proof(low, high)[1]
    (key, value), rest = multi.entries[0], multi.entries[1:]
    return (
        (point, dataclasses.replace(point, value=_forged(point.value))),
        (multi, dataclasses.replace(
            multi, entries=((key, _forged(value)),) + rest
        )),
        (ranged, dataclasses.replace(
            ranged, entries=ranged.entries[1:] or ((low, b"forged!"),)
        )),
    )


def _subset(data, blobs):
    return data.draw(st.sets(st.sampled_from(blobs)), label="nodes held")


class TestOneReplay:
    @REPLAY
    @given(trees, key_sets, st.tuples(small_keys, small_keys), st.data())
    def test_honest_proofs_verify_and_a_hit_costs_no_hash(
        self, tree, keys, bounds, data
    ):
        for proof, _lie in _honest(tree, keys, bounds):
            held = _subset(data, proof.nodes)
            cache = _holding(held)
            missed = Counter(set(proof.nodes) - held)
            with _counted(proof.nodes) as (hashed, decoded):
                assert proof.verify(tree.root, cache)
                assert hashed == missed  # once per miss, never on a hit
                assert decoded == missed
                assert proof.verify(tree.root, cache)  # now all hits
                assert hashed == missed and decoded == missed
            assert len(cache) == len(proof.nodes)
            assert sum(decoded.values()) <= sum(missed.values()) <= len(
                proof.nodes
            )

    @REPLAY
    @given(trees, small_keys, st.data())
    def test_a_point_proof_is_the_one_key_multiproof(self, tree, key, data):
        value, point = tree.get_with_proof(key)
        multi = tree.get_many_with_proof([key])[1]
        assert multi.nodes == point.nodes
        held = _subset(data, point.nodes)
        claims = (value, _forged(value))
        cases = [("honest", point.nodes), *_damaged(point.nodes)]
        for claimed in claims:
            for name, nodes in cases:
                as_point = dataclasses.replace(
                    point, value=claimed, nodes=nodes
                )
                as_multi = dataclasses.replace(
                    multi, entries=((key, claimed),), nodes=nodes
                )
                for warm in (False, True):
                    caches = [_holding(held if warm else ()) for _ in "pm"]
                    verdicts = [
                        PosTree.verify_proof(as_point, tree.root, caches[0]),
                        as_multi.verify(tree.root, caches[1]),
                    ]
                    assert verdicts[0] is verdicts[1], (name, warm)
                    assert set(caches[0]) == set(caches[1]), (name, warm)
                    assert verdicts[0] is False or claimed == value
                assert PosTree.verify_proof(
                    as_point, tree.root
                ) is as_multi.verify(tree.root)

    @REPLAY
    @given(trees, key_sets, st.tuples(small_keys, small_keys), st.data())
    def test_dropped_or_swapped_fails_cold_and_warm_accepts_no_lie(
        self, tree, keys, bounds, data
    ):
        for proof, lie in _honest(tree, keys, bounds):
            held = _subset(data, proof.nodes)
            assert not lie.verify(tree.root, _holding(proof.nodes))
            for name, nodes in _damaged(proof.nodes):
                if name in ("dropped", "swapped"):
                    damaged = dataclasses.replace(proof, nodes=nodes)
                    assert damaged.verify(tree.root) is False, name
                    assert damaged.verify(tree.root, NodeCache()) is False
                for cache in (_holding(held), _holding(proof.nodes)):
                    damaged = dataclasses.replace(lie, nodes=nodes)
                    assert damaged.verify(tree.root, cache) is False, name

    @REPLAY
    @given(trees, small_keys)
    def test_a_path_that_stops_short_of_a_leaf_is_false_not_an_error(
        self, tree, key
    ):
        point = tree.get_with_proof(key)[1]
        for proof in (point, tree.get_many_with_proof([key])[1]):
            for kept in range(len(point.nodes)):
                short = dataclasses.replace(proof, nodes=point.nodes[:kept])
                assert short.verify(tree.root) is False
                # Holding what it was sent, it needs the next blob still.
                cache = _holding(short.nodes)
                assert short.verify(tree.root, cache) is False
                assert len(cache) == kept

    def test_a_hit_costs_no_hash_through_the_client_verifier(self, checked):
        """Search evidence and every sharded part replay the same way."""
        proof = decode_value(checked.frame)
        blobs = list(dict.fromkeys(proof.cacheable_nodes))
        for held in ((), blobs[::2], blobs[1::2], blobs):
            verifier = checked.cold()
            for blob in held:
                cache_node(verifier._node_cache, hash_bytes(blob), blob)
            missed = Counter(set(blobs) - set(held))
            with _counted(blobs) as (hashed, decoded):
                assert verifier.verify(proof)
            assert hashed == missed and decoded == missed, checked.name
            assert verifier.cache_misses == len(missed)
            assert len(verifier._node_cache) == len(blobs)


class TestNoPickleOnTheProofPath:
    def test_every_proof_kind_decodes_and_verifies_without_pickle(
        self, monkeypatch
    ):
        samples = {**single_ledger_samples(), **sharded_samples()}
        frames = {
            name: json.dumps(encode_value(sample.value))
            for name, sample in samples.items()
        }
        db = SpitzDatabase()
        db.put(b"k", b"v")
        bundle = make_bundle(db.ledger, b"k\x00k").serialize()

        def refuse(*_args, **_kwargs):
            raise AssertionError("pickle reached from the proof path")

        for name in ("loads", "load", "Unpickler"):
            monkeypatch.setattr(pickle, name, refuse)
        for name, (value, digest, truthful) in samples.items():
            decoded = decode_value(json.loads(frames[name]))
            assert decoded == value, name
            if truthful is not None:
                verifier = ClientVerifier()
                verifier.trust(digest)
                assert verifier.verify(decoded), name
        assert verify_bundle(ProofBundle.deserialize(bundle), db.digest())[0]
