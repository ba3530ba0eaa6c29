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
- **no pickle** — with ``pickle.loads``, ``pickle.load`` and
  ``pickle.Unpickler`` made to raise, every proof kind still decodes
  from its wire frame and verifies.

Runs under one fixed Hypothesis profile: same examples every run.
"""

import base64
import copy
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.audit import ProofBundle, make_bundle, verify_bundle
from repro.core.database import SpitzDatabase
from repro.core.verifier import ClientVerifier
from repro.crypto.hashing import hash_bytes
from repro.indexes.pos_tree import PosRangeProof
from repro.indexes.siri import decode_node, encode_node
from repro.serve.codec import decode_value, encode_value
from tests.wire_samples import sharded_samples, single_ledger_samples

settings.register_profile(
    "node-fuzz", derandomize=True, deadline=None, max_examples=300
)
FIXED = settings.get_profile("node-fuzz")

nodes = st.builds(
    lambda tag, pairs: (tag, tuple(sorted(pairs.items()))),
    st.sampled_from("LB"),
    st.dictionaries(
        st.binary(max_size=12), st.binary(min_size=32, max_size=32),
        max_size=12,
    ),
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

    def test_every_way_to_be_malformed_is_a_value_error(self):
        digest = b"\x07" * 32
        good = encode_node(("L", ((b"a", digest), (b"b", digest))))
        head = good[:1] + (2).to_bytes(4, "big")
        lengths = (1).to_bytes(4, "big") * 2
        for data in (
            b"",
            good[:4],  # shorter than a header
            b"X" + good[1:],  # bad tag
            good + b"\x00",  # trailing byte
            good[:-1],  # missing byte
            b"L" + (2**32 - 1).to_bytes(4, "big") + good[5:],  # oversize count
            head + lengths + b"ba" + digest * 2,  # unsorted keys
            head + lengths + b"aa" + digest * 2,  # duplicate key
            head + (2**31).to_bytes(4, "big") * 2 + b"ab" + digest * 2,
        ):
            with pytest.raises(ValueError):
                decode_node(data)

    def test_encoding_refuses_a_digest_of_the_wrong_size(self):
        with pytest.raises(ValueError):
            encode_node(("L", ((b"k", b"short"),)))


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
        nodes=tuple(chain), root=root,
    )
    assert proof.verify(root) is False


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
