"""The wire format as data: golden frames, a mutation sweep, extension.

- **golden frames** — the JSON each proof/digest kind encodes to:
  single-ledger frames must stay byte-identical, sharded frames
  (stamped from a clock) keep their keys and shapes.  Node layouts v2
  and v3 moved the node blobs and every digest, so the file was
  regenerated each time (``python -m tests.wire_samples``; CI fails
  when the file is not what the samples produce) — and is held to the keys, leaf
  types and field order of the frames it replaced, captured from the
  v1 file as ``golden_wire_frame_skeletons.json``;
- **mutation sweep** — every path of every frame kind × a fixed junk
  set, every key of every object dropped and every object given a
  stray key: ``decode_value`` raises nothing but :class:`WireCodecError`,
  what it does accept re-encodes to exactly what was sent (nothing is
  coerced), and ``ClientVerifier.verify`` never raises and says
  ``True`` only to a proof whose every claim is true of the database;
- **extension** — a proof kind defined right here, given one table
  entry, crosses the codec and the verifier without either module
  knowing about it.
"""

import copy
import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.core.proofs import BlockWitness
from repro.core.verifier import ClientVerifier
from repro.errors import TamperDetectedError
from repro.indexes.siri import SiriProof
from repro.serve import codec
from repro.serve.codec import WireCodecError, decode_value, encode_value
from tests.wire_samples import sharded_samples, single_ledger_samples

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_wire_frames.json").read_text()
)
#: Per frame kind, what the v1 golden frame looked like with its bytes
#: taken out (:func:`_skeleton`).
SKELETONS = json.loads(
    (Path(__file__).parent / "golden_wire_frame_skeletons.json").read_text()
)

#: What a mutated frame gets in place of each node, container or leaf.
JUNK = (None, -1, 1.5, 2**70, "", "zz", [], {}, True, {"$bytes": "AAAA"})

@pytest.fixture(scope="module")
def samples():
    return {**single_ledger_samples(), **sharded_samples()}


def _shape(node):
    """A frame with every leaf replaced by its type (and its length,
    for strings: a digest stays a digest, a blob keeps its size)."""
    if isinstance(node, dict):
        return {key: _shape(item) for key, item in node.items()}
    if isinstance(node, list):
        return [_shape(item) for item in node]
    if isinstance(node, str):
        return ("str", len(node))
    return type(node).__name__


def _skeleton(node):
    """A frame with its bytes taken out: objects as their ``[key,
    skeleton]`` rows *in order*, lists as the distinct skeletons of
    their items (a path may grow or lose a node), leaves as ``digest``
    (64 hex characters) or their type."""
    if isinstance(node, dict):
        return [[key, _skeleton(item)] for key, item in node.items()]
    if isinstance(node, list):
        kinds = []
        for item in map(_skeleton, node):
            if item not in kinds:
                kinds.append(item)
        return sorted(kinds, key=json.dumps)
    if isinstance(node, str) and len(node) == 64 and (
        set(node) <= set("0123456789abcdef")
    ):
        return "digest"
    return type(node).__name__


class TestGoldenFrames:
    def test_every_kind_has_a_golden_frame(self, samples):
        assert set(samples) == set(GOLDEN) == set(SKELETONS)

    def test_regenerated_frames_keep_v1_keys_types_and_field_order(self):
        for name, frame in GOLDEN.items():
            assert _skeleton(json.loads(frame)) == SKELETONS[name], name

    def test_single_ledger_frames_are_byte_identical(self):
        for name, (value, *_) in single_ledger_samples().items():
            assert json.dumps(encode_value(value)) == GOLDEN[name], name

    def test_sharded_frames_keep_keys_and_shapes(self):
        for name, (value, *_) in sharded_samples().items():
            assert _shape(encode_value(value)) == _shape(
                json.loads(GOLDEN[name])
            ), name

    def test_frames_decode_to_the_object_they_encode(self, samples):
        for name, (value, *_) in samples.items():
            wire = json.loads(json.dumps(encode_value(value)))
            assert decode_value(wire) == value, name


def _paths(node, prefix=()):
    """Every path below ``node``: containers and leaves alike."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for step, child in children:
        yield prefix + (step,)
        yield from _paths(child, prefix + (step,))


#: Structural mutations of an object node: one key gone, one key more.
DROP, EXTRA = object(), object()


def _mutated(frame, path, junk):
    frame = copy.deepcopy(frame)
    node = frame
    for step in path[:-1]:
        node = node[step]
    if junk is DROP:
        del node[path[-1]]
    elif junk is EXTRA:
        node[path[-1]]["extra"] = 1
    else:
        node[path[-1]] = copy.deepcopy(junk)
    return frame


def _mutations(frame):
    """``(path, junk)`` for every junk value at every path, plus every
    key of every object dropped and every object given a stray key."""
    for path in _paths(frame):
        node = frame
        for step in path[:-1]:
            node = node[step]
        for junk in JUNK:
            yield path, junk
        if isinstance(node, dict) and len(path) > 1:
            yield path, DROP
        if isinstance(node[path[-1]], dict):
            yield path, EXTRA


def sweep(samples):
    """Run the mutation sweep; returns ``(cases, escapes)`` where an
    escape is ``(kind, path, junk, what went wrong)``."""
    cases, escapes = 0, []
    for name, (value, digest, truthful) in samples.items():
        frame = json.loads(json.dumps(encode_value(value)))
        warm = ClientVerifier()
        warm.trust(digest)
        if truthful is not None:
            assert truthful(value) and warm.verify(decode_value(frame)), name
        for path, junk in _mutations(frame):
            cases += 1
            sent = _mutated(frame, path, junk)
            try:
                decoded = decode_value(sent)
            except WireCodecError:
                continue
            except Exception as error:
                escapes.append(
                    (name, path, junk, f"decode: {type(error).__name__}")
                )
                continue
            if junk is DROP or junk is EXTRA:
                escapes.append((name, path, junk, "decode: wrong keys"))
            if encode_value(decoded) != sent:
                escapes.append((name, path, junk, "decode: coerced"))
            if truthful is None:
                continue
            cold = ClientVerifier()
            cold.trust(digest)
            for verifier in (warm, cold):
                try:
                    accepted = verifier.verify(decoded)
                except Exception as error:
                    escapes.append(
                        (name, path, junk, f"verify: {type(error).__name__}")
                    )
                    continue
                if accepted and not truthful(decoded):
                    escapes.append(
                        (name, path, junk, "verify: accepted a lie")
                    )
    return cases, escapes


class TestMutationSweep:
    def test_nothing_escapes(self, samples):
        cases, escapes = sweep(samples)
        assert cases > 3000
        assert escapes == []

    def test_a_tag_with_sibling_keys_is_rejected(self, samples):
        frame = encode_value(samples["point"][0])
        frame["extra"] = 1
        with pytest.raises(WireCodecError):
            decode_value(frame)

    def test_numeric_strings_floats_and_bools_are_not_ints(self, samples):
        (tag, body), = encode_value(samples["ledger_digest"][0]).items()
        for height in ("7", 7.0, True, -7):
            with pytest.raises(WireCodecError):
                decode_value({tag: {**body, "height": height}})


class TestNewProofKind:
    def test_one_dataclass_and_one_table_entry(self, samples, monkeypatch):
        # The registration lands in copies the fixture throws away.
        monkeypatch.setattr(codec, "_DECODE_TAG", dict(codec._DECODE_TAG))
        monkeypatch.setattr(codec, "_ENCODE_TYPE", dict(codec._ENCODE_TYPE))

        @dataclass(frozen=True)
        class PairProof:
            """Two keys read under one block: the two anchor-and-check
            steps the library proofs use, composed here."""

            first: SiriProof
            second: SiriProof
            block: BlockWitness

            @property
            def cacheable_nodes(self):
                return self.first.nodes + self.second.nodes

            @property
            def label(self):
                return f"pair:{self.first.key!r}+{self.second.key!r}"

            @property
            def size_bytes(self):
                return self.first.size_bytes + self.second.size_bytes

            def verify(self, trusted, node_cache=None, block_cache=None):
                root = self.block.anchor(trusted, block_cache)
                return root is not None and all(
                    path.verify(root, node_cache)
                    for path in (self.first, self.second)
                )

        codec.tagged(
            "$pair_proof", PairProof,
            ("first", codec.POINT), ("second", codec.POINT),
            ("block", codec.BLOCK),
        )
        point, digest, _truthful = samples["point"]
        absent = samples["absent"].value
        proof = PairProof(point.siri, absent.siri, point.block)
        wire = json.loads(json.dumps(encode_value(proof)))
        assert set(wire) == {"$pair_proof"}
        back = decode_value(wire)
        assert back == proof

        verifier = ClientVerifier()
        verifier.trust(digest)
        assert verifier.verify(back)
        assert verifier.cache_hits + verifier.cache_misses == len(
            back.cacheable_nodes
        )
        assert verifier.cache_misses == len(set(back.cacheable_nodes))
        assert verifier.verify(back)
        assert verifier.cache_misses == len(set(back.cacheable_nodes))

        wire["$pair_proof"]["second"]["value"] = {"x": 1}
        with pytest.raises(WireCodecError):
            decode_value(wire)
        wire["$pair_proof"]["second"]["value"] = wire["$pair_proof"][
            "first"]["value"]
        with pytest.raises(TamperDetectedError, match="pair:"):
            verifier.verify_or_raise(decode_value(wire))
