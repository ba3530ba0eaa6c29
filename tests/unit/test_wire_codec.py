"""Unit tests for the JSON wire codec (``repro.serve.codec``).

The codec is the trust boundary of the service plane: everything a
remote client learns about the database crosses it.  The tests pin
three properties:

- **round trip**: every RequestKind and every Response shape decode
  back to objects the in-process path would have produced (each proof
  and digest frame kind: ``test_wire_frames.py``, golden frames);
- **strictness**: malformed frames (bad base64, unknown kinds) raise
  :class:`WireCodecError`, never arbitrary exceptions (every path of
  every proof frame: ``test_wire_frames.py``, the mutation sweep);
- **JSON safety**: every encoded frame survives ``json.dumps`` —
  there is no object that encodes but cannot be put on the wire.
"""

import json

import pytest

from repro.core.database import SpitzDatabase
from repro.core.ledger import LedgerDigest
from repro.core.proofs import LedgerMultiProof, LedgerProof
from repro.core.request_handler import Request, RequestKind, Response
from repro.core.verifier import ClientVerifier
from repro.serve.codec import (
    WireCodecError,
    decode_request,
    decode_response,
    decode_value,
    encode_request,
    encode_response,
    encode_value,
    to_jsonable,
)


def _roundtrip_value(value):
    return decode_value(json.loads(json.dumps(encode_value(value))))


def _loaded_db(n: int = 8) -> SpitzDatabase:
    db = SpitzDatabase(block_batch=4)
    for i in range(n):
        db.put(b"key:%02d" % i, b"value-%d" % i)
    db.flush_ledger()
    return db


class TestValueFraming:
    def test_scalars_pass_through(self):
        for value in (None, True, False, 0, -3, 1.5, "text", ""):
            assert _roundtrip_value(value) == value

    def test_bytes_are_tagged_base64(self):
        frame = encode_value(b"\x00\xffbinary")
        assert set(frame) == {"$bytes"}
        assert decode_value(frame) == b"\x00\xffbinary"

    def test_nested_containers_roundtrip(self):
        value = {"a": [b"x", {"b": b"y"}, 3], "c": "s"}
        assert _roundtrip_value(value) == value

    def test_tuples_become_lists(self):
        assert encode_value((1, 2)) == [1, 2]
        assert _roundtrip_value((b"a", b"b")) == [b"a", b"b"]

    def test_ledger_digest_roundtrips_with_type(self):
        digest = _loaded_db().digest()
        back = _roundtrip_value(digest)
        assert isinstance(back, LedgerDigest)
        assert back == digest
        assert type(back.chain_digest) is bytes

    def test_unencodable_object_raises(self):
        with pytest.raises(WireCodecError):
            encode_value(object())

    def test_non_string_dict_key_raises(self):
        with pytest.raises(WireCodecError):
            encode_value({1: "x"})

    def test_bad_base64_raises_codec_error(self):
        with pytest.raises(WireCodecError):
            decode_value({"$bytes": "!!! not base64 !!!"})

    @pytest.mark.parametrize("text", ["QR==", "QUF="])
    def test_base64_with_nonzero_unused_bits_raises(self, text):
        # "QQ==" and "QUE=" are the canonical texts of b"A" and b"AA".
        with pytest.raises(WireCodecError):
            decode_value({"$bytes": text})


class TestCanonicalDigests:
    """A digest field is exactly 64 lower-case hex digits: one text
    per digest, as the encoder writes it."""

    @staticmethod
    def _frame_with_chain_digest(edit):
        frame = encode_value(_loaded_db().digest())
        fields = frame["$ledger_digest"]
        fields["chain_digest"] = edit(fields["chain_digest"])
        return frame

    def test_the_encoded_text_decodes(self):
        frame = self._frame_with_chain_digest(lambda text: text)
        assert decode_value(frame) == _loaded_db().digest()

    def test_upper_case_hex_raises(self):
        frame = self._frame_with_chain_digest(str.upper)
        with pytest.raises(WireCodecError):
            decode_value(frame)

    def test_space_separated_hex_raises(self):
        frame = self._frame_with_chain_digest(
            lambda text: " ".join(
                text[i:i + 2] for i in range(0, len(text), 2)
            )
        )
        with pytest.raises(WireCodecError):
            decode_value(frame)

    def test_trailing_space_raises(self):
        frame = self._frame_with_chain_digest(lambda text: text + " ")
        with pytest.raises(WireCodecError):
            decode_value(frame)


class TestProofFraming:
    def test_tampered_multi_proof_fails_verification_not_decoding(self):
        db = _loaded_db()
        _values, proof = db.get_many_verified([b"key:01", b"key:02"])
        frame = encode_value(proof)
        entries = frame["$multi_proof"]["entries"]
        entries[0][1] = entries[1][1]  # claim another key's value
        back = decode_value(frame)
        assert isinstance(back, LedgerMultiProof)
        verifier = ClientVerifier()
        verifier.trust(db.digest())
        assert not verifier.verify(back)

    def test_tampered_proof_fails_verification_not_decoding(self):
        # A syntactically valid frame with a flipped byte must decode
        # fine (the codec is not the verifier) and then fail the
        # client-side check — tampering is caught where the paper says
        # it is, at verification.
        db = _loaded_db()
        _value, proof = db.get_verified(b"key:01")
        frame = encode_value(proof)
        good = frame["$proof"]["block"]["tree_root"]
        frame["$proof"]["block"]["tree_root"] = (
            ("0" if good[0] != "0" else "1") + good[1:]
        )
        back = decode_value(frame)
        verifier = ClientVerifier()
        verifier.trust(db.digest())
        assert not verifier.verify(back)


class TestRequestEnvelopes:
    PAYLOADS = {
        RequestKind.GET: {"key": b"k"},
        RequestKind.MULTI_GET: {"keys": [b"a", b"b", b"c"]},
        RequestKind.PUT: {"key": b"k", "value": b"v"},
        RequestKind.DELETE: {"key": b"k"},
        RequestKind.SCAN: {"low": b"a", "high": b"z"},
        RequestKind.SQL: {"statement": "SELECT 1"},
        RequestKind.HISTORY: {"key": b"k"},
        RequestKind.DIGEST: {},
        RequestKind.STATS: {"traces": True},
        RequestKind.SEARCH: {
            "column": "items.price",
            "predicate": {"op": "ge", "value": 10.0},
        },
    }

    def test_every_kind_roundtrips(self):
        # Parametrized by hand so a new RequestKind without a payload
        # entry fails loudly here.
        assert set(self.PAYLOADS) == set(RequestKind)
        for kind, payload in self.PAYLOADS.items():
            request = Request(kind, payload, verify=True)
            frame = json.loads(json.dumps(encode_request(request)))
            back = decode_request(frame)
            assert back.kind is kind
            assert back.payload == payload
            assert back.verify is True

    def test_unknown_kind_raises(self):
        with pytest.raises(WireCodecError):
            decode_request({"kind": "drop-table", "payload": {}})

    def test_non_object_frame_raises(self):
        with pytest.raises(WireCodecError):
            decode_request(["get"])

    def test_non_object_payload_raises(self):
        with pytest.raises(WireCodecError):
            decode_request({"kind": "get", "payload": [1, 2]})


class TestResponseEnvelopes:
    def test_ok_response_with_proof_and_digest(self):
        db = _loaded_db()
        value, proof = db.get_verified(b"key:04")
        response = Response(
            ok=True, result=value, proof=proof, digest=db.digest()
        )
        frame = json.loads(json.dumps(encode_response(response)))
        back = decode_response(frame)
        assert back.ok and back.result == value
        assert isinstance(back.proof, LedgerProof)
        assert back.digest == db.digest()
        verifier = ClientVerifier()
        verifier.trust(back.digest)
        verifier.verify_or_raise(back.proof)

    def test_error_response_keeps_retryable_flag(self):
        response = Response(
            ok=False, error="shed after deadline", retryable=True
        )
        back = decode_response(
            json.loads(json.dumps(encode_response(response)))
        )
        assert not back.ok
        assert back.retryable is True
        assert back.error == "shed after deadline"

    def test_bad_digest_frame_raises(self):
        with pytest.raises(WireCodecError):
            decode_response({"ok": True, "digest": {"$bytes": "AAAA"}})


class TestToJsonable:
    def test_snapshot_dict_is_json_safe(self):
        db = _loaded_db()
        payload = to_jsonable(db.metrics_snapshot())
        json.dumps(payload)  # must not raise
        assert set(payload) >= {"counters", "gauges", "histograms"}

    def test_exotic_values_degrade_to_repr_not_raise(self):
        class Weird:
            def __repr__(self):
                return "<weird>"

        payload = to_jsonable({"x": Weird(), (1, 2): "pair-key"})
        json.dumps(payload)
        assert payload["x"] == "<weird>"
        assert payload["(1, 2)"] == "pair-key"

    def test_proofs_still_frame_structurally(self):
        db = _loaded_db()
        _value, proof = db.get_verified(b"key:00")
        payload = to_jsonable({"proof": proof})
        json.dumps(payload)
        assert "$proof" in payload["proof"]
