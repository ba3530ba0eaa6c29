"""Sharded proofs across the service plane.

The wire codec must frame sharded digests and proofs so a remote
client decodes objects that still verify; the cluster/request-handler
path must serve them; and the full HTTP loop must round-trip a
verified sharded read end to end.
"""

import json

import pytest

from repro.core.node import SpitzCluster
from repro.core.request_handler import Request, RequestKind
from repro.core.verifier import ClientVerifier
from repro.serve.codec import (
    WireCodecError,
    decode_response,
    decode_value,
    encode_response,
    encode_value,
)
from repro.shard import ShardedDatabase, ShardedDigest, ShardedProof


def _loaded(num_shards=4, writes=24):
    db = ShardedDatabase(num_shards=num_shards)
    for i in range(writes):
        db.put(b"wk%02d" % i, b"wv%02d" % i)
    return db


def _json_roundtrip(frame):
    """Force a real serialization: whatever survives json does."""
    return json.loads(json.dumps(frame))


class TestShardedCodec:
    def test_sharded_digest_roundtrip(self):
        digest = _loaded().digest()
        decoded = decode_value(_json_roundtrip(encode_value(digest)))
        assert isinstance(decoded, ShardedDigest)
        assert decoded == digest

    def test_point_proof_roundtrip_still_verifies(self):
        db = _loaded()
        value, proof = db.get_verified(b"wk05")
        decoded = decode_value(_json_roundtrip(encode_value(proof)))
        assert isinstance(decoded, ShardedProof)
        assert decoded.value == value
        assert decoded.digest == proof.digest
        assert decoded.size_bytes == proof.size_bytes
        verifier = ClientVerifier()
        verifier.trust(decoded.digest)
        assert verifier.verify(decoded)

    def test_multi_proof_roundtrip_still_verifies(self):
        db = _loaded()
        keys = [b"wk02", b"missing", b"wk19"]
        values, proof = db.get_many_verified(keys)
        decoded = decode_value(_json_roundtrip(encode_value(proof)))
        assert [v for _, v in decoded.entries] == values
        verifier = ClientVerifier()
        verifier.trust(decoded.digest)
        assert verifier.verify(decoded)

    def test_response_envelope_carries_sharded_digest(self):
        db = _loaded()
        value, proof = db.get_verified(b"wk05")
        from repro.core.request_handler import Response

        frame = _json_roundtrip(
            encode_response(
                Response(
                    ok=True, result=value, proof=proof, digest=proof.digest
                )
            )
        )
        response = decode_response(frame)
        assert isinstance(response.digest, ShardedDigest)
        verifier = ClientVerifier()
        verifier.trust(response.digest)
        assert verifier.verify(response.proof)

    def test_tampered_wire_value_fails_verification(self):
        db = _loaded()
        _value, proof = db.get_verified(b"wk05")
        frame = encode_value(proof)
        # A man-in-the-middle swaps the served value bytes.
        import base64

        frame["$sharded_proof"]["inner"]["siri"]["value"] = (
            base64.b64encode(b"evil").decode()
        )
        decoded = decode_value(_json_roundtrip(frame))
        verifier = ClientVerifier()
        verifier.trust(decoded.digest)
        assert not verifier.verify(decoded)

    def test_malformed_frames_raise_codec_errors(self):
        with pytest.raises(WireCodecError):
            decode_value({"$sharded_digest": {"num_shards": 1}})
        with pytest.raises(WireCodecError):
            decode_value({"$sharded_proof": {"inner": {}}})
        with pytest.raises(WireCodecError):
            decode_value(
                {"$sharded_digest": {
                    "num_shards": 2, "height": 3, "root": "zz"
                }}
            )


class TestShardedCluster:
    def test_cluster_serves_verified_sharded_reads(self):
        cluster = SpitzCluster(nodes=2, shards=4)
        cluster.start()
        try:
            for i in range(16):
                response = cluster.submit(
                    Request(
                        RequestKind.PUT,
                        {"key": b"ck%02d" % i, "value": b"cv%02d" % i},
                    )
                )
                assert response.ok, response.error
            response = cluster.submit(
                Request(
                    RequestKind.GET, {"key": b"ck09"}, verify=True
                )
            )
            assert response.ok
            assert isinstance(response.digest, ShardedDigest)
            verifier = ClientVerifier()
            verifier.trust(response.digest)
            assert verifier.verify(response.proof)
            assert response.proof.value == b"cv09"
        finally:
            cluster.stop()

    def test_served_proof_and_digest_stay_in_sync(self):
        """The handler serves the digest the proof was built against,
        not a re-derived one that a concurrent write could tear."""
        cluster = SpitzCluster(nodes=1, shards=2)
        cluster.start()
        try:
            cluster.submit(
                Request(RequestKind.PUT, {"key": b"sync", "value": b"v"})
            )
            response = cluster.submit(
                Request(RequestKind.GET, {"key": b"sync"}, verify=True)
            )
            assert response.digest == response.proof.digest
        finally:
            cluster.stop()


class TestShardedHttp:
    def test_http_end_to_end_verified_read(self):
        from repro.serve.client import HttpClusterClient
        from repro.serve.server import serve_cluster

        service = serve_cluster(nodes=2, port=0, shards=4)
        try:
            host, port = service.address.rsplit(":", 1)
            with HttpClusterClient(host, int(port)) as client:
                for i in range(12):
                    client.put(b"hk%d" % i, b"hv%d" % i)
                response = client.get(b"hk7", verify=True)
                assert response.ok, response.error
                verifier = ClientVerifier()
                verifier.trust(response.digest)
                assert verifier.verify(response.proof)
                assert response.proof.value == b"hv7"
                batch = client.get_many(
                    [b"hk1", b"hk5", b"gone"], verify=True
                )
                assert batch.ok, batch.error
                verifier.observe(batch.digest)
                verifier.verify_or_raise(batch.proof)
                assert [v for _, v in batch.proof.entries] == [
                    b"hv1", b"hv5", None,
                ]
        finally:
            service.stop()
