"""Unit tests for the audit module (replicas, forks, proof bundles)."""

import dataclasses

import pytest

from repro.core.audit import (
    ProofBundle,
    audit_ledger,
    compare_replicas,
    make_bundle,
    verify_bundle,
)
from repro.core.database import SpitzDatabase
from repro.core.ledger import SpitzLedger
from repro.crypto.hashing import hash_bytes
from repro.errors import ChunkNotFoundError, VerificationError
from repro.forkbase.chunk_store import Delta
from repro.indexes.siri import decode_node


def _ledger(writes):
    ledger = SpitzLedger()
    for key, value in writes:
        ledger.append_block({key: value})
    return ledger


class TestCompareReplicas:
    def test_identical_replicas(self):
        writes = [(f"k{i}".encode(), b"v") for i in range(5)]
        report = compare_replicas(_ledger(writes), _ledger(writes))
        assert report.consistent
        assert report.common_prefix == 5

    def test_lagging_replica_is_consistent(self):
        writes = [(f"k{i}".encode(), b"v") for i in range(5)]
        report = compare_replicas(_ledger(writes), _ledger(writes[:3]))
        assert report.consistent
        assert report.common_prefix == 3
        assert "behind" in report.detail

    def test_fork_detected_at_first_divergence(self):
        shared = [(f"k{i}".encode(), b"v") for i in range(3)]
        a = _ledger(shared + [(b"x", b"honest")])
        b = _ledger(shared + [(b"x", b"forged")])
        report = compare_replicas(a, b)
        assert not report.consistent
        assert report.fork_height == 3
        assert report.common_prefix == 3

    def test_divergence_propagates_forward(self):
        a = _ledger([(b"a", b"1"), (b"b", b"2")])
        b = _ledger([(b"a", b"other"), (b"b", b"2")])
        report = compare_replicas(a, b)
        assert report.fork_height == 0


class TestAuditLedger:
    def test_clean_ledger(self):
        ledger = _ledger([(f"k{i}".encode(), b"v") for i in range(10)])
        assert audit_ledger(ledger) == []

    def test_detects_rewritten_block(self):
        ledger = _ledger([(f"k{i}".encode(), b"v") for i in range(5)])
        block = ledger._blocks[2]
        ledger._blocks[2] = dataclasses.replace(
            block, writes_digest=ledger._blocks[0].writes_digest
        )
        findings = audit_ledger(ledger)
        assert any("#2" in finding for finding in findings)

    def test_detects_broken_link(self):
        ledger = _ledger([(f"k{i}".encode(), b"v") for i in range(5)])
        block = ledger._blocks[3]
        ledger._blocks[3] = dataclasses.replace(
            block, previous_chain_digest=ledger._blocks[0].chain_digest
        )
        findings = audit_ledger(ledger)
        assert findings


    def test_detects_a_block_whose_index_root_left_the_store(self):
        """Each block inserts a key, so a retired root is a delta against
        the next one (block #0's one-pair root too, since a delta names
        its base in a byte): losing block #2's root loses blocks #0 and
        #1's, and the audit names each of them, once."""
        ledger = _ledger([(f"k{i}".encode(), b"v") for i in range(5)])
        dropped = ledger.block(2).tree_root
        lost = self._stored_against(ledger.chunks, dropped)
        assert lost == {ledger.block(0).tree_root, ledger.block(1).tree_root}
        del ledger.chunks._entries[dropped]
        ledger.chunks.decode_cache.clear()  # as after a reload
        findings = audit_ledger(ledger)
        assert len(findings) == 1 + len(lost)
        assert all("index node" in f and "missing" in f for f in findings)
        assert f"block #2: index node {dropped.hex()[:12]} missing" in findings
        assert {f.split()[1] for f in findings} == {"#0:", "#1:", "#2:"}

    def _deep_ledger(self):
        """Three-level trees, one block per key after a bulk first."""
        ledger = SpitzLedger(mask_bits=2)
        ledger.append_block({b"k%03d" % i: b"v%d" % i for i in range(200)})
        for i in (7, 90, 150):
            ledger.append_block({b"k%03d" % i: b"changed-%d" % i})
        assert ledger.tree.height >= 3 and audit_ledger(ledger) == []
        return ledger

    def _node_written_by(self, ledger, height, tag):
        """A node of that kind under block ``height``'s root that the
        block before does not reach, and that is not the root."""
        def reach(address, found):
            found.add(address)
            kind, pairs = decode_node(ledger.chunks.get(address))
            for _key, digest in pairs if kind == "B" else ():
                reach(digest, found)
            return found

        new = reach(ledger.block(height).tree_root, set()) - reach(
            ledger.block(height - 1).tree_root, set()
        ) - {ledger.block(height).tree_root}
        return next(
            address for address in sorted(new)
            if decode_node(ledger.chunks.get(address))[0] == tag
        )

    @staticmethod
    def _stored_against(store, address):
        """Every chunk held as a delta whose chain runs through
        ``address``: what losing that chunk loses with it."""
        stored = dict(store.items())
        order = list(stored)

        def runs_through(data):
            while isinstance(data, Delta):
                base = order[data.head()[0]]
                if base == address:
                    return True
                data = stored.get(base)
            return False

        return {held for held, data in stored.items() if runs_through(data)}

    @pytest.mark.parametrize("tag", ["B", "L"])
    def test_detects_a_dropped_node_below_the_root(self, tag):
        """``tree_at(h).get(b"")`` walked one path; the audit walks what
        the block wrote.  A lost chunk takes with it the older versions
        stored as deltas against it (a declared cost of reverse deltas),
        and the audit names each of them missing, once."""
        ledger = self._deep_ledger()
        dropped = self._node_written_by(ledger, 2, tag)
        lost = self._stored_against(ledger.chunks, dropped)
        del ledger.chunks._entries[dropped]
        findings = audit_ledger(ledger)
        assert len(findings) == 1 + len(lost)
        assert all("index node" in f and "missing" in f for f in findings)
        assert f"block #2: index node {dropped.hex()[:12]} missing" in findings
        assert {f.split()[4] for f in findings} == {
            address.hex()[:12] for address in lost | {dropped}
        }
        if tag == "L":  # block #0's version of the leaf k090 is in
            assert lost and any("block #0" in f for f in findings)

    def test_detects_a_corrupted_node(self):
        """A corrupted chunk corrupts the older versions stored as deltas
        against it that copy the flipped byte (a declared cost of
        reverse deltas): the audit names it and exactly those, each
        once, in the order of the blocks that wrote them."""
        ledger = self._deep_ledger()
        address = self._node_written_by(ledger, 3, "L")
        dependents = self._stored_against(ledger.chunks, address)
        data = ledger.chunks._entries[address]
        ledger.chunks._entries[address] = data[:-1] + bytes([data[-1] ^ 1])
        damaged = {
            held for held in dependents
            if hash_bytes(ledger.chunks.get(held)) != held
        }
        assert damaged
        findings = audit_ledger(ledger)
        assert len(findings) == 1 + len(damaged)
        assert all("does not hash to its address" in f for f in findings)
        assert findings[-1].startswith(
            f"block #3: index node {address.hex()[:12]}"
        )
        assert {f.split()[4] for f in findings} == {
            held.hex()[:12] for held in damaged | {address}
        }
        heights = [int(f.split()[1][1:-1]) for f in findings]
        assert heights == sorted(heights)

    def test_detects_a_dropped_value_chunk(self):
        ledger = self._deep_ledger()
        del ledger.chunks._entries[hash_bytes(b"changed-90")]
        findings = audit_ledger(ledger)
        assert len(findings) == 1
        assert "block #2: value chunk" in findings[0]
        assert "missing" in findings[0]
        # ... which is exactly the value no read can serve any more.
        with pytest.raises(ChunkNotFoundError):
            ledger.get(b"k090")

    def test_detects_a_corrupted_value_chunk(self):
        ledger = self._deep_ledger()
        ledger.chunks._entries[hash_bytes(b"v33")] = b"v34"
        findings = audit_ledger(ledger)
        assert len(findings) == 1
        assert "block #0: value chunk" in findings[0]
        assert "does not hash to its address" in findings[0]


class TestProofBundles:
    def _db(self):
        db = SpitzDatabase()
        for i in range(20):
            db.put(f"k{i:02d}".encode(), f"v{i}".encode())
        return db

    def test_bundle_round_trip(self):
        db = self._db()
        bundle = make_bundle(db.ledger, b"k\x00" + b"", "probe")
        # Use a real ledger key.
        bundle = make_bundle(db.ledger, b"k\x00k05", "k05 evidence")
        blob = bundle.serialize()
        restored = ProofBundle.deserialize(blob)
        ok, message = verify_bundle(restored)
        assert ok, message

    def test_bundle_pinned_to_trusted_digest(self):
        db = self._db()
        bundle = make_bundle(db.ledger, b"k\x00k05")
        ok, _ = verify_bundle(bundle, trusted=db.digest())
        assert ok
        db.put(b"later", b"write")
        ok, message = verify_bundle(bundle, trusted=db.digest())
        assert not ok
        assert "digest" in message

    def test_tampered_bundle_rejected(self):
        db = self._db()
        bundle = make_bundle(db.ledger, b"k\x00k05")
        from repro.core.proofs import LedgerProof
        from repro.indexes.siri import SiriProof

        forged_proof = LedgerProof(
            siri=SiriProof(
                key=bundle.proof.siri.key,
                value=b"forged",
                nodes=bundle.proof.siri.nodes,
            ),
            block=bundle.proof.block,
        )
        forged = dataclasses.replace(bundle, proof=forged_proof)
        ok, message = verify_bundle(forged)
        assert not ok

    def test_deserialize_garbage_rejected(self):
        for garbage in (b"not a bundle", b"[]", b'{"description": "x"}'):
            with pytest.raises(VerificationError):
                ProofBundle.deserialize(garbage)

    def test_a_pickle_is_refused_not_loaded(self):
        # A bundle comes from the party being audited; unpickling one
        # would run that party's code on the auditor's machine.
        import pickle

        class Boom:
            def __reduce__(self):
                return (pytest.fail, ("the bundle was unpickled",))

        db = self._db()
        for blob in (
            pickle.dumps(Boom()),
            pickle.dumps(make_bundle(db.ledger, b"k\x00k05"), protocol=4),
        ):
            with pytest.raises(VerificationError):
                ProofBundle.deserialize(blob)

    def test_serialized_bundle_is_a_json_document_of_wire_frames(self):
        import json

        db = self._db()
        document = json.loads(make_bundle(db.ledger, b"k\x00k05").serialize())
        assert set(document) == {"description", "digest", "proof"}
        assert set(document["digest"]) == {"$ledger_digest"}
        assert set(document["proof"]) == {"$proof"}

    def test_any_proof_kind_can_be_bundled(self):
        db = self._db()
        digest = db.digest()
        for proof in (
            db.scan_verified(b"k03", b"k09")[1],
            db.get_many_verified([b"k01", b"k17", b"nope"])[1],
        ):
            bundle = ProofBundle("kinds", digest, proof)
            restored = ProofBundle.deserialize(bundle.serialize())
            assert restored == bundle
            ok, message = verify_bundle(restored, trusted=digest)
            assert ok, message
        ok, message = verify_bundle(ProofBundle("none", digest, {"a": 1}))
        assert not ok and "proof" in message
