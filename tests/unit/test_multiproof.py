"""Batched multiproofs: dedup, the tamper matrix, and K=1 equivalence.

The multiproof is a new trust surface, so the tests attack it the way
a malicious server would: mutate a node, swap a claimed value, bind
the wrong block, truncate the node set.  Every attack must be caught
at *verification* (``verify`` returns False), never by decoding —
and every honest proof must keep verifying after the attack attempts.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.database import SpitzDatabase
from repro.core.proofs import (
    BLOCK_WITNESS_BYTES,
    BlockWitness,
    LedgerMultiProof,
    LedgerProof,
    LedgerRangeProof,
)
from repro.core.verifier import ClientVerifier
from repro.crypto.hashing import hash_bytes
from repro.errors import TamperDetectedError
from repro.forkbase.chunk_store import ChunkStore
from repro.indexes.pos_tree import PosMultiProof, PosTree
from repro.indexes.siri import NodeCache


# ---------------------------------------------------------------------------
# index layer
# ---------------------------------------------------------------------------

def _tree(n: int = 64, mask_bits: int = 3) -> PosTree:
    items = [
        (f"key{i:04d}".encode(), f"value{i}".encode()) for i in range(n)
    ]
    return PosTree.from_items(ChunkStore(), items, mask_bits=mask_bits)


class TestPosMultiProof:
    def test_values_in_request_order_with_absences(self):
        tree = _tree()
        keys = [b"key0050", b"nope", b"key0001", b"key0001"]
        values, proof = tree.get_many_with_proof(keys)
        assert values == [b"value50", None, b"value1", b"value1"]
        assert proof.entries == tuple(zip(keys, values))
        assert proof.verify(tree.root)

    def test_nodes_are_deduplicated_across_keys(self):
        tree = _tree()
        keys = [f"key{i:04d}".encode() for i in range(0, 64, 4)]
        _values, proof = tree.get_many_with_proof(keys)
        # Every key's path shares the root (and likely more); K walks
        # of `height` nodes each must collapse well below K * height.
        assert len(proof.nodes) < len(keys) * tree.height
        assert len(set(proof.nodes)) == len(proof.nodes)
        # And the multiproof beats the summed point proofs on bytes.
        point_total = 0
        for key in keys:
            _value, point = tree.get_with_proof(key)
            point_total += point.size_bytes
        assert proof.size_bytes < point_total

    def test_wrong_root_fails(self):
        tree = _tree()
        _values, proof = tree.get_many_with_proof([b"key0001"])
        assert not proof.verify(hash_bytes(b"other-root"))

    def test_verify_never_raises_on_garbage_nodes(self):
        tree = _tree()
        _values, proof = tree.get_many_with_proof([b"key0001"])
        garbage = PosMultiProof(
            entries=proof.entries,
            nodes=(b"\x00garbage",) + proof.nodes[1:],
            root=proof.root,
        )
        assert garbage.verify(tree.root) is False


# ---------------------------------------------------------------------------
# ledger layer: the tamper matrix
# ---------------------------------------------------------------------------

def _loaded_db(n: int = 100) -> SpitzDatabase:
    db = SpitzDatabase(block_batch=16)
    for i in range(n):
        db.put(f"key{i:04d}".encode(), f"value{i}".encode())
    db.flush_ledger()
    return db


def _verifier_for(db: SpitzDatabase) -> ClientVerifier:
    verifier = ClientVerifier()
    verifier.trust(db.digest())
    return verifier


KEYS = [b"key0003", b"key0017", b"key0042", b"key0099", b"absent"]


class TestDecodeOnReach:
    """A server chooses what a proof carries, but not what a verifier
    parses and keeps: a blob is read only at the position the replay
    walk from the pinned root is at, and parsed and cached only once it
    hashes to the address the walk expects there."""

    @staticmethod
    def _proofs():
        tree = _tree(n=400)
        other = PosTree.from_items(
            tree.store, [(b"other%03d" % i, b"x%d" % i) for i in range(200)], 3
        )
        keys = [b"key0007", b"key0211", b"absent"]
        _values, multi = tree.get_many_with_proof(keys)
        _entries, ranged = tree.scan_with_proof(b"key0100", b"key0140")
        # Well-formed nodes of another tree: nothing under this root
        # names them.
        _entries, unreachable = other.scan_with_proof(b"", b"z")
        junk = (b"", b"\x00garbage", b"L\xff\xff\xff\xff", b"B" * 500)
        return tree.root, (multi, ranged), junk, unreachable.nodes

    def test_junk_and_unreachable_blobs_change_nothing(self):
        """Appended, they are never read; in front of the walk's nodes
        they are what a cold verifier reads first, and rejects."""
        root, proofs, junk, unreachable = self._proofs()
        assert len(unreachable) > 20
        for honest in proofs:
            baseline = NodeCache()
            assert honest.verify(root, baseline)
            assert len(baseline) == len(honest.nodes)
            for extra in (junk, unreachable, junk + unreachable):
                padded = dataclasses.replace(
                    honest, nodes=honest.nodes + extra
                )
                cache = NodeCache()
                assert padded.verify(root, cache)
                assert padded.verify(root, cache)  # warm: the same
                assert set(cache) == set(baseline)
                assert len(cache.entries) == len(baseline.entries)
                assert padded.verify(root)  # and with no cache at all

                fronted = dataclasses.replace(
                    honest, nodes=extra + honest.nodes
                )
                cache = NodeCache()
                assert not fronted.verify(root, cache)
                assert not cache and not cache.entries
                assert not fronted.verify(root)
                # A verifier holding every node reads no position at all.
                held = len(baseline), len(baseline.entries)
                assert fronted.verify(root, baseline)
                assert (len(baseline), len(baseline.entries)) == held

    def test_the_client_verifier_cache_grows_by_the_honest_nodes_only(self):
        db = _loaded_db()
        _values, honest = db.get_many_verified(KEYS)
        _entries, unreachable = PosTree.from_items(
            ChunkStore(), [(b"o%03d" % i, b"x") for i in range(300)], 3
        ).scan_with_proof(b"", b"z")
        padded = dataclasses.replace(
            honest,
            multi=dataclasses.replace(
                honest.multi,
                nodes=honest.multi.nodes + unreachable.nodes + (b"junk",),
            ),
        )
        sizes = []
        for proof in (honest, padded):
            verifier = _verifier_for(db)
            assert verifier.verify(proof)
            sizes.append(len(verifier._node_cache))
        assert sizes[0] == sizes[1] == len(honest.multi.nodes)


class TestTamperMatrix:
    def test_honest_multiproof_verifies(self):
        db = _loaded_db()
        values, proof = db.get_many_verified(KEYS)
        assert values[-1] is None and None not in values[:-1]
        _verifier_for(db).verify_or_raise(proof)

    def test_mutated_node_detected(self):
        db = _loaded_db()
        _values, proof = db.get_many_verified(KEYS)
        verifier = _verifier_for(db)
        for index in range(len(proof.multi.nodes)):
            nodes = list(proof.multi.nodes)
            nodes[index] = nodes[index] + b"\x00"
            tampered = LedgerMultiProof(
                multi=PosMultiProof(
                    entries=proof.multi.entries,
                    nodes=tuple(nodes),
                    root=proof.multi.root,
                ),
                block=proof.block,
            )
            assert not verifier.verify(tampered), (
                f"mutating node {index} went undetected"
            )

    def test_swapped_leaf_value_detected(self):
        # Claim key A carries key B's value; both values are genuinely
        # in the tree, so only the path replay can catch the swap.
        db = _loaded_db()
        _values, proof = db.get_many_verified(KEYS)
        entries = list(proof.multi.entries)
        entries[0] = (entries[0][0], entries[1][1])
        swapped = LedgerMultiProof(
            multi=PosMultiProof(
                entries=tuple(entries),
                nodes=proof.multi.nodes,
                root=proof.multi.root,
            ),
            block=proof.block,
        )
        assert not _verifier_for(db).verify(swapped)

    def test_fabricated_absence_detected(self):
        db = _loaded_db()
        _values, proof = db.get_many_verified(KEYS)
        entries = list(proof.multi.entries)
        entries[0] = (entries[0][0], None)  # deny a present key
        denying = LedgerMultiProof(
            multi=PosMultiProof(
                entries=tuple(entries),
                nodes=proof.multi.nodes,
                root=proof.multi.root,
            ),
            block=proof.block,
        )
        assert not _verifier_for(db).verify(denying)

    def test_wrong_block_witness_detected(self):
        db = _loaded_db()
        _values, proof = db.get_many_verified(KEYS)
        block = proof.block
        forged = LedgerMultiProof(
            multi=proof.multi,
            block=BlockWitness(
                height=block.height,
                previous_chain_digest=block.previous_chain_digest,
                tree_root=hash_bytes(b"other-tree"),
                writes_digest=block.writes_digest,
                statements_digest=block.statements_digest,
                chain_digest=block.chain_digest,
            ),
        )
        assert not _verifier_for(db).verify(forged)

    def test_stale_block_witness_detected(self):
        # A proof against an older (honest!) block must fail once the
        # client trusts a newer digest: chain digests differ.
        db = _loaded_db()
        _values, proof = db.get_many_verified(KEYS)
        db.put(b"newer", b"entry")
        verifier = ClientVerifier()
        verifier.trust(db.digest())
        assert not verifier.verify(proof)

    def test_truncated_node_set_detected(self):
        db = _loaded_db()
        _values, proof = db.get_many_verified(KEYS)
        verifier = _verifier_for(db)
        for index in range(len(proof.multi.nodes)):
            nodes = list(proof.multi.nodes)
            del nodes[index]
            truncated = LedgerMultiProof(
                multi=PosMultiProof(
                    entries=proof.multi.entries,
                    nodes=tuple(nodes),
                    root=proof.multi.root,
                ),
                block=proof.block,
            )
            assert not verifier.verify(truncated), (
                f"dropping node {index} went undetected"
            )

    def test_tamper_raises_via_verify_or_raise(self):
        db = _loaded_db()
        _values, proof = db.get_many_verified(KEYS)
        entries = list(proof.multi.entries)
        entries[0] = (entries[0][0], b"evil")
        forged = LedgerMultiProof(
            multi=PosMultiProof(
                entries=tuple(entries),
                nodes=proof.multi.nodes,
                root=proof.multi.root,
            ),
            block=proof.block,
        )
        verifier = _verifier_for(db)
        with pytest.raises(TamperDetectedError):
            verifier.verify_or_raise(forged)
        assert verifier.detections == 1


# ---------------------------------------------------------------------------
# size accounting + K=1 equivalence
# ---------------------------------------------------------------------------

class TestSizeAccounting:
    def test_block_witness_weight_is_five_digests_plus_height(self):
        # Regression: proofs used to charge 6 * 32 for a witness that
        # holds 5 digests + a height, inflating ledger.proof_bytes.
        assert BLOCK_WITNESS_BYTES == 5 * 32 + 8

    def test_all_proof_kinds_use_the_same_witness_weight(self):
        db = _loaded_db(20)
        _value, point = db.get_verified(b"key0001")
        _entries, ranged = db.scan_verified(b"key0001", b"key0005")
        _values, multi = db.get_many_verified([b"key0001"])
        assert point.size_bytes == point.siri.size_bytes + BLOCK_WITNESS_BYTES
        assert (
            ranged.size_bytes
            == ranged.range_proof.size_bytes + BLOCK_WITNESS_BYTES
        )
        assert (
            multi.size_bytes
            == multi.multi.size_bytes + BLOCK_WITNESS_BYTES
        )


# One shared database for the property: building per-example would
# dominate the run time without adding coverage.
_PROP_DB = _loaded_db(60)
_PROP_DIGEST = _PROP_DB.digest()


@given(
    index=st.integers(min_value=0, max_value=79),
    forged_value=st.one_of(st.none(), st.binary(max_size=6)),
)
@settings(max_examples=60, deadline=None)
def test_k1_multiproof_verifies_iff_point_proof_does(index, forged_value):
    """A K=1 multiproof and the equivalent point proof agree — on
    honest claims (both True) and on forged ones (both False)."""
    key = f"key{index:04d}".encode()  # indexes 60..79 are absent
    _value, point = _PROP_DB.get_verified(key)
    values, multi = _PROP_DB.get_many_verified([key])
    assert multi.multi.entries[0][1] == point.siri.value
    assert values == [point.siri.value]

    point_verifier = ClientVerifier()
    point_verifier.trust(_PROP_DIGEST)
    multi_verifier = ClientVerifier()
    multi_verifier.trust(_PROP_DIGEST)
    assert point_verifier.verify(point)
    assert multi_verifier.verify(multi)

    if forged_value == point.siri.value:
        return  # not a forgery
    from repro.indexes.siri import SiriProof

    forged_point = LedgerProof(
        siri=SiriProof(
            key=point.siri.key,
            value=forged_value,
            nodes=point.siri.nodes,
        ),
        block=point.block,
    )
    forged_multi = LedgerMultiProof(
        multi=PosMultiProof(
            entries=((multi.multi.entries[0][0], forged_value),),
            nodes=multi.multi.nodes,
            root=multi.multi.root,
        ),
        block=multi.block,
    )
    assert point_verifier.verify(forged_point) is False
    assert multi_verifier.verify(forged_multi) is False
