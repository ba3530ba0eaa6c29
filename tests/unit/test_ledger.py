"""Unit tests for the Spitz ledger."""

import dataclasses
import gc
import random
import tracemalloc

import pytest

from repro.crypto.hashing import hash_bytes
from repro.errors import CommitNotFoundError
from repro.core.ledger import SpitzLedger
from repro.core.verifier import ClientVerifier


class TestLedgerBlocks:
    def test_empty_ledger(self):
        ledger = SpitzLedger()
        assert ledger.height == 0
        assert ledger.latest_block() is None
        assert ledger.get(b"k") is None

    def test_append_block(self):
        ledger = SpitzLedger()
        block = ledger.append_block({b"k": b"v"}, statements=("PUT k",))
        assert block.height == 0
        assert block.write_count == 1
        assert ledger.get(b"k") == b"v"

    def test_chain_links(self):
        ledger = SpitzLedger()
        first = ledger.append_block({b"a": b"1"})
        second = ledger.append_block({b"b": b"2"})
        assert second.previous_chain_digest == first.chain_digest

    def test_block_lookup(self):
        ledger = SpitzLedger()
        ledger.append_block({b"a": b"1"})
        assert ledger.block(0).height == 0
        with pytest.raises(CommitNotFoundError):
            ledger.block(5)

    def test_delete_in_block(self):
        ledger = SpitzLedger()
        ledger.append_block({b"k": b"v"})
        ledger.append_block({b"k": None})
        assert ledger.get(b"k") is None
        assert ledger.get_at(b"k", 0) == b"v"

    def test_digest_reflects_state(self):
        ledger = SpitzLedger()
        ledger.append_block({b"a": b"1"})
        first = ledger.digest()
        ledger.append_block({b"b": b"2"})
        second = ledger.digest()
        assert first.chain_digest != second.chain_digest
        assert first.tree_root != second.tree_root
        assert second.height == 2

    def test_statements_affect_block_digest(self):
        one = SpitzLedger()
        other = SpitzLedger()
        a = one.append_block({b"k": b"v"}, statements=("stmt-1",))
        b = other.append_block({b"k": b"v"}, statements=("stmt-2",))
        assert a.tree_root == b.tree_root  # same data
        assert a.chain_digest != b.chain_digest  # different provenance


class TestLedgerProofs:
    def test_point_proof(self):
        ledger = SpitzLedger()
        ledger.append_block({b"k": b"v"})
        value, proof = ledger.get_with_proof(b"k")
        assert value == b"v"
        assert proof.verify(ledger.digest().chain_digest)

    def test_proof_on_empty_ledger_raises(self):
        with pytest.raises(CommitNotFoundError):
            SpitzLedger().get_with_proof(b"k")

    def test_range_proof(self):
        ledger = SpitzLedger()
        ledger.append_block(
            {f"k{i:02d}".encode(): str(i).encode() for i in range(30)}
        )
        entries, proof = ledger.scan_with_proof(b"k05", b"k14")
        assert len(entries) == 10
        assert proof.verify(ledger.digest().chain_digest)

    def test_historical_proof_binds_to_its_block(self):
        ledger = SpitzLedger()
        ledger.append_block({b"k": b"v1"})
        ledger.append_block({b"k": b"v2"})
        value, proof = ledger.get_at_with_proof(b"k", 0)
        assert value == b"v1"
        assert proof.verify(ledger.block(0).chain_digest)
        assert not proof.verify(ledger.digest().chain_digest)

    def test_forged_block_witness_rejected(self):
        ledger = SpitzLedger()
        ledger.append_block({b"k": b"v"})
        _value, proof = ledger.get_with_proof(b"k")
        forged_block = dataclasses.replace(proof.block, height=99)
        forged = dataclasses.replace(proof, block=forged_block)
        assert not forged.verify(ledger.digest().chain_digest)


class TestLedgerHistory:
    def test_tree_instances_per_block(self):
        ledger = SpitzLedger()
        ledger.append_block({b"k": b"v1"})
        ledger.append_block({b"k": b"v2"})
        assert ledger.tree_at(0).get(b"k") == b"v1"
        assert ledger.tree_at(1).get(b"k") == b"v2"
        with pytest.raises(CommitNotFoundError):
            ledger.tree_at(7)

    def test_key_history(self):
        ledger = SpitzLedger()
        ledger.append_block({b"k": b"v1"})
        ledger.append_block({b"other": b"x"})
        ledger.append_block({b"k": b"v2"})
        ledger.append_block({b"k": None})
        history = ledger.key_history(b"k")
        assert history == [(0, b"v1"), (2, b"v2"), (3, None)]

    def test_key_history_of_absent_key_is_empty(self):
        """Regression: a never-written key used to report a phantom
        ``(0, None)`` change at the first block."""
        ledger = SpitzLedger()
        ledger.append_block({b"k": b"v1"})
        ledger.append_block({b"k": b"v2"})
        assert ledger.key_history(b"never-written") == []

    def test_key_history_starts_at_first_write(self):
        ledger = SpitzLedger()
        ledger.append_block({b"other": b"x"})
        ledger.append_block({b"other": b"y"})
        ledger.append_block({b"k": b"v"})
        assert ledger.key_history(b"k") == [(2, b"v")]

    def test_instances_share_nodes(self):
        ledger = SpitzLedger()
        ledger.append_block(
            {f"k{i:03d}".encode(): b"v" for i in range(500)}
        )
        before = ledger.chunks.stats.unique_chunks
        ledger.append_block({b"k000": b"changed"})
        added = ledger.chunks.stats.unique_chunks - before
        assert added < 12  # one path, not a new tree

    def test_verify_chain_accepts_honest_history(self):
        ledger = SpitzLedger()
        for i in range(10):
            ledger.append_block({f"k{i}".encode(): b"v"})
        assert ledger.verify_chain()

    def test_verify_chain_detects_rewritten_block(self):
        ledger = SpitzLedger()
        for i in range(5):
            ledger.append_block({f"k{i}".encode(): b"v"})
        tampered = dataclasses.replace(
            ledger._blocks[2], writes_digest=ledger._blocks[3].writes_digest
        )
        ledger._blocks[2] = tampered
        assert not ledger.verify_chain()

    def test_storage_report(self):
        ledger = SpitzLedger()
        ledger.append_block({b"k": b"v"})
        report = ledger.storage_report()
        assert report["blocks"] == 1
        assert report["physical_bytes"] > 0


class TestVersionCost:
    def test_a_commit_retains_what_it_rewrote(self):
        """Memory guard: 500 single-key blocks on a 20k-key ledger keep
        at most 0.9 times the bytes they wrote (``logical_bytes``: every
        chunk put, as a store without dedup or deltas would hold it) —
        the new chunks, the nodes they retired as reverse deltas, and
        decoded forms of the live tree only, not of every version (0.77
        measured: 1.99 MB of 2.58 MB, with 0.43 MB of chunks stored;
        1.39 while retired nodes were kept whole, 3.59 MB of 2.58 MB)."""
        ledger = SpitzLedger(mask_bits=5)
        ledger.append_block(
            {b"k%05d" % i: b"v" * 100 for i in range(20_000)}
        )
        rng = random.Random(1)
        gc.collect()
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            written = ledger.chunks.stats.logical_bytes
            for i in range(500):
                ledger.append_block(
                    {b"k%05d" % rng.randrange(20_000): b"w%07d" % i + b"x" * 92}
                )
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
            written = ledger.chunks.stats.logical_bytes - written
        finally:
            tracemalloc.stop()
        assert retained <= 0.9 * written, f"{retained} retained, {written} written"

    def test_verifier_cache_shares_entries_between_node_versions(self):
        ledger = SpitzLedger(mask_bits=3)
        ledger.append_block({b"k%04d" % i: b"v%d" % i for i in range(2000)})
        verifier = ClientVerifier()
        paths = []
        for value in (b"first", b"second"):
            ledger.append_block({b"k1000": value})
            verifier.observe(ledger.digest())
            _value, proof = ledger.get_with_proof(b"k1000")
            assert verifier.verify(proof)
            paths.append(
                [verifier._node_cache[hash_bytes(raw)] for raw in proof.siri.nodes]
            )
        assert len(paths[0]) == len(paths[1]) > 2
        for old, new in zip(*paths):
            assert new is not old
            was = {entry: entry for entry in old[1]}
            kept = [entry for entry in new[1] if entry in was]
            assert kept and all(entry is was[entry] for entry in kept)
