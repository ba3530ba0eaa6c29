"""The Spitz ledger.

"This structure consists of a sequence of hashed blocks.  Each block
tracks the modification of the records, query statements, metadata and
the root node of the indexes on the entire dataset" (Section 5,
*Ledger*).  Per Section 6.1, the ledger index is a SIRI instance —
here a POS-tree — and "each block in the ledger stores a historical
index instance, naturally composing a version of the ledger, and the
nodes between instances can be shared".

The crucial property: the ledger index is *unified* — the same
traversal answers the query and yields the proof — which drives every
Spitz-vs-baseline gap in Section 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.crypto.hashing import Digest, EMPTY_DIGEST, hash_many, hash_value
from repro.errors import CommitNotFoundError
from repro.forkbase.chunk_store import ChunkStore
from repro.indexes.pos_tree import DEFAULT_MASK_BITS, PosTree
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.core.proofs import (
    BlockWitness,
    LedgerMultiProof,
    LedgerProof,
    LedgerRangeProof,
    chain_digest_of,
)


#: What a block sealing no statements commits to (most blocks): one
#: digest shared by all of them.
_NO_STATEMENTS = hash_value(())


@dataclass(frozen=True, slots=True)
class Block(BlockWitness):
    """One sealed ledger block: the header a proof witnesses plus the
    number of writes it sealed."""

    write_count: int

    def witness(self) -> BlockWitness:
        return BlockWitness(
            height=self.height,
            previous_chain_digest=self.previous_chain_digest,
            tree_root=self.tree_root,
            writes_digest=self.writes_digest,
            statements_digest=self.statements_digest,
            chain_digest=self.chain_digest,
        )


@dataclass(frozen=True)
class LedgerDigest:
    """What a client pins after a verified interaction."""

    height: int
    chain_digest: Digest
    tree_root: Digest


class SpitzLedger:
    """Hash-chained blocks, each embedding a POS-tree index instance."""

    def __init__(
        self,
        chunks: Optional[ChunkStore] = None,
        mask_bits: int = DEFAULT_MASK_BITS,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.chunks = chunks if chunks is not None else ChunkStore()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._c_blocks_sealed = self.metrics.counter("ledger.blocks_sealed")
        self._c_writes_sealed = self.metrics.counter("ledger.writes_sealed")
        self._c_proofs_served = self.metrics.counter("ledger.proofs_served")
        self._h_proof_bytes = self.metrics.histogram("ledger.proof_bytes")
        self._tree = PosTree.empty(self.chunks, mask_bits)
        # Each block's ``tree_root`` is all a temporal read needs: the
        # index instance it sealed is a handle on that root.
        self._blocks: List[Block] = []
        # Retained statement lists (the block header commits to their
        # digest; keeping the plaintext enables provenance queries and
        # stays auditable via statements_digest).
        self._statements: List[Tuple[str, ...]] = []

    # -- writes ------------------------------------------------------------

    def append_block(
        self,
        writes: Mapping[bytes, object],
        statements: Sequence[str] = (),
    ) -> Block:
        """Seal ``writes`` (values, or ``None`` for a delete) into a new
        block.

        Returns the block; the new index instance shares all unchanged
        nodes with the previous block's instance.
        """
        with self.metrics.tracer.stage("ledger.append"):
            return self._append_block(writes, statements)

    def _append_block(
        self,
        writes: Mapping[bytes, object],
        statements: Sequence[str] = (),
    ) -> Block:
        tree = self._tree.apply(writes)
        writes_digest = hash_many(
            part
            for key in sorted(writes)
            for part in (
                key,
                b"\x00" if writes[key] is None else writes[key],
            )
        )
        self.link([(tree.root, writes_digest, len(writes), statements)])
        self._c_blocks_sealed.inc()
        self._c_writes_sealed.inc(len(writes))
        return self._blocks[-1]

    def link(
        self, sealed: Sequence[Tuple[Digest, Digest, int, Sequence[str]]]
    ) -> None:
        """Link one block onto the chain per ``(tree_root, writes_digest,
        write_count, statements)`` — all a checkpoint keeps of a block:
        its height, statement digest and chain link are derived — and
        take the last root as the tip."""
        for tree_root, writes_digest, write_count, statements in sealed:
            height = len(self._blocks)
            previous = self._blocks[-1].chain_digest if height else EMPTY_DIGEST
            statements_digest = (
                hash_value(tuple(statements)) if statements
                else _NO_STATEMENTS
            )
            self._blocks.append(Block(
                height=height,
                previous_chain_digest=previous,
                tree_root=tree_root,
                writes_digest=writes_digest,
                statements_digest=statements_digest,
                chain_digest=chain_digest_of(
                    height, previous, tree_root, writes_digest,
                    statements_digest,
                ),
                write_count=write_count,
            ))
            self._statements.append(tuple(statements))
        if self._blocks:
            self._tree = PosTree(
                self.chunks, self._blocks[-1].tree_root, self._tree.mask_bits
            )

    # -- reads -------------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self._blocks)

    @property
    def tree(self) -> PosTree:
        return self._tree

    def digest(self) -> LedgerDigest:
        """Current head digest (what clients save; Section 5.3)."""
        latest = self.latest_block()
        return LedgerDigest(
            height=len(self._blocks),
            chain_digest=latest.chain_digest if latest else EMPTY_DIGEST,
            tree_root=self._tree.root,
        )

    def block(self, height: int) -> Block:
        if not 0 <= height < len(self._blocks):
            raise CommitNotFoundError(f"block #{height}")
        return self._blocks[height]

    def latest_block(self) -> Optional[Block]:
        return self._blocks[-1] if self._blocks else None

    def get(self, key: bytes) -> Optional[bytes]:
        """Unverified point read from the latest index instance."""
        return self._tree.get(key)

    def _prove(self, wrap, block: Block, lookup, *args):
        """Run one proof-collecting ``lookup`` and bind its evidence to
        ``block``: ``(answer, wrap(evidence, witness))``, accounted."""
        with self.metrics.tracer.stage_in_trace("ledger.prove"):
            answer, evidence = lookup(*args)
            proof = wrap(evidence, block.witness())
        self._c_proofs_served.inc()
        self._h_proof_bytes.observe(proof.size_bytes)
        return answer, proof

    def get_with_proof(
        self, key: bytes
    ) -> Tuple[Optional[bytes], LedgerProof]:
        """Point read plus proof in one traversal (the unified index)."""
        return self._prove(
            LedgerProof, self._require_block(),
            self._tree.get_with_proof, key,
        )

    def get_many_with_proof(
        self, keys: Sequence[bytes]
    ) -> Tuple[List[Optional[bytes]], LedgerMultiProof]:
        """Batch point read plus one multiproof binding the block once.

        K point proofs would each carry the same
        :class:`~repro.core.proofs.BlockWitness` and re-ship the index's
        shared upper nodes; the multiproof dedups both.
        """
        return self._prove(
            LedgerMultiProof, self._require_block(),
            self._tree.get_many_with_proof, keys,
        )

    def scan(self, low: bytes, high: bytes) -> List[Tuple[bytes, bytes]]:
        return self._tree.scan(low, high)

    def scan_with_proof(
        self, low: bytes, high: bytes
    ) -> Tuple[List[Tuple[bytes, bytes]], LedgerRangeProof]:
        """Range scan plus one covering proof (Section 6.2.2)."""
        return self._prove(
            LedgerRangeProof, self._require_block(),
            self._tree.scan_with_proof, low, high,
        )

    def _require_block(self) -> Block:
        if not self._blocks:
            raise CommitNotFoundError("<empty ledger>")
        return self._blocks[-1]

    # -- temporal reads ------------------------------------------------------

    def tree_at(self, height: int) -> PosTree:
        """The index instance sealed by block ``height`` (0-based)."""
        return PosTree(
            self.chunks, self.block(height).tree_root, self._tree.mask_bits
        )

    def get_at(self, key: bytes, height: int) -> Optional[bytes]:
        """Historical point read as of block ``height``."""
        return self.tree_at(height).get(key)

    def get_at_with_proof(
        self, key: bytes, height: int
    ) -> Tuple[Optional[bytes], LedgerProof]:
        """Historical verified read: proof against block ``height``."""
        return self._prove(
            LedgerProof, self.block(height),
            self.tree_at(height).get_with_proof, key,
        )

    def key_history(self, key: bytes) -> List[Tuple[int, Optional[bytes]]]:
        """(height, value) whenever ``key``'s value changed.

        Walks the per-block index instances comparing value digests, so
        a value is fetched only where it changed; deletions appear as
        None.
        A key that never existed has no changes — the result is empty,
        not a phantom ``(0, None)`` entry.
        """
        changes: List[Tuple[int, Optional[bytes]]] = []
        last: Optional[bytes] = None
        for height in range(len(self._blocks)):
            digest = self.tree_at(height).value_digest(key)
            if digest != last:
                changes.append(
                    (height, None if digest is None else self.chunks.get(digest))
                )
                last = digest
        return changes

    # -- audit ---------------------------------------------------------------

    def statements(self, height: int) -> Tuple[str, ...]:
        """The query statements sealed in block ``height``.

        The returned plaintext is checkable against the block header:
        ``hash_value(statements)`` must equal ``statements_digest``.
        """
        if not 0 <= height < len(self._statements):
            raise CommitNotFoundError(f"block #{height}")
        return self._statements[height]

    def extension_proof(self, from_height: int) -> List[BlockWitness]:
        """Witnesses for every block after ``from_height``.

        A client holding the trusted digest of block ``from_height - 1``
        verifies, link by link, that the current digest *extends* its
        trusted history (see
        :meth:`~repro.core.verifier.ClientVerifier.advance`).  This is
        the chain analogue of a Merkle consistency proof: without it a
        client updating its digest has to take non-reordering on
        faith.
        """
        if not 0 <= from_height <= len(self._blocks):
            raise CommitNotFoundError(f"block #{from_height}")
        return [
            block.witness() for block in self._blocks[from_height:]
        ]

    def verify_chain(self) -> bool:
        """Recompute every block digest and chain link from headers.

        An auditor's full-history check: any rewritten header or
        reordered block breaks a link.
        """
        running = EMPTY_DIGEST
        for block in self._blocks:
            if block.previous_chain_digest != running or not block.seals():
                return False
            running = block.chain_digest
        return True

    def storage_report(self) -> Dict[str, float]:
        stats = self.chunks.stats
        return {
            "blocks": len(self._blocks),
            "logical_bytes": stats.logical_bytes,
            "physical_bytes": stats.physical_bytes,
            "dedup_ratio": stats.dedup_ratio,
        }
