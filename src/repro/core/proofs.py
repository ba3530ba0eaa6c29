"""Ledger proof objects.

A Spitz proof binds three layers (Section 5.3):

1. the **evidence** — the POS-tree nodes from the block's index root
   down to the queried entries (a point path, a deduplicated multi-key
   node set, or a replayable range);
2. the **block** — the header whose digest commits to that index root;
3. the **chain** — the hash-chain digest that commits to the block.

A client holding a trusted :class:`~repro.core.ledger.LedgerDigest`
can therefore detect tampering with the value, with the index, with
the block, or with history ordering, by recomputing digests bottom-up.

Every proof in the repository answers the same four questions —
``verify(trusted, node_cache, block_cache)``, ``cacheable_nodes``,
``label`` and ``size_bytes`` — which is all
:class:`~repro.core.verifier.ClientVerifier`, the audit tools and the
CLI ever ask of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Tuple

from repro.crypto.hashing import Digest, hash_value
from repro.crypto.merkle import _node_hash
from repro.indexes.pos_tree import PosMultiProof, PosRangeProof
from repro.indexes.siri import SiriProof


def chain_digest_of(
    height: int,
    previous: Digest,
    tree_root: Digest,
    writes_digest: Digest,
    statements_digest: Digest,
) -> Digest:
    """The chain digest sealing a block header after ``previous``: the
    header's digest, linked on as
    :class:`~repro.crypto.merkle.HashChain` links a payload."""
    return _node_hash(previous, hash_value(
        (
            "spitz-block",
            height,
            bytes(previous),
            bytes(tree_root),
            bytes(writes_digest),
            bytes(statements_digest),
        )
    ))


@dataclass(frozen=True, slots=True)
class BlockWitness:
    """The block-header fields a proof needs to re-derive the block
    digest, plus the chain digest the block was sealed under."""

    height: int
    previous_chain_digest: Digest
    tree_root: Digest
    writes_digest: Digest
    statements_digest: Digest
    chain_digest: Digest

    def seals(self) -> bool:
        """True iff ``chain_digest`` is what the header fields and the
        previous link hash to."""
        return self.chain_digest == chain_digest_of(
            self.height,
            self.previous_chain_digest,
            self.tree_root,
            self.writes_digest,
            self.statements_digest,
        )

    def anchor(
        self, trusted_chain_digest: Digest, block_cache: Optional[set] = None
    ) -> Optional[Digest]:
        """The block anchor step: trusted chain digest → index root.

        Returns the index root this block commits to, or ``None`` when
        the block is not the one the trusted digest names or its header
        does not hash to its chain digest.  ``block_cache`` (managed by
        :class:`~repro.core.verifier.ClientVerifier`) memoizes headers
        already recomputed — the cost model behind Section 5.3's
        deferred scheme — as the chain digest *with* the index root the
        recompute vouched for: a witness that carries the trusted chain
        digest beside another root must seal on its own.
        """
        if self.chain_digest != trusted_chain_digest:
            return None
        sealed = (self.chain_digest, self.tree_root)
        if block_cache is None or sealed not in block_cache:
            if not self.seals():
                return None
            if block_cache is not None:
                block_cache.add(sealed)
        return self.tree_root


#: Wire weight of one :class:`BlockWitness`: five 32-byte digests plus
#: an 8-byte height.
BLOCK_WITNESS_BYTES = 5 * 32 + 8


class BlockAnchored:
    """Evidence checked under the index root of one sealed block.

    The single ``verify`` of every single-ledger proof: the block
    anchor step turns the trusted chain digest into the block's index
    root, and the evidence — anything exposing ``verify(root, cache)``,
    ``nodes``, ``keys``, ``label`` and ``size_bytes`` — is checked under
    that root.  Subclasses are dataclasses with a ``block`` field that
    name their evidence field and point ``evidence`` at it.
    """

    @property
    def keys(self) -> Tuple[bytes, ...]:
        """Every key the proof makes a claim about."""
        return self.evidence.keys

    @property
    def cacheable_nodes(self) -> Tuple[bytes, ...]:
        """Index nodes eligible for the verifier's node cache."""
        return self.evidence.nodes

    @property
    def size_bytes(self) -> int:
        return self.evidence.size_bytes + BLOCK_WITNESS_BYTES

    @property
    def label(self) -> str:
        return f"{self.evidence.label}@block{self.block.height}"

    def verify(
        self,
        trusted_chain_digest: Digest,
        node_cache: Optional[dict] = None,
        block_cache: Optional[set] = None,
    ) -> bool:
        """Check the full binding against a trusted chain digest."""
        root = self.block.anchor(trusted_chain_digest, block_cache)
        return root is not None and self.evidence.verify(root, node_cache)


@dataclass(frozen=True)
class LedgerProof(BlockAnchored):
    """Proof for one point read (or proven absence)."""

    siri: SiriProof
    block: BlockWitness
    evidence = property(attrgetter("siri"))

    @property
    def key(self) -> bytes:
        return self.siri.key

    @property
    def value(self) -> Optional[bytes]:
        return self.siri.value


@dataclass(frozen=True)
class LedgerRangeProof(BlockAnchored):
    """Proof covering every entry of a range scan in one object.

    This is what makes verified range queries cheap in Spitz
    (Section 6.2.2): the proof is gathered during the same traversal
    that produced the results, instead of one journal search per
    record.
    """

    range_proof: PosRangeProof
    block: BlockWitness
    evidence = property(attrgetter("range_proof"))

    @property
    def entries(self) -> Tuple[Tuple[bytes, bytes], ...]:
        return self.range_proof.entries


@dataclass(frozen=True)
class LedgerMultiProof(BlockAnchored):
    """Proof for K point reads sharing one block witness.

    The batched analogue of :class:`LedgerProof`: the inner
    :class:`~repro.indexes.pos_tree.PosMultiProof` deduplicates index
    nodes across the K keys, and the :class:`BlockWitness` — identical
    for every key answered against the same sealed block — is bound
    once instead of K times.
    """

    multi: PosMultiProof
    block: BlockWitness
    evidence = property(attrgetter("multi"))

    @property
    def entries(self) -> Tuple[Tuple[bytes, Optional[bytes]], ...]:
        return self.multi.entries
