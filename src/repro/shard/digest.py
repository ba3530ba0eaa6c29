"""The digest-of-digests: one pinned root over N shard ledgers.

Each shard seals its own hash-chained ledger and publishes a
:class:`~repro.core.ledger.LedgerDigest`.  The facade commits to the
whole fleet with a Merkle root over canonical per-shard leaves — a
client pins that single root and every proof carries a membership
branch from its shard's digest up to it, so trust still reduces to one
32-byte value exactly as in the single-ledger system (Section 5.3).

Monotonicity: :attr:`ShardedDigest.height` is the *sum* of shard
heights.  Shard ledgers are append-only, so the height vector is
componentwise non-decreasing — two honest roots with equal total
height commit to identical vectors, which is what lets
:class:`~repro.core.verifier.ClientVerifier.observe` reuse its
equal-height-fork rule unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.ledger import LedgerDigest
from repro.core.schema import KV_PREFIX
from repro.crypto.hashing import Digest
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.shard.router import shard_for_key

#: Domain tag for shard leaves: a leaf can never collide with interior
#: nodes (Merkle domain separation) nor with other leaf vocabularies.
_LEAF_TAG = b"spitz-shard-leaf\x00"


def shard_leaf(shard_id: int, num_shards: int, digest: LedgerDigest) -> bytes:
    """Canonical leaf encoding binding a shard id *and the fleet size*
    to the shard's digest.

    ``num_shards`` decides which shard owns a key, so it has to be as
    authentic as the shard id: with it in every leaf, a branch that
    reaches the trusted root fixes both.
    """
    return (
        _LEAF_TAG
        + shard_id.to_bytes(4, "big")
        + num_shards.to_bytes(4, "big")
        + digest.height.to_bytes(8, "big")
        + digest.chain_digest
        + digest.tree_root
    )


@dataclass(frozen=True)
class ShardedDigest:
    """What a client pins against a sharded deployment.

    Attribute names mirror :class:`~repro.core.ledger.LedgerDigest`
    (``height``/``chain_digest``/``tree_root``) so the client verifier's
    fork-detection and anchoring logic applies unchanged; for a sharded
    deployment both digest views *are* the Merkle root.
    """

    num_shards: int
    #: Sum of per-shard ledger heights — strictly monotone under writes.
    height: int
    root: Digest

    @property
    def chain_digest(self) -> Digest:
        return self.root

    @property
    def tree_root(self) -> Digest:
        return self.root


@dataclass(frozen=True)
class ShardMembership:
    """The shard anchor step carried by every sharded proof.

    Binds one shard's :class:`~repro.core.ledger.LedgerDigest` under
    the top-level root: the Merkle path proves leaf ``shard_id`` of a
    ``num_shards``-leaf fleet commits to exactly this digest, and the
    inner ledger proof then verifies against
    ``shard_digest.chain_digest`` as usual.
    """

    shard_id: int
    shard_digest: LedgerDigest
    proof: MerkleProof

    @property
    def num_shards(self) -> int:
        """The fleet size the leaf commits to (one leaf per shard)."""
        return self.proof.tree_size

    def anchor(
        self, trusted_root: Digest, keys: Sequence[bytes]
    ) -> Optional[Digest]:
        """Trusted digest-of-digests → this shard's chain digest.

        ``None`` unless the leaf is under ``trusted_root`` *and* every
        one of ``keys`` (ledger keys, ``KV_PREFIX`` included) routes to
        this shard: without the second half a server could answer from
        a shard that does not own the key and prove any record absent.
        Nonsense field values (a height that does not fit the leaf
        encoding, say) are a failed anchor, never an exception.
        """
        if self.proof.leaf_index != self.shard_id:
            return None
        try:
            leaf = shard_leaf(
                self.shard_id, self.num_shards, self.shard_digest
            )
            if not self.proof.verify(leaf, trusted_root):
                return None
            for key in keys:
                if not key.startswith(KV_PREFIX) or self.shard_id != (
                    shard_for_key(key[len(KV_PREFIX):], self.num_shards)
                ):
                    return None
        except (OverflowError, TypeError, ValueError):
            return None
        return self.shard_digest.chain_digest

    @property
    def size_bytes(self) -> int:
        # shard id + height + two digests + the Merkle path.
        return 4 + 8 + 64 + self.proof.size_bytes


def anchor_shards(
    digests: Sequence[LedgerDigest], shard_ids: Sequence[int]
) -> Tuple[ShardedDigest, List[ShardMembership]]:
    """The digest-of-digests over ``digests`` (leaf ``i`` commits to
    shard ``i``) and membership branches for ``shard_ids`` under it."""
    tree = MerkleTree(
        [
            shard_leaf(shard_id, len(digests), digest)
            for shard_id, digest in enumerate(digests)
        ]
    )
    top = ShardedDigest(
        num_shards=len(digests),
        height=sum(digest.height for digest in digests),
        root=tree.root,
    )
    return top, [
        ShardMembership(
            shard_id=shard_id,
            shard_digest=digests[shard_id],
            proof=tree.prove(shard_id),
        )
        for shard_id in shard_ids
    ]


def digest_of_digests(digests: Sequence[LedgerDigest]) -> ShardedDigest:
    """Fold per-shard digests into the single top-level digest."""
    return anchor_shards(digests, ())[0]
