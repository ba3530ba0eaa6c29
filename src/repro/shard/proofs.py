"""Sharded proof objects: inner ledger proof + shard-membership branch.

A sharded proof is the single-ledger proof plus one extra anchor step:
a Merkle branch from the answering shard's digest up to the pinned
digest-of-digests.  Verification composes bottom-up exactly like the
three-layer single-ledger recipe (Section 5.3) with a fourth layer on
top:

1. membership — the shard's ``LedgerDigest`` is leaf ``shard_id`` of
   the trusted root, and every key the proof speaks about routes to
   that shard;
2..4. the inner proof — chain digest, block digest, POS-tree path —
   checked against *that shard's* chain digest.

Every sharded proof also embeds the :class:`ShardedDigest` it was
built against: the serving facade captures shard leaves atomically, so
the digest the client is offered and the proof's membership branches
are guaranteed to describe the same fleet state.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Tuple

from repro.core.proofs import LedgerMultiProof, LedgerProof
from repro.crypto.hashing import Digest
from repro.shard.digest import ShardMembership, ShardedDigest


class ShardAnchored:
    """A single-ledger proof checked under one shard of the fleet.

    The single ``verify`` of everything shard-anchored: the membership
    anchor step turns the trusted digest-of-digests into the owning
    shard's chain digest, and ``inner`` — any block-anchored proof —
    is verified against that.  Subclasses are dataclasses with a
    ``membership`` field that point ``inner`` at their proof field.
    """

    @property
    def shard_id(self) -> int:
        return self.membership.shard_id

    @property
    def size_bytes(self) -> int:
        return self.inner.size_bytes + self.membership.size_bytes

    @property
    def cacheable_nodes(self) -> Tuple[bytes, ...]:
        """Index nodes eligible for the verifier's node cache."""
        return self.inner.cacheable_nodes

    @property
    def label(self) -> str:
        return (
            f"sharded-{self.inner.evidence.label}@shard{self.shard_id}"
            f"/block{self.inner.block.height}"
        )

    def verify(
        self,
        trusted_root: Digest,
        node_cache: Optional[dict] = None,
        block_cache: Optional[set] = None,
    ) -> bool:
        """Check the full four-layer binding against a trusted root."""
        chain = self.membership.anchor(trusted_root, self.inner.keys)
        return chain is not None and self.inner.verify(
            chain, node_cache, block_cache
        )


@dataclass(frozen=True)
class ShardedProof(ShardAnchored):
    """Point read (or proven absence) against the digest-of-digests."""

    inner: LedgerProof
    membership: ShardMembership
    #: The top-level digest this proof's membership branch reaches —
    #: served alongside the result so client and proof stay in sync.
    digest: ShardedDigest

    @property
    def key(self) -> bytes:
        return self.inner.key

    @property
    def value(self) -> Optional[bytes]:
        return self.inner.value

    @property
    def size_bytes(self) -> int:
        return super().size_bytes + 32


@dataclass(frozen=True)
class ShardedMultiPart(ShardAnchored):
    """One shard's slice of a batched read: membership + multiproof."""

    membership: ShardMembership
    multi: LedgerMultiProof
    inner = property(attrgetter("multi"))


@dataclass(frozen=True)
class ShardedMultiProof:
    """Batched point reads spanning shards, one trusted root.

    ``keys`` are the requested logical keys in request order; each
    involved shard contributes one :class:`ShardedMultiPart`.
    Verification additionally checks *coverage*: the parts together
    answer exactly the requested key multiset, so a server cannot
    silently drop a key whose answer it would rather not prove.
    """

    keys: Tuple[bytes, ...]
    parts: Tuple[ShardedMultiPart, ...]
    digest: ShardedDigest

    @property
    def size_bytes(self) -> int:
        return 32 + sum(part.size_bytes for part in self.parts)

    @property
    def cacheable_nodes(self) -> Tuple[bytes, ...]:
        return tuple(
            node for part in self.parts for node in part.cacheable_nodes
        )

    @property
    def label(self) -> str:
        return (
            f"sharded-multi:{len(self.keys)}keys"
            f"/{len(self.parts)}shards"
        )

    @property
    def entries(self) -> Tuple[Tuple[bytes, Optional[bytes]], ...]:
        """(key, value) pairs re-assembled in request order."""
        by_key = {
            key: value
            for part in self.parts
            for key, value in part.multi.entries
        }
        return tuple((key, by_key.get(key)) for key in self.keys)

    def verify(
        self,
        trusted_root: Digest,
        node_cache: Optional[dict] = None,
        block_cache: Optional[set] = None,
    ) -> bool:
        """Every part verifies under its own shard, no shard answers
        twice, and together the parts cover exactly ``keys``."""
        covered: list = []
        seen_shards = set()
        for part in self.parts:
            if part.shard_id in seen_shards:
                return False  # duplicate shard part: not a server shape
            seen_shards.add(part.shard_id)
            if not part.verify(trusted_root, node_cache, block_cache):
                return False
            covered.extend(part.multi.keys)
        return sorted(covered) == sorted(self.keys)
