"""Horizontal sharding: partitioned ledgers behind one digest.

The ROADMAP's sharding item realized: the keyspace is hash-partitioned
across N independent shards (each a full POS-tree ledger + chunk store
+ metrics registry, optionally with its own WAL), single-shard writes
go direct, multi-shard batches run two-phase commit with HLC-stamped
messages (Section 5.2), and clients pin a single digest-of-digests —
a Merkle root over per-shard ledger digests — that every sharded proof
reaches through a shard-membership branch (Section 5.3's trust model,
unchanged in size).
"""

from repro.shard.database import ShardedDatabase, make_shard_oracle
from repro.shard.digest import (
    ShardMembership,
    ShardedDigest,
    anchor_shards,
    digest_of_digests,
    shard_leaf,
)
from repro.shard.proofs import (
    ShardedMultiPart,
    ShardedMultiProof,
    ShardedProof,
)
from repro.shard.router import ShardRouter, shard_for_key

__all__ = [
    "ShardMembership",
    "ShardRouter",
    "ShardedDatabase",
    "ShardedDigest",
    "ShardedMultiPart",
    "ShardedMultiProof",
    "ShardedProof",
    "anchor_shards",
    "digest_of_digests",
    "make_shard_oracle",
    "shard_for_key",
    "shard_leaf",
]
