"""Merkle Bucket Tree (MBT).

The SIRI member used by Hyperledger Fabric's state database (paper
Section 3.1, ref [5]).  Keys hash into a *fixed* number of buckets;
each bucket holds its entries sorted by key; a perfect binary Merkle
tree over the bucket digests yields the root.  Shape is fixed by the
bucket count, so the root digest depends only on content — structural
invariance for free — but unlike the POS-tree the proof path length is
fixed (``log2(buckets)``) and per-bucket entry lists grow with n,
which is the trade-off [59] analyzes.

Node layout: bucket ``("K", ((key, value), ...))``, interior
``("I", left_digest_bytes, right_digest_bytes)``.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Mapping, Optional, Tuple

from repro.crypto.hashing import Digest, hash_bytes
from repro.errors import ProofError
from repro.forkbase.chunk_store import ChunkStore
from repro.indexes.pickled_nodes import decode_node, encode_node
from repro.indexes.siri import SiriIndex, SiriProof

DEFAULT_BUCKETS = 256


def _bucket_of(key: bytes, buckets: int) -> int:
    return int.from_bytes(hash_bytes(key)[:4], "big") % buckets


class MerkleBucketTree(SiriIndex):
    """An immutable MBT instance.

    ``buckets`` must be a power of two.  The instance keeps the full
    interior level structure in memory (small: ``2 * buckets`` refs);
    updates path-copy one bucket and ``log2(buckets)`` interior nodes.
    """

    def __init__(
        self,
        store: ChunkStore,
        levels: List[List[Digest]],
        buckets: int,
    ):
        self.store = store
        self.buckets = buckets
        # levels[0] = bucket digests (len == buckets);
        # levels[-1] = [root digest].
        self._levels = levels

    @classmethod
    def empty(
        cls, store: ChunkStore, buckets: int = DEFAULT_BUCKETS
    ) -> "MerkleBucketTree":
        if buckets & (buckets - 1) or buckets <= 0:
            raise ValueError("bucket count must be a power of two")
        empty_bucket = store.put(encode_node(("K", ())))
        level: List[Digest] = [empty_bucket] * buckets
        levels = [level]
        while len(levels[-1]) > 1:
            levels.append(cls._pair_level(store, levels[-1]))
        return cls(store, levels, buckets)

    @classmethod
    def from_items(
        cls, store: ChunkStore, items, buckets: int = DEFAULT_BUCKETS
    ) -> "MerkleBucketTree":
        return cls.empty(store, buckets).apply(dict(items))

    @staticmethod
    def _pair_level(store: ChunkStore, level: List[Digest]) -> List[Digest]:
        return [
            store.put(encode_node(("I", level[i], level[i + 1])))
            for i in range(0, len(level), 2)
        ]

    @property
    def root(self) -> Digest:
        return self._levels[-1][0]

    # -- reads -------------------------------------------------------------

    def _bucket_entries(self, index: int) -> List[Tuple[bytes, bytes]]:
        node = decode_node(self.store.get(self._levels[0][index]))
        return list(node[1])

    def get(self, key: bytes) -> Optional[bytes]:
        entries = self._bucket_entries(_bucket_of(key, self.buckets))
        keys = [entry[0] for entry in entries]
        position = bisect.bisect_left(keys, key)
        if position < len(entries) and entries[position][0] == key:
            return entries[position][1]
        return None

    def get_with_proof(self, key: bytes) -> Tuple[Optional[bytes], SiriProof]:
        """Lookup plus the interior path from root to the bucket."""
        bucket = _bucket_of(key, self.buckets)
        nodes: List[bytes] = []
        # Walk root-down choosing by the bucket index bits, collecting
        # interior node bytes, ending with the bucket node itself.
        depth = len(self._levels) - 1
        for level_index in range(depth, 0, -1):
            position = bucket >> level_index
            nodes.append(self.store.get(self._levels[level_index][position]))
        nodes.append(self.store.get(self._levels[0][bucket]))
        value = self.get(key)
        return value, SiriProof(key=key, value=value, nodes=tuple(nodes))

    @classmethod
    def verify_proof(
        cls, proof: SiriProof, root: Digest, buckets: int = DEFAULT_BUCKETS
    ) -> bool:
        """Replay the bucket-bit walk, recomputing digests top-down."""
        try:
            bucket = _bucket_of(proof.key, buckets)
            depth = buckets.bit_length() - 1
            expected = root
            nodes = list(proof.nodes)
            if len(nodes) != depth + 1:
                return False
            for step in range(depth):
                raw = nodes[step]
                if hash_bytes(raw) != expected:
                    return False
                node = decode_node(raw)
                if node[0] != "I":
                    return False
                bit = (bucket >> (depth - 1 - step)) & 1
                expected = node[2] if bit else node[1]
            raw = nodes[-1]
            if hash_bytes(raw) != expected:
                return False
            node = decode_node(raw)
            if node[0] != "K":
                return False
            found: Optional[bytes] = None
            for entry_key, entry_value in node[1]:
                if entry_key == proof.key:
                    found = entry_value
                    break
            return found == proof.value
        except (ProofError, ValueError, KeyError, TypeError):
            return False

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        everything: List[Tuple[bytes, bytes]] = []
        for index in range(self.buckets):
            everything.extend(self._bucket_entries(index))
        everything.sort()
        return iter(everything)

    # -- updates -----------------------------------------------------------

    def apply(self, updates: Mapping[bytes, object]) -> "MerkleBucketTree":
        if not updates:
            return self
        by_bucket: dict = {}
        for key, value in updates.items():
            by_bucket.setdefault(
                _bucket_of(key, self.buckets), {}
            )[key] = value

        new_levels = [list(level) for level in self._levels]
        for bucket, bucket_updates in by_bucket.items():
            entries = dict(self._bucket_entries(bucket))
            for key, value in bucket_updates.items():
                if value is None:
                    entries.pop(key, None)
                else:
                    entries[key] = value
            node = ("K", tuple(sorted(entries.items())))
            new_levels[0][bucket] = self.store.put(encode_node(node))
            # Recompute the interior path for this bucket.
            position = bucket
            for level_index in range(1, len(new_levels)):
                position //= 2
                left = new_levels[level_index - 1][2 * position]
                right = new_levels[level_index - 1][2 * position + 1]
                new_levels[level_index][position] = self.store.put(
                    encode_node(("I", left, right))
                )
        return MerkleBucketTree(self.store, new_levels, self.buckets)
