"""Classic binary Merkle tree, inclusion proofs, and an append-only
hash chain.

The baseline system (Section 6.1 of the paper) builds "a ledger
implemented by a Merkle tree" over journal blocks; Spitz chains ledger
blocks with a hash chain and authenticates the whole ledger with the
same Merkle construction.  Both live here.

Domain separation: leaf hashes are prefixed with ``0x00`` and interior
hashes with ``0x01`` so a leaf can never be confused with an interior
node (the classic second-preimage defence).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.crypto.hashing import Digest, EMPTY_DIGEST
from repro.errors import ProofError

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _leaf_hash(data: bytes) -> Digest:
    return hashlib.sha256(_LEAF_PREFIX + data).digest()


def _node_hash(left: bytes, right: bytes) -> Digest:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


@dataclass(frozen=True)
class MerkleProof:
    """An inclusion proof: the leaf index and the sibling path.

    ``path`` lists ``(sibling_digest, sibling_is_left)`` pairs from the
    leaf up to (but excluding) the root.
    """

    leaf_index: int
    tree_size: int
    path: Tuple[Tuple[Digest, bool], ...]

    def root_from(self, leaf_data: bytes) -> Digest:
        """Recompute the root digest implied by this proof and a leaf."""
        node = _leaf_hash(leaf_data)
        for sibling, sibling_is_left in self.path:
            if sibling_is_left:
                node = _node_hash(sibling, node)
            else:
                node = _node_hash(node, sibling)
        return node

    def verify(self, leaf_data: bytes, root: Digest) -> bool:
        """True iff ``leaf_data`` is proven to be under ``root``."""
        return self.root_from(leaf_data) == root

    @property
    def size_bytes(self) -> int:
        """Approximate wire size of the proof (for cost accounting)."""
        return 8 + 8 + len(self.path) * 33


class MerkleTree:
    """A binary Merkle tree over an append-only sequence of leaves.

    The tree is maintained level-by-level; appends are amortized
    O(log n) and proofs are O(log n).  Odd nodes are *promoted* (not
    duplicated) to the next level, matching RFC 6962 and avoiding the
    duplicate-leaf attack of naive constructions.
    """

    def __init__(self, leaves: Optional[Sequence[bytes]] = None):
        self._leaf_data: List[bytes] = []
        # _levels[0] = leaf hashes; _levels[k] = level-k interior hashes.
        self._levels: List[List[Digest]] = [[]]
        if leaves:
            for leaf in leaves:
                self.append(leaf)

    def __len__(self) -> int:
        return len(self._leaf_data)

    def append(self, leaf_data: bytes) -> int:
        """Append a leaf; return its index.

        Only the right spine of the tree can change on an append, so
        the update is O(log n): recompute the parent of the last one or
        two nodes at each level.
        """
        index = len(self._leaf_data)
        self._leaf_data.append(leaf_data)
        self._levels[0].append(_leaf_hash(leaf_data))
        self._update_spine()
        return index

    def _update_spine(self) -> None:
        level_index = 0
        position = len(self._levels[0]) - 1
        while len(self._levels[level_index]) > 1:
            if level_index + 1 == len(self._levels):
                self._levels.append([])
            level = self._levels[level_index]
            parent_level = self._levels[level_index + 1]
            parent_pos = position // 2
            left = level[2 * parent_pos]
            if 2 * parent_pos + 1 < len(level):
                parent = _node_hash(left, level[2 * parent_pos + 1])
            else:
                parent = left  # odd node promoted
            if parent_pos < len(parent_level):
                parent_level[parent_pos] = parent
            else:
                parent_level.append(parent)
            level_index += 1
            position = parent_pos

    def extend(self, leaves: Sequence[bytes]) -> None:
        """Append many leaves (single upper-level rebuild)."""
        for leaf in leaves:
            self._leaf_data.append(leaf)
            self._levels[0].append(_leaf_hash(leaf))
        self._rebuild_upper_levels()

    def _rebuild_upper_levels(self) -> None:
        # Rebuild interior levels from the leaf level.  Incremental
        # maintenance is possible but a full rebuild of *upper* levels
        # only is O(n) per call and O(n log n) total over a bulk load,
        # which is fine for this library's block-batched usage.
        level = self._levels[0]
        self._levels = [level]
        while len(level) > 1:
            nxt: List[Digest] = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(_node_hash(level[i], level[i + 1]))
            if len(level) % 2 == 1:
                nxt.append(level[-1])  # promote the odd node
            self._levels.append(nxt)
            level = nxt

    @property
    def root(self) -> Digest:
        """Digest of the root (``EMPTY_DIGEST`` for an empty tree)."""
        if not self._leaf_data:
            return EMPTY_DIGEST
        return self._levels[-1][0]

    def leaf(self, index: int) -> bytes:
        """Raw data of leaf ``index``."""
        return self._leaf_data[index]

    def prove(self, index: int) -> MerkleProof:
        """Build an inclusion proof for leaf ``index``."""
        if not 0 <= index < len(self._leaf_data):
            raise ProofError(
                f"leaf index {index} out of range 0..{len(self._leaf_data) - 1}"
            )
        path: List[Tuple[Digest, bool]] = []
        position = index
        for level in self._levels[:-1]:
            sibling = position ^ 1
            if sibling < len(level):
                path.append((level[sibling], sibling < position))
                position //= 2
            else:
                # Odd node promoted unchanged: position carries over.
                position //= 2
        return MerkleProof(
            leaf_index=index,
            tree_size=len(self._leaf_data),
            path=tuple(path),
        )


@dataclass(frozen=True)
class ChainEntry:
    """One link of a hash chain: payload digest plus cumulative digest."""

    index: int
    payload_digest: Digest
    chain_digest: Digest


class HashChain:
    """An append-only hash chain (blockchain-style block linkage).

    ``chain_digest[i] = H(chain_digest[i-1] || payload_digest[i])`` with
    ``chain_digest[-1] = EMPTY_DIGEST``.  Verifying a prefix of the
    chain against a trusted head digest detects any historical
    rewrite.
    """

    def __init__(self) -> None:
        self._entries: List[ChainEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def head(self) -> Digest:
        """Digest of the latest link (``EMPTY_DIGEST`` when empty)."""
        if not self._entries:
            return EMPTY_DIGEST
        return self._entries[-1].chain_digest

    def append(self, payload_digest: Digest) -> ChainEntry:
        """Link a new payload digest onto the chain."""
        entry = ChainEntry(
            index=len(self._entries),
            payload_digest=payload_digest,
            chain_digest=_node_hash(self.head, payload_digest),
        )
        self._entries.append(entry)
        return entry

    def entry(self, index: int) -> ChainEntry:
        return self._entries[index]

    def verify_prefix(self, payload_digests: Sequence[Digest]) -> bool:
        """Recompute the chain over ``payload_digests`` and compare.

        Returns True iff the provided payload digests reproduce this
        chain's stored links exactly (same order, same values).
        """
        if len(payload_digests) > len(self._entries):
            return False
        running = EMPTY_DIGEST
        for i, payload in enumerate(payload_digests):
            running = _node_hash(running, payload)
            if running != self._entries[i].chain_digest:
                return False
        return True
