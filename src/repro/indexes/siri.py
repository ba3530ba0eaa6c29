"""The SIRI contract and the common proof format.

"Structurally Invariant and Reusable Indexes" (Yue et al., SIGMOD 2020,
cited as [59] by the paper) characterizes indexes whose physical shape
is a pure function of their logical content:

1. **Structural invariance** — the same key/value set yields the same
   root digest regardless of insertion order or batching;
2. **Recyclability** — an update creates a new instance that shares all
   unchanged nodes with its predecessor;
3. **Integrated proofs** — a lookup yields an authentication path as a
   by-product of the traversal.

Every member here stores nodes in a
:class:`~repro.forkbase.chunk_store.ChunkStore` under the SHA-256 of
their serialized bytes, so the root *address* doubles as the digest and
node sharing across versions is automatic.
"""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.crypto.hashing import Digest, hash_bytes
from repro.errors import ProofError
from repro.forkbase.chunk_store import ChunkStore

#: Sentinel marking a key for deletion in a batch update.
DELETE = object()


def encode_node(node: tuple) -> bytes:
    """Serialize an index node deterministically.

    Plain ``pickle.dumps`` memoizes repeated object references, so the
    byte output depends on object *identity* (two equal values that
    happen to be one object serialize differently from two equal
    copies) — fatal for content addressing.  ``fast`` mode disables
    the memo; nodes are acyclic trees of bytes/str/int/None, so no
    cycle risk exists.
    """
    import io

    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.fast = True
    pickler.dump(node)
    return buffer.getvalue()


def decode_node(data: bytes) -> tuple:
    """Inverse of :func:`encode_node`."""
    return pickle.loads(data)


class NodeCache(dict):
    """A verifier's memo of hash-checked nodes: digest → decoded node.

    ``entries`` hash-conses the nodes' entries.  Successive versions
    of a node differ in the entry that changed, so the versions held
    here share every other entry by identity — as the server's decoded
    nodes do (:meth:`~repro.indexes.pos_tree.PosTree.apply`) — instead
    of each keeping its own copy of every key and value.
    """

    def __init__(self) -> None:
        super().__init__()
        self.entries: Dict[tuple, tuple] = {}


def cache_node(cache: Optional[dict], digest: Digest, raw: bytes) -> tuple:
    """Decode ``raw``, which the caller has hashed to ``digest``, and
    memoize the node in ``cache`` (if any)."""
    node = decode_node(raw)
    if isinstance(cache, NodeCache):
        shared = cache.entries.setdefault
        node = (node[0], tuple(map(shared, node[1], node[1])))
    if cache is not None:
        cache[digest] = node
    return node


@dataclass(frozen=True)
class SiriProof:
    """An authentication path for one key.

    ``nodes`` holds the raw bytes of every node from the root down to
    (and including) the node that answers the query, in root-first
    order.  ``key`` and ``value`` state the claim: ``value is None``
    claims absence.  Verification recomputes each node's digest and
    checks parent-to-child linkage, so any tampering with the value,
    the key, or any node on the path is detected.
    """

    key: bytes
    value: Optional[bytes]
    nodes: Tuple[bytes, ...]

    @property
    def size_bytes(self) -> int:
        """Approximate wire size, for cost accounting."""
        return len(self.key) + sum(len(n) for n in self.nodes) + 16

    @property
    def keys(self) -> Tuple[bytes, ...]:
        return (self.key,)

    @property
    def label(self) -> str:
        return f"point:{self.key!r}"

    def verify(self, root: Digest, cache: Optional[dict] = None) -> bool:
        """True iff the path authenticates the claim under a POS-tree
        ``root`` — the index every ledger and search column uses.  (MPT
        and MBT paths go through their own ``verify_proof``.)"""
        from repro.indexes.pos_tree import PosTree

        return PosTree.verify_proof(self, root, cache)


class SiriIndex(ABC):
    """Interface shared by POS-tree, MPT and MBT."""

    store: ChunkStore

    @property
    @abstractmethod
    def root(self) -> Digest:
        """Content digest of the whole index."""

    @abstractmethod
    def get(self, key: bytes) -> Optional[bytes]:
        """Value for ``key`` or None."""

    @abstractmethod
    def get_with_proof(self, key: bytes) -> Tuple[Optional[bytes], SiriProof]:
        """Value (or None) together with its authentication path."""

    @abstractmethod
    def apply(self, updates: Mapping[bytes, object]) -> "SiriIndex":
        """Return a new instance with ``updates`` applied.

        Values are bytes; the :data:`DELETE` sentinel removes a key.
        The receiver is unchanged (persistence); the result shares all
        untouched nodes with the receiver (recyclability).
        """

    @abstractmethod
    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """All entries in key order."""

    def __len__(self) -> int:
        return sum(1 for _item in self.items())

    # -- convenience -----------------------------------------------------

    def set(self, key: bytes, value: bytes) -> "SiriIndex":
        return self.apply({key: value})

    def delete(self, key: bytes) -> "SiriIndex":
        return self.apply({key: DELETE})


def check_linkage(parent_bytes: bytes, child_address: Digest) -> None:
    """Raise :class:`ProofError` unless ``parent_bytes`` references
    ``child_address``.

    Works for any node layout produced by :func:`encode_node` because
    node references are stored as raw digest bytes inside the pickle.
    """
    if bytes(child_address) not in parent_bytes:
        raise ProofError(
            f"proof node does not link to child {child_address.hex()[:12]}"
        )


def verify_siri_proof(
    proof: SiriProof,
    root: Digest,
    find_child: "callable",
    cache: Optional[dict] = None,
) -> bool:
    """Generic skeleton for SIRI proof verification.

    ``find_child(node, key)`` returns the digest of the next node on
    the path, or the proven value / None at the terminal node.  Each
    concrete index wraps this with its own ``find_child``; the shared
    part — recomputing digests root-down and checking linkage — lives
    here.  Returns False (never raises) on any mismatch, so callers can
    treat the result as a pure predicate.

    ``cache`` (digest → decoded node) memoizes nodes whose bytes were
    already hashed to their address.  Content addressing makes this
    sound: a digest match is a property of the bytes alone, so a node
    verified under one proof never needs re-hashing under another.
    This is what makes Spitz's deferred/batched verification cheap —
    consecutive proofs share the ledger index's upper levels.
    """
    if not proof.nodes:
        return False
    try:
        expected = root
        outcome: Optional[bytes] = None
        for raw in proof.nodes:
            node = cache.get(expected) if cache is not None else None
            if node is None:
                if hash_bytes(raw) != expected:
                    return False
                node = cache_node(cache, expected, raw)
            step = find_child(node, proof.key)
            if isinstance(step, Digest):
                expected = step
            else:
                outcome = step
                break
        else:
            # Path ended exactly at a terminal node; outcome set in loop.
            return False
        return outcome == proof.value
    except (ProofError, ValueError, KeyError, IndexError, TypeError):
        return False
