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

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from operator import ge
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.crypto.hashing import Digest
from repro.forkbase.chunk_store import ChunkStore

#: Sentinel marking a key for deletion in a batch update.
DELETE = object()


#: Node layout v3, leaves and branches alike:
#: ``tag(1) ‖ count(u32) ‖ prefix length(varint) ‖ prefix ‖
#: count × suffix length(varint) ‖ suffixes ‖ count × digest(32)``.
#: The prefix is the longest common prefix of the first and last key —
#: of every key, since keys are sorted — and a varint is unsigned
#: LEB128, minimally encoded.
_HEAD = struct.Struct(">cI")
_TAGS = {b"L": "L", b"B": "B"}
_DIGEST = "32s"  # struct field of one digest
_PAIR_BYTES = 1 + 32  # the least a pair takes: a one-byte length, a digest


def _common_prefix(first: bytes, last: bytes) -> int:
    """Length of the longest common prefix of ``first`` and ``last``."""
    size = min(len(first), len(last))
    differ = int.from_bytes(first[:size], "big") ^ int.from_bytes(
        last[:size], "big"
    )
    return size - (differ.bit_length() + 7) // 8


def varint(number: int) -> bytes:
    """``number`` as an unsigned LEB128 varint, minimally encoded."""
    out = bytearray()
    while number > 0x7F:
        out.append(number & 0x7F | 0x80)
        number >>= 7
    out.append(number)
    return bytes(out)


def varint_at(data: bytes, at: int) -> Tuple[int, int]:
    """The varint at ``data[at:]`` and the offset just past it;
    ``ValueError`` if it is cut short or not minimal, or grows past
    ``len(data)`` (no length in a node can, and the bound keeps a long
    run of continuation bytes linear)."""
    number = shift = 0
    while at < len(data):
        byte = data[at]
        at += 1
        number |= (byte & 0x7F) << shift
        if byte < 0x80:
            if byte == 0 and shift:
                raise ValueError("node varint is not minimal")
            return number, at
        if number > len(data):
            raise ValueError("node varint exceeds its node")
        shift += 7
    raise ValueError("node varint is cut short")


def encode_node(node: tuple) -> bytes:
    """Serialize a node ``(tag, ((key, digest), ...))``: tag ``"L"``
    (a leaf — each digest is ``H(value)``, the value's chunk address) or
    ``"B"`` (a branch — each digest is a child node's address under the
    child's first key).  Raises ``ValueError`` for a digest that is not
    32 bytes or keys that are not strictly increasing: the prefix is
    stored once, so bytes from unsorted keys could decode to another
    node."""
    tag, pairs = node
    head = _HEAD.pack(tag.encode(), len(pairs))
    if not pairs:
        return head + b"\x00"
    keys, digests = zip(*pairs)
    if set(map(len, digests)) != {32}:
        raise ValueError("node digests must be 32 bytes each")
    if any(map(ge, keys, keys[1:])):
        raise ValueError("node keys must be strictly increasing")
    cut = _common_prefix(keys[0], keys[-1])
    suffixes = [key[cut:] for key in keys] if cut else keys
    lengths = tuple(map(len, suffixes))
    return b"".join((
        head,
        varint(cut),
        keys[0][:cut],
        bytes(lengths) if max(lengths) < 0x80
        else b"".join(map(varint, lengths)),
        *suffixes,
        *digests,
    ))


def decode_node(data: bytes) -> tuple:
    """Strict inverse of :func:`encode_node`.

    Total over arbitrary bytes — a verifier runs it on what an
    untrusted server sent: a bad tag, a count the bytes cannot hold, a
    varint cut short or not minimal, missing or trailing bytes, keys not
    strictly increasing and a prefix other than the first and last key's
    longest common one all raise ``ValueError``, and nothing else is
    raised.  What it accepts re-encodes to ``data``.
    """
    if len(data) < _HEAD.size:
        raise ValueError("node shorter than its header")
    raw_tag, count = _HEAD.unpack_from(data)
    tag = _TAGS.get(raw_tag)
    if tag is None:
        raise ValueError(f"unknown node tag {raw_tag!r}")
    if count > (len(data) - _HEAD.size) // _PAIR_BYTES:
        raise ValueError("node count exceeds its bytes")
    cut, at = varint_at(data, _HEAD.size)
    prefix, at = data[at:at + cut], at + cut
    lengths = data[at:at + count]
    if len(lengths) == count and lengths.isascii():  # each below 128
        at += count
    else:
        lengths = []
        for _ in range(count):
            length, at = varint_at(data, at)
            lengths.append(length)
    digests = len(data) - 32 * count
    if at + sum(lengths) != digests:
        raise ValueError("node has missing or trailing bytes")
    keys = []
    for length in lengths:
        start, at = at, at + length
        keys.append(prefix + data[start:at])
    if any(map(ge, keys, keys[1:])):
        raise ValueError("node keys are not strictly increasing")
    if cut != (_common_prefix(keys[0], keys[-1]) if keys else 0):
        raise ValueError("node prefix is not its keys' common prefix")
    return tag, tuple(
        zip(keys, struct.unpack_from(_DIGEST * count, data, digests))
    )


class NodeCache(dict):
    """A verifier's memo of hash-checked nodes: digest → decoded node.

    ``entries`` hash-conses the nodes' entries.  Successive versions
    of a node differ in the entry that changed, so the versions held
    here share every other entry by identity — as the server's decoded
    nodes do (:meth:`~repro.indexes.pos_tree.PosTree.apply`) — instead
    of each keeping its own copy of every key and value.

    ``roots`` are the roots walked since the verifier last adopted a
    digest (:func:`~repro.indexes.pos_tree._first_visits` adds each),
    and only a walk from one of them can hit the cache again.  :meth:`sweep` keeps what they
    reach; a node it drops is a later miss, hashed before it is parsed.
    """

    def __init__(self) -> None:
        super().__init__()
        self.entries: Dict[tuple, tuple] = {}
        self.roots: set = set()
        #: Nodes the last sweep kept.
        self.kept = 0

    def sweep(self) -> None:
        """Once the cache has doubled since the last sweep, keep only
        the nodes ``roots`` reach through cached nodes and rebuild
        ``entries`` from them.  Doubling makes the sweeps cost O(1) per
        node cached; there is no size bound."""
        if len(self) <= 2 * self.kept:
            return
        kept: Dict[bytes, tuple] = {}
        pending = list(self.roots)
        while pending:
            address = pending.pop()
            node = self.get(address)
            if node is None or address in kept:
                continue
            kept[address] = node
            if node[0] == "B":
                pending += [child for _key, child in node[1]]
        self.clear()
        self.update(kept)
        pairs = [pair for node in kept.values() for pair in node[1]]
        self.entries = dict(zip(pairs, pairs))
        self.kept = len(kept)


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
    (and including) the node that answers the query, in the order the
    answering walk visited them (root first); that order is part of the
    proof.  ``key`` and ``value`` state the claim: ``value is None``
    claims absence.  Verification re-walks the path, requires each node
    it does not already hold to hash to the address its parent names,
    and accepts the value only under the digest the path ends on, so
    any tampering with the value, the key, or any node on the path is
    detected.
    """

    key: bytes
    value: Optional[bytes]
    nodes: Tuple[bytes, ...]

    @property
    def size_bytes(self) -> int:
        """Approximate wire size, for cost accounting."""
        return sum(map(len, (self.key, self.value or b"", *self.nodes))) + 16

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
