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
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, ge, itemgetter
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.crypto.hashing import Digest
from repro.forkbase.chunk_store import ChunkStore, varint

#: Node layout v4, leaves and branches alike, row-major:
#: ``tag(1) ‖ prefix length(varint) ‖ prefix`` then, per pair, one row
#: ``suffix length(varint) ‖ suffix ‖ digest(32)`` to the end of the
#: node — there is no count.  The prefix is the longest common prefix of
#: the first and last key — of every key, since keys are sorted — and a
#: varint is unsigned LEB128, minimally encoded.  Inserting, deleting or
#: re-pointing a pair edits one run of bytes (the header too only when
#: the prefix moves), so a retired node differs from its successor by
#: about one row (:meth:`~repro.forkbase.chunk_store.ChunkStore.supersede`),
#: and a row's bytes depend only on its pair and the prefix length: a
#: node written under its predecessor's prefix length copies the rows it
#: keeps as slices of the predecessor's bytes (:func:`encode_node`), and
#: the same stretches name the rows its delta copies back
#: (:func:`edit_spans`).  Under another prefix length a row's suffix and
#: digest are still the same bytes, shifted by the difference, so a split
#: or merge that moves the prefix still copies them back one row apiece.
_TAGS = {b"L": "L", b"B": "B"}
_DIGEST_BYTES = 32
#: One-byte varints, by value.
_SHORT = [bytes((length,)) for length in range(0x80)]


@lru_cache(maxsize=None)
def _rows(length: int) -> struct.Struct:
    """A row whose suffix is ``length`` (< 128) bytes long."""
    return struct.Struct(f"x{length}s{_DIGEST_BYTES}s")


def _common_prefix(first: bytes, last: bytes) -> int:
    """Length of the longest common prefix of ``first`` and ``last``."""
    size = min(len(first), len(last))
    differ = int.from_bytes(first[:size], "big") ^ int.from_bytes(
        last[:size], "big"
    )
    return size - (differ.bit_length() + 7) // 8


def varint_at(
    data: bytes, at: int, most: Optional[int] = None
) -> Tuple[int, int]:
    """The varint at ``data[at:]`` and the offset just past it;
    ``ValueError`` if it is cut short or not minimal, or grows past
    ``most`` (default ``len(data)``: no length in a node can, and the
    bound keeps a long run of continuation bytes linear)."""
    if most is None:
        most = len(data)
    number = shift = 0
    while at < len(data):
        byte = data[at]
        at += 1
        number |= (byte & 0x7F) << shift
        if byte < 0x80:
            if byte == 0 and shift:
                raise ValueError("node varint is not minimal")
            return number, at
        if number > most:
            raise ValueError("node varint exceeds its node")
        shift += 7
    raise ValueError("node varint is cut short")


def encode_node(node: tuple, kept: Sequence[tuple] = ()) -> bytes:
    """Serialize a node ``(tag, ((key, digest), ...))``: tag ``"L"``
    (a leaf — each digest is ``H(value)``, the value's chunk address) or
    ``"B"`` (a branch — each digest is a child node's address under the
    child's first key).  Raises ``ValueError`` for a digest that is not
    32 bytes or keys that are not strictly increasing: the prefix is
    stored once, so bytes from unsorted keys could decode to another
    node.

    ``kept`` names stretches ``((data, width), row, at, count)``, in
    order: pairs ``at..at + count`` are rows ``row..row + count`` of the
    encoded node ``data``, whose rows are all ``width`` bytes wide (0:
    not so; :func:`row_width`) — :meth:`PosTree.apply
    <repro.indexes.pos_tree.PosTree.apply>` keeps them whole.  A row's
    bytes depend only on its pair and the prefix length, so where
    ``data``'s prefix is as long as this node's, the stretch is one slice
    of ``data``, not encoded again; only the other pairs and the header
    are."""
    tag, pairs = node
    if not pairs:
        return tag.encode() + b"\x00"
    cut = _common_prefix(pairs[0][0], pairs[-1][0])
    head = 2 + cut
    pieces = [tag.encode(), varint(cut), pairs[0][0][:cut]]
    copies = []
    for (data, width), row, at, count in kept:
        if width and data[1] == cut:
            start = head + row * width
            copies.append((at, count, data[start:start + count * width]))
    # Every other pair is encoded and checked against the key before
    # it, as is each copy's first key (a copy's rows are a stored
    # node's, in order).
    before = None
    done = 0
    for at, count, rows in (*copies, (len(pairs), 0, b"")):
        for key, digest in pairs[done:at]:
            if before is not None and key <= before:
                raise ValueError("node keys must be strictly increasing")
            if len(digest) != _DIGEST_BYTES:
                raise ValueError("node digests must be 32 bytes each")
            length = len(key) - cut
            pieces += (
                _SHORT[length] if length < 0x80 else varint(length),
                key[cut:], digest,
            )
            before = key
        if count:
            if before is not None and pairs[at][0] <= before:
                raise ValueError("node keys must be strictly increasing")
            pieces.append(rows)
            before = pairs[at + count - 1][0]
        done = at + count
    return b"".join(pieces)


def decode_node(data: bytes) -> tuple:
    """Strict inverse of :func:`encode_node`.

    Total over arbitrary bytes — a verifier runs it on what an
    untrusted server sent: a bad tag, a prefix or a row cut short, a
    varint cut short or not minimal, keys not strictly increasing and a
    prefix other than the first and last key's longest common one all
    raise ``ValueError``, and nothing else is raised.  What it accepts
    re-encodes to ``data``.
    """
    tag = _TAGS.get(data[:1])
    if tag is None:
        raise ValueError(f"unknown node tag {data[:1]!r}")
    cut, at = varint_at(data, 1)
    prefix, at = data[at:at + cut], at + cut
    end = len(data)
    if at > end:
        raise ValueError("node prefix is cut short")
    row = _one_width(data, at)
    if row:  # every suffix one length (keys of one width): one unpack
        rows = _rows(row - 1 - _DIGEST_BYTES).iter_unpack(data[at:])
        pairs = [(prefix + suffix, digest) for suffix, digest in rows]
    else:
        pairs = []
        while at < end:
            length = data[at]
            if length < 0x80:  # a one-byte varint, read inline
                at += 1
            else:
                length, at = varint_at(data, at)
            start, at = at, at + length + _DIGEST_BYTES
            if at > end:
                raise ValueError("node row is cut short")
            pairs.append((
                prefix + data[start:at - _DIGEST_BYTES],
                data[at - _DIGEST_BYTES:at],
            ))
    keys = [key for key, _digest in pairs]
    if any(map(ge, keys, keys[1:])):
        raise ValueError("node keys are not strictly increasing")
    if cut != (_common_prefix(keys[0], keys[-1]) if keys else 0):
        raise ValueError("node prefix is not its keys' common prefix")
    return tag, tuple(pairs)


def _one_width(data: bytes, at: int) -> int:
    """The width of every row of node ``data`` from byte ``at`` on
    when they are all one width — the rows fill ``data`` exactly and
    each starts with the first one's one-byte suffix length — else 0."""
    end = len(data)
    length = data[at] if at < end else 0x80
    row = length + 1 + _DIGEST_BYTES
    if (
        length < 0x80 and not (end - at) % row
        and data[at:end:row] == _SHORT[length] * ((end - at) // row)
    ):
        return row
    return 0


def row_width(data: Optional[bytes]) -> int:
    """The width of every row of the encoded node ``data`` when they
    are all one width and its prefix is shorter than 128 bytes, else 0
    (also for None: a node not held whole)."""
    return _one_width(data, 2 + data[1]) if data and data[1] < 0x80 else 0


def _row_starts(
    data: bytes, pairs: Sequence[tuple], head: int, cut: int,
) -> Sequence[int]:
    """Where each row of node ``data`` (``pairs`` encoded, its header
    ``head`` bytes and its prefix ``cut`` long) starts, then where the
    node ends: a range when every row is one width, else the row
    lengths summed, which is right only while every suffix is shorter
    than 128 bytes, a one-byte varint: the caller checks the end."""
    row = _one_width(data, head)
    if row:
        return range(head, len(data) + 1, row)
    return list(accumulate(
        map(add, map(len, map(itemgetter(0), pairs)),
            repeat(1 + _DIGEST_BYTES - cut)),
        initial=head,
    ))


def edit_spans(
    old_pairs: Sequence[tuple], new_pairs: Sequence[tuple],
    kept: Sequence[tuple], was: bytes, now: bytes, prefix: int, suffix: int,
) -> List[List[int]]:
    """The rows node ``was`` (``old_pairs`` encoded) shares with node
    ``now`` (``new_pairs`` encoded) between the first ``prefix`` and
    last ``suffix`` bytes they share, as spans ``[offset in was, offset
    in now, length]`` for :meth:`ChunkStore.supersede
    <repro.forkbase.chunk_store.ChunkStore.supersede>` to cut a delta's
    middle at, read off the edit that made ``now`` rather than found by
    a walk: ``kept`` is ``now``'s stretches ``((data, width), row, at,
    count)`` as :func:`encode_node` takes them, and a stretch kept from
    ``was`` is one span; a pair between the stretches, one the edit
    wrote, shares its ``length ‖ suffix`` with the pair of its key in
    ``was`` (its whole row if the digest is the same); spans that follow
    each other in both are one.  Where the two prefixes differ in length
    a shared row is a span of its own — the key bytes past the longer
    prefix, and the digest if it is the same, at offsets shifted by the
    difference — and its length byte, with any key bytes ``was``'s row
    holds that ``now``'s prefix does, is left to the literals.  No spans
    when the middle is no wider than ``was``'s first row."""
    cut, now_cut = was[1], now[1]
    head = 2 + cut
    if (
        cut >= 0x80 or now_cut >= 0x80 or head >= len(was)
        or len(was) - suffix - prefix <= was[head] + 1 + _DIGEST_BYTES
    ):
        return []
    old_starts = _row_starts(was, old_pairs, head, cut)
    new_starts = _row_starts(now, new_pairs, 2 + now_cut, now_cut)
    if old_starts[-1] != len(was) or new_starts[-1] != len(now):
        return []  # a suffix of 128 bytes or more: a wider varint
    # A written pair can hold the key only of a row of was's that no
    # stretch kept: one between the stretches from was around it.
    shared: List[Tuple[int, int, int, bool]] = []
    written: List[int] = []
    done = low = 0
    for stored, row, at, count in (
        *kept, (None, len(old_pairs), len(new_pairs), 0)
    ):
        written += range(done, at)
        done = at + count
        if stored is not None and stored[0] is not was:
            continue
        for to in written if low < row else ():
            key, digest = new_pairs[to]
            # (key,) sorts just before (key, digest): key's place in was.
            index = bisect_left(old_pairs, (key,), low, row)
            if index < row and old_pairs[index][0] == key:
                shared.append((index, to, 1, old_pairs[index][1] == digest))
        written = []
        if stored is not None:
            shared.append((row, at, count, True))
            low = row + count
    shift = now_cut - cut
    if shift:  # the length bytes differ: one span a row, past them
        shared = [
            (row + i, to + i, 1, whole)
            for row, to, count, whole in shared for i in range(count)
        ]
    spans: List[List[int]] = []
    end = None
    for row, to, count, whole in shared:
        start = old_starts[row] + (shift and 1 + max(shift, 0))
        at = new_starts[to] + (shift and 1 - min(shift, 0))
        size = old_starts[row + count] - start - (
            0 if whole else _DIGEST_BYTES
        )
        if start == end and spans[-1][1] + spans[-1][2] == at:
            spans[-1][2] += size
        else:
            spans.append([start, at, size])
        end = start + size
    return spans


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

        Values are bytes; ``None`` removes a key.
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
        return self.apply({key: None})
