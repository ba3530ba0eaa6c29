"""POS-Tree: Pattern-Oriented-Split Tree.

The SIRI member Spitz uses for its ledger (paper Sections 3.1, 5,
6.1).  It is a Merkle-ized B+-tree-like structure over sorted
``(key, value)`` entries whose node boundaries are *content defined*:
an element ends a node exactly when a pattern (low bits all zero)
appears in its hash.  Consequences:

- **structural invariance** — the tree shape, and therefore the root
  digest, is a pure function of the entry set;
- **recyclability** — consecutive versions share every node outside
  the updated key neighbourhood;
- **integrated proofs** — the traversal that answers a lookup *is*
  the authentication path, which is why Spitz's verified reads cost
  roughly one extra hash walk while the baseline pays a separate
  per-record journal search.

Layout: every node is one shape, ``(tag, ((key, digest), ...))`` —
a leaf ``"L"`` pairs each key with ``H(value)``, a branch ``"B"`` pairs
each child's first key with the child's address.  Nodes *and values*
live in a :class:`~repro.forkbase.chunk_store.ChunkStore` under the
SHA-256 of their bytes, so a leaf's digest is the address of its value;
the root address is the digest clients pin.  A verifier accepts a value
only under the digest its replayed path ends on.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import partial
from operator import sub
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.crypto.hashing import Digest, hash_bytes
from repro.forkbase.chunk_store import ChunkStore
from repro.indexes.siri import (
    NodeCache,
    SiriIndex,
    SiriProof,
    cache_node,
    decode_node,
    edit_spans,
    encode_node,
    row_width,
)

#: The split pattern width every ledger and search column uses: a node
#: holds ``2**DEFAULT_MASK_BITS`` pairs on average.  Chosen by a sweep
#: of 3, 4 and 5 under node layout v3 (EXPERIMENTS.md "Nodes half the
#: size"): 5 stores a quarter more, 3 least but sets up 16–30 % slower
#: than 4.  A durable directory does not record its width, so there is
#: one.
DEFAULT_MASK_BITS = 4

#: Everything a tampered proof can raise during verification — a blob
#: that does not hash to the address the walk expects or that the strict
#: codec refuses (``ValueError``), a walk past the proof's last blob or
#: into an empty branch (``IndexError``), nodes nested deeper than any
#: tree (``RecursionError``).  Proof ``verify`` methods turn all of these
#: into ``False``: tampering is *detected*, never an exception.
_VERIFY_ERRORS = (ValueError, IndexError, TypeError, RecursionError)


@dataclass(frozen=True)
class PosRangeProof:
    """One proof covering every entry of a range scan.

    ``nodes`` holds the raw bytes of all nodes on the root-to-leaf
    paths of every leaf overlapping ``[low, high]``, each once, in the
    order the scan first visited them — that order is part of the proof.
    :meth:`verify` re-executes the scan from ``root`` over them
    (:func:`_first_visits`) and compares what it finds with the claimed
    entries, so adding, dropping or altering any result row is detected.
    """

    low: bytes
    high: bytes
    entries: Tuple[Tuple[bytes, bytes], ...]
    nodes: Tuple[bytes, ...]
    root: Digest

    @property
    def size_bytes(self) -> int:
        return (
            len(self.low)
            + len(self.high)
            + sum(len(node) for node in self.nodes)
            + sum(len(k) + len(v) for k, v in self.entries)
        )

    @property
    def keys(self) -> Tuple[bytes, ...]:
        return tuple(key for key, _value in self.entries)

    @property
    def label(self) -> str:
        return f"range:{self.low!r}..{self.high!r}"

    def verify(self, root: Digest, cache: Optional[dict] = None) -> bool:
        """True iff the claimed entries are exactly the range content.

        ``cache`` (digest → decoded node) carries verified nodes
        across proofs, like point-proof verification.
        """
        if root != self.root:
            return False
        try:
            replayed = _pairs_between(
                _first_visits(self.nodes, cache, root),
                root, self.low, self.high,
            )
            return replayed == [
                (key, hash_bytes(value)) for key, value in self.entries
            ]
        except _VERIFY_ERRORS:
            return False


@dataclass(frozen=True)
class PosMultiProof:
    """One proof covering K point lookups against the same root.

    ``entries`` holds the claimed ``(key, value-or-None)`` pairs in
    request order (``None`` claims proven absence, exactly like a
    point proof).  ``nodes`` holds the raw bytes of every node on any
    queried key's root-to-leaf path — **deduplicated by address**, so
    the root and shared upper levels appear once no matter how many
    keys traverse them — in the order the K walks first visited them;
    that order is part of the proof.  The dedup is the whole point: K
    point proofs ship the root K times; one multiproof ships it once.

    :meth:`verify` re-walks each key's path from ``root`` over the
    nodes (:func:`_first_visits`).  A mutated node does not hash to the
    address the walk expects; a dropped or misplaced one puts another
    blob at its position, which fails the same check; a swapped or
    forged claim fails the leaf comparison.  All failures return
    False — nothing raises.
    """

    entries: Tuple[Tuple[bytes, Optional[bytes]], ...]
    nodes: Tuple[bytes, ...]
    root: Digest

    @property
    def keys(self) -> Tuple[bytes, ...]:
        return tuple(key for key, _value in self.entries)

    @property
    def label(self) -> str:
        return f"multi:{len(self.entries)}keys"

    @property
    def size_bytes(self) -> int:
        return (
            sum(len(node) for node in self.nodes)
            + sum(
                len(key) + (len(value) if value is not None else 0)
                for key, value in self.entries
            )
        )

    def verify(self, root: Digest, cache: Optional[dict] = None) -> bool:
        """True iff every claimed entry is the root's answer for its key.

        ``cache`` (digest → decoded node) carries verified nodes across
        proofs, feeding the verifier's cache-hit accounting exactly
        like range proofs do.
        """
        if root != self.root:
            return False
        try:
            node_at = _first_visits(self.nodes, cache, root)
            return all(
                _digest_at(node_at, root, key)
                == (None if value is None else hash_bytes(value))
                for key, value in self.entries
            )
        except _VERIFY_ERRORS:
            return False


def _first_visits(
    nodes: Sequence[bytes], cache: Optional[dict], root: Digest
) -> Callable[[Digest], tuple]:
    """A proof's nodes, read by the walk that wrote them.

    ``nodes`` are the blobs the server's walk touched, each once, in the
    order it first reached them, and a verifier runs that same walk from
    the pinned root: the n-th address it first reaches is the n-th
    blob's.  A node that ``cache`` (digest → decoded node, shared across
    proofs) holds was hashed to its address on the way in, so its
    position is skipped unread; any other blob must hash to the address
    the walk expects before it is parsed and cached.  Blobs past the last
    position read are never touched: ``len(nodes)`` bounds the work.  The
    walks start at ``root``, which joins a :class:`NodeCache`'s ``roots``.
    """
    reached: Dict[Digest, tuple] = {}
    if isinstance(cache, NodeCache):
        cache.roots.add(root)

    def node_at(address: Digest) -> tuple:
        node = reached.get(address)
        if node is None:
            node = cache.get(address) if cache is not None else None
            if node is None:
                blob = nodes[len(reached)]
                if hash_bytes(blob) != address:
                    raise ValueError("node does not hash to its address")
                node = cache_node(cache, address, blob)
            reached[address] = node
        return node

    return node_at


def _position(pairs: Sequence[tuple], key: bytes, lo: int = 0) -> int:
    """Index of the first pair keyed ``>= key``.

    A node's pairs sort by key, and the 1-tuple ``(key,)`` sorts just
    before every pair with that key, so the pairs bisect as they are.
    """
    return bisect.bisect_left(pairs, (key,), lo)


def _position_after(pairs: Sequence[tuple], key: bytes, lo: int = 0) -> int:
    """Index just past the pair keyed ``key``, or where it would go."""
    index = _position(pairs, key, lo)
    if index < len(pairs) and pairs[index][0] == key:
        return index + 1
    return index


def _child_index(children: Sequence[tuple], key: bytes) -> int:
    """The child whose subtree ``key`` falls in (the first, if before all)."""
    return max(_position_after(children, key) - 1, 0)


def _paired(pairs: Sequence[tuple], key: bytes) -> Optional[bytes]:
    """The digest a node pairs with exactly ``key``, or None."""
    index = _position(pairs, key)
    if index < len(pairs) and pairs[index][0] == key:
        return pairs[index][1]
    return None


#: The two walks below are the query *and* its verification: a server
#: runs them over its store (the nodes touched become the proof, in the
#: order first touched), a verifier over those nodes in that order
#: (:func:`_first_visits`); ``node_at`` decodes either.


def _digest_at(
    node_at: Callable[[Digest], tuple], address: Digest, key: bytes
) -> Optional[bytes]:
    """Walk ``key``'s path down from ``address``; the value digest its
    leaf pairs it with, or None."""
    tag, pairs = node_at(address)
    while tag == "B":
        tag, pairs = node_at(pairs[_child_index(pairs, key)][1])
    return _paired(pairs, key)


def _pairs_between(
    node_at: Callable[[Digest], tuple], address: Digest, low: bytes, high: bytes
) -> List[Tuple[bytes, bytes]]:
    """The leaf pairs keyed ``low..high`` under ``address``, in order."""
    tag, pairs = node_at(address)
    if tag == "L":
        return list(pairs[_position(pairs, low):_position_after(pairs, high)])
    found: List[Tuple[bytes, bytes]] = []
    for index in range(_child_index(pairs, low), len(pairs)):
        if pairs[index][0] > high:
            break
        found += _pairs_between(node_at, pairs[index][1], low, high)
    return found


def _base(firsts: Sequence[bytes], pairs: Sequence[tuple]) -> int:
    """The index of the node among a run's new nodes, listed by their
    first keys ``firsts``, that spans the most keys of ``pairs`` (a
    retired node's) — the one it shares the most rows with — the first
    such on a tie, a key before every node's first key counting for
    none: ``pairs`` bisected at the first keys of the nodes between the
    ones spanning its first and last key."""
    low = max(bisect.bisect_right(firsts, pairs[0][0]) - 1, 0)
    high = bisect.bisect_right(firsts, pairs[-1][0], low)
    if high - low < 2:
        return low
    cuts = [_position(pairs, first) for first in firsts[low:high]]
    counts = list(map(sub, cuts[1:] + [len(pairs)], cuts))
    return low + counts.index(max(counts))


def _stored(store: ChunkStore, address: Digest) -> tuple:
    """The node at ``address`` as a run keeps rows of it: ``(data,
    width)``, its bytes if ``store`` holds them whole (else None) and
    their :func:`~repro.indexes.siri.row_width`."""
    data = store.whole(address)
    return data, row_width(data)


class _Run:
    """The pairs of a stretch of one level (leaves ``"L"`` or branches
    ``"B"``), and where the split rule cuts them into nodes."""

    def __init__(self, store: ChunkStore, mask_bits: int, tag: str):
        self.store, self.tag = store, tag
        self.mask = (1 << mask_bits) - 1
        self.pairs: List[tuple] = []
        #: Lengths of ``pairs`` at which a node ends.
        self.cuts: List[int] = []
        #: Per node, the stretches of stored nodes it keeps whole,
        #: ``((data, width), row, at, count)``: its pairs ``at..at +
        #: count`` are rows ``row..`` of the node stored as ``data``,
        #: every row ``width`` bytes (:func:`~repro.indexes.siri.row_width`).
        #: A stored node's only split point is its last pair, so no node
        #: ends inside a stretch.
        self.kept: List[list] = [[]]
        #: Where the node being filled starts in ``pairs``.
        self._first = 0

    def _ends_node(self, pair: tuple) -> bool:
        """The content-defined split rule, one hash over the pair as
        stored: does a node end after ``pair``?  The key is part of it
        so that a run of equal values does not split alike everywhere."""
        digest = hash_bytes(pair[0] + pair[1])
        return int.from_bytes(digest[:4], "big") & self.mask == 0

    def add(self, pairs: Sequence[tuple]) -> None:
        """Append new pairs, testing each against the split rule."""
        for pair in pairs:
            self.pairs.append(pair)
            if self._ends_node(pair):
                self._first = len(self.pairs)
                self.cuts.append(self._first)
                self.kept.append([])

    def keep(
        self, stored: tuple, node: tuple, start: int, stop: int, last: bool
    ) -> None:
        """Append ``node[start:stop]``, pairs of the node ``stored``,
        ``(data, width)``: only its last pair can be a split point, or
        the node would have ended earlier, and it is one unless the node
        is ``last`` on its level (which need not end on one), so only
        then is it hashed."""
        if start < stop:
            pairs = self.pairs
            self.kept[-1].append(
                (stored, start, len(pairs) - self._first, stop - start)
            )
            pairs += node[start:stop]
            if stop == len(node) and (not last or self._ends_node(node[-1])):
                self._first = len(pairs)
                self.cuts.append(self._first)
                self.kept.append([])

    @property
    def ended(self) -> bool:
        """Whether the last pair is a split point (not so when empty)."""
        return bool(self.cuts) and self.cuts[-1] == len(self.pairs)

    def write(self) -> List[Tuple[bytes, bytes]]:
        """Store the nodes, each kept stretch copied from its stored
        node's bytes (:func:`~repro.indexes.siri.encode_node`); returns
        the pairs the level above lists them under (each digest the one
        the store returned)."""
        stops = list(self.cuts)
        if self.pairs and not self.ended:
            stops.append(len(self.pairs))
        listed: List[Tuple[bytes, bytes]] = []
        put, cache, tag, pairs = (
            self.store.put, self.store.decode_cache, self.tag, self.pairs
        )
        start = 0
        for stop, kept in zip(stops, self.kept):
            node = (tag, tuple(pairs[start:stop]))
            address = put(encode_node(node, kept))
            # Freshly written nodes are the likeliest next reads, and
            # the next version's pairs are sliced out of this tuple.
            cache[address] = node
            listed.append((pairs[start][0], address))
            start = stop
        return listed


#: One edit to a level: the old pairs keyed ``low..high`` (none of them:
#: an insert at ``low``) give way to ``pairs``.
_Change = Tuple[Optional[bytes], Optional[bytes], Sequence[tuple]]


class PosTree(SiriIndex):
    """An immutable POS-tree instance: ``(store, root, mask_bits)``.

    Everything else is read from the root down through the store's
    ``decode_cache``, so a handle on any historical root costs nothing
    to make or keep.  :meth:`apply` builds each rewritten node's pairs
    by slicing its predecessor's decoded tuple, so versions of a node
    share every pair that did not change *by identity*, and drops from
    the cache the nodes the new version stops sharing: the cache holds
    the tree an apply last returned, and a read of an older root
    decodes what it misses from the chunks, as a cold store does.
    """

    def __init__(
        self,
        store: ChunkStore,
        root: Digest,
        mask_bits: int = DEFAULT_MASK_BITS,
    ):
        self.store = store
        self.mask_bits = mask_bits
        self._root = root

    # -- construction ----------------------------------------------------

    @classmethod
    def empty(
        cls, store: ChunkStore, mask_bits: int = DEFAULT_MASK_BITS
    ) -> "PosTree":
        node = ("L", ())
        address = store.put(encode_node(node))
        store.decode_cache[address] = node
        return cls(store, address, mask_bits)

    @classmethod
    def from_items(
        cls,
        store: ChunkStore,
        items: Sequence[Tuple[bytes, bytes]],
        mask_bits: int = DEFAULT_MASK_BITS,
    ) -> "PosTree":
        """Bulk-build from (key, value) pairs (later duplicates win)."""
        leaves = _Run(store, mask_bits, "L")
        leaves.add(
            [(key, store.put(value)) for key, value in sorted(dict(items).items())]
        )
        return cls._from_top(store, mask_bits, leaves.write())

    @classmethod
    def load(
        cls,
        store: ChunkStore,
        root: Digest,
        mask_bits: int = DEFAULT_MASK_BITS,
    ) -> "PosTree":
        """A handle on the instance rooted at ``root`` (e.g. a
        historical ledger block's ``tree_root``)."""
        return cls(store, root, mask_bits)

    @classmethod
    def _from_top(
        cls, store: ChunkStore, mask_bits: int, top: List[Tuple[bytes, bytes]]
    ) -> "PosTree":
        """The tree whose topmost written level the pairs ``top`` list."""
        while len(top) > 1:
            level = _Run(store, mask_bits, "B")
            level.add(top)
            top = level.write()
        if not top:
            return cls.empty(store, mask_bits)
        tree = cls(store, top[0][1], mask_bits)
        # The root is the lowest level with a single node; deletes can
        # leave single-child branches above it.
        node = tree._node(tree.root)
        while node[0] == "B" and len(node[1]) == 1:
            store.decode_cache.pop(tree.root, None)
            tree = cls(store, node[1][0][1], mask_bits)
            node = tree._node(tree.root)
        return tree

    # -- reads -------------------------------------------------------------

    @property
    def root(self) -> Digest:
        return self._root

    def _node(
        self, address: Digest, collected: Optional[Dict[Digest, bytes]] = None
    ) -> tuple:
        """The decoded node at ``address``; its bytes join ``collected``
        (a proof's address-keyed node set) when one is being built."""
        raw = None
        if collected is not None:
            raw = collected.get(address)
            if raw is None:
                raw = collected[address] = self.store.get(address)
        node = self.store.decode_cache.get(address)
        if node is None:
            node = decode_node(
                raw if raw is not None else self.store.get(address)
            )
            self.store.decode_cache[address] = node
        return node

    def value_digest(
        self, key: bytes, collected: Optional[Dict[Digest, bytes]] = None
    ) -> Optional[bytes]:
        """The digest ``key``'s leaf pairs it with — ``H(value)``, the
        value's chunk address — or None, by its path from the root."""
        return _digest_at(
            partial(self._node, collected=collected), self.root, key
        )

    def _value(self, digest: Optional[bytes]) -> Optional[bytes]:
        """The value chunk a leaf pair's digest addresses (None: None)."""
        return None if digest is None else self.store.get(digest)

    def _descend(
        self, key: bytes, depth: int, path: List[tuple]
    ) -> Tuple[Digest, tuple, Optional[bytes], Optional[bytes]]:
        """The node ``depth`` levels below the root on ``key``'s path.

        Returns ``(address, pairs, listed, upper)``: ``listed`` is the
        key its parent lists it under, ``upper`` the key its right
        neighbour at that depth is listed under (None: there is none).

        ``path`` holds the previous descent's ``(address, listed,
        upper)`` per level, root first, and keys come in increasing
        order, so the levels whose node still spans ``key`` (its
        ``upper`` is None or above the key) are on its path too: the
        walk resumes below the deepest of them.
        """
        while path[-1][2] is not None and key >= path[-1][2]:
            path.pop()
        address, listed, upper = path[-1]
        for _ in range(len(path) - 1, depth):
            children = self._node(address)[1]
            index = _child_index(children, key)
            if index + 1 < len(children):
                upper = children[index + 1][0]
            listed, address = children[index]
            path.append((address, listed, upper))
        return address, self._node(address)[1], listed, upper

    def _leaves(self, address: Digest) -> Iterator[tuple]:
        """Every leaf's pairs under ``address``, left to right."""
        node = self._node(address)
        if node[0] == "L":
            yield node[1]
        else:
            for _first_key, child in node[1]:
                yield from self._leaves(child)

    @property
    def height(self) -> int:
        """Number of levels (1 = a lone leaf)."""
        height = 1
        node = self._node(self.root)
        while node[0] == "B":
            node = self._node(node[1][0][1])
            height += 1
        return height

    @property
    def count(self) -> int:
        """Number of entries."""
        return sum(len(pairs) for pairs in self._leaves(self.root))

    def __len__(self) -> int:
        return self.count

    def get(self, key: bytes) -> Optional[bytes]:
        return self._value(self.value_digest(key))

    def get_with_proof(self, key: bytes) -> Tuple[Optional[bytes], SiriProof]:
        """Lookup plus authentication path in a single traversal.

        This is the "unified index" behaviour the paper credits for
        Spitz's verified-read advantage: the proof is the list of node
        bytes the lookup touched anyway.
        """
        path: Dict[Digest, bytes] = {}
        value = self._value(self.value_digest(key, path))
        proof = SiriProof(key=key, value=value, nodes=tuple(path.values()))
        return value, proof

    def get_many_with_proof(
        self, keys: Sequence[bytes]
    ) -> Tuple[List[Optional[bytes]], "PosMultiProof"]:
        """Batch lookup plus one multiproof for all of ``keys``.

        Each key's root-to-leaf walk collects its nodes into one
        address-keyed set, so the root and any shared upper-level
        nodes appear exactly once in the proof regardless of K.
        Values come back in request order (None for absent keys).
        """
        collected: Dict[Digest, bytes] = {}
        node_at = partial(self._node, collected=collected)
        values = [
            self._value(_digest_at(node_at, self.root, key)) for key in keys
        ]
        proof = PosMultiProof(
            entries=tuple(zip(keys, values)),
            nodes=tuple(collected.values()),
            root=self.root,
        )
        return values, proof

    @staticmethod
    def verify_proof(
        proof: SiriProof,
        root: Digest,
        cache: Optional[dict] = None,
    ) -> bool:
        """True iff ``proof`` authenticates its claim under ``root``:
        each node hashes to the address its parent (or ``root``) names,
        and the claimed value hashes to the digest the path ends on.
        Returns False (never raises) on any mismatch.  A point proof is
        the one-key multiproof.

        ``cache`` (digest → decoded node) memoizes nodes already hashed
        to their address — sound, because a digest match is a property
        of the bytes alone — which is what makes consecutive proofs
        cheap: they share the index's upper levels.
        """
        return PosMultiProof(
            ((proof.key, proof.value),), proof.nodes, root
        ).verify(root, cache)

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        for key, digest in self.digests():
            yield key, self.store.get(digest)

    def digests(self) -> Iterator[Tuple[bytes, bytes]]:
        """Every ``(key, value digest)`` in key order, no value read."""
        for pairs in self._leaves(self.root):
            yield from pairs

    def scan(
        self, low: bytes, high: bytes
    ) -> List[Tuple[bytes, bytes]]:
        """Entries with ``low <= key <= high`` in key order."""
        return self._collect_range(low, high, None)

    def scan_with_proof(
        self, low: bytes, high: bytes
    ) -> Tuple[List[Tuple[bytes, bytes]], "PosRangeProof"]:
        """Range scan plus a single proof covering the whole run.

        The proof is the set of nodes on the root-to-leaf paths of every
        leaf overlapping the range — shared interior nodes appear once.
        This batched retrieval is the Section 6.2.2 advantage over the
        baseline's per-record proof searches.
        """
        collected: Dict[Digest, bytes] = {}
        entries = self._collect_range(low, high, collected)
        proof = PosRangeProof(
            low=low,
            high=high,
            entries=tuple(entries),
            nodes=tuple(collected.values()),
            root=self.root,
        )
        return entries, proof

    def _collect_range(
        self, low: bytes, high: bytes, collected: Optional[Dict[Digest, bytes]]
    ) -> List[Tuple[bytes, bytes]]:
        pairs = _pairs_between(
            partial(self._node, collected=collected), self.root, low, high
        )
        value_at = self.store.get
        return [(key, value_at(digest)) for key, digest in pairs]

    # -- updates -------------------------------------------------------------

    def apply(self, updates: Mapping[bytes, object]) -> "PosTree":
        """Batch update; returns a new tree sharing unchanged nodes.

        ``updates`` maps keys to byte values or ``None`` (a delete).

        One pass per level, leaves first: each run of touched nodes is
        found by descending from the root, its decoded pairs are
        edited by slicing and re-split by the content-defined rule
        (taking in right neighbours while the run's last pair is not a
        split point), and the nodes it replaced become the edit to the
        level above.  The stretches a run keeps are recorded once and
        used twice: a new node copies their rows from the stored bytes
        (only the pairs the edit wrote and the header are encoded), and
        a retired node's delta copies back the rows they name.  Work and
        memory are O(batch * height * node size) whatever the size of
        the tree.
        """
        changes: List[_Change] = []
        for key in sorted(updates):
            value = updates[key]
            # The value's only chunk put: nothing writes it before the
            # block that commits it is sealed.
            changes.append((
                key, key,
                () if value is None else ((key, self.store.put(value)),),
            ))
        tag = "L"
        for depth in reversed(range(self.height)):
            changes = self._rewrite_level(depth, tag, changes)
            if not changes:
                return self  # every run was rebuilt to the nodes it had
            if changes[0][0] is None:
                break
            tag = "B"
        return self._from_top(self.store, self.mask_bits, changes[0][2])

    def _rewrite_level(
        self, depth: int, tag: str, changes: List[_Change]
    ) -> List[_Change]:
        """Apply sorted, disjoint ``changes`` to the nodes ``depth``
        levels below the root.

        Returns the changes that makes to the level above — or, where
        no level above survives, one change keyed None whose pairs
        list the nodes now on top.
        """
        # Each run replaces a stretch of neighbouring nodes.  ``edge``
        # is the key the next node right of the runs so far is listed
        # under (every level's first node is listed under the tree's
        # least key), None past the last.
        runs: List[Tuple[Optional[bytes], Optional[bytes], list, _Run]] = []
        edge = self._node(self.root)[1][0][0] if depth else None
        tiled = True
        done = 0
        path = [(self.root, None, None)]
        while done < len(changes):
            address, node, first, upper = self._descend(
                changes[done][0], depth, path
            )
            source = _stored(self.store, address)
            tiled = tiled and first == edge
            last = first
            replaced = [address]
            run = _Run(self.store, self.mask_bits, tag)
            kept = 0
            while True:
                while done < len(changes) and (
                    upper is None or changes[done][0] < upper
                ):
                    low, high, new = changes[done]
                    cut = _position(node, low, kept)
                    run.keep(source, node, kept, cut, upper is None)
                    run.add(new)
                    kept = _position_after(node, high, cut)
                    done += 1
                run.keep(source, node, kept, len(node), upper is None)
                if upper is None or (high < upper and run.ended):
                    break
                # The run does not end on a split point (or its last
                # change reaches further): the next node joins it.
                address, node, last, upper = self._descend(
                    upper, depth, path
                )
                source = _stored(self.store, address)
                replaced.append(address)
                kept = _position_after(node, high)
            runs.append((first, last, replaced, run))
            edge = upper
        if tag == "B" and tiled and edge is None:
            top = [pair for *_nodes, run in runs for pair in run.pairs]
            if len(top) <= 1:
                # The runs are the whole level and list one node: the
                # level below is down to its root; nothing to write, and
                # this level and those above it are left behind.
                self._drop_levels(depth + 1)
                return [(None, None, top)]
        above: List[_Change] = []
        store, cache = self.store, self.store.decode_cache
        for first, last, replaced, run in runs:
            written = run.write()
            children = [child for _key, child in written]
            if children != replaced:
                above.append((first, last, written))
                firsts = [key for key, _child in written]
                # No address occurs twice in one tree, so these are the
                # nodes the new version stops sharing: each is kept as
                # a delta against the new node it shares the most rows
                # with, cut at the rows the run kept or rewrote.
                for address in replaced:
                    if address not in children:
                        retired = cache.pop(address, None)
                        if written:
                            index = (
                                _base(firsts, retired[1])
                                if len(written) > 1 and retired and retired[1]
                                else 0
                            )
                            base = written[index][1]
                            rows = retired and partial(
                                edit_spans, retired[1], cache[base][1],
                                run.kept[index],
                            )
                            store.supersede(address, base, rows)
            # Free the bytes of the nodes the run kept from: a retired
            # node's are garbage once its delta is stored.
            run.kept = None
        return above

    def _drop_levels(self, levels: int) -> None:
        """Drop the top ``levels`` levels of this version from the
        decode cache, walking through the nodes it holds."""
        cache = self.store.decode_cache
        level = [self.root]
        for _ in range(levels):
            nodes = [cache.pop(address, None) for address in level]
            level = [
                child
                for node in nodes if node is not None
                for _key, child in node[1]
            ]
