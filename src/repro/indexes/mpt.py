"""Merkle Patricia Trie (MPT).

The SIRI member used by Ethereum (paper Section 3.1, ref [53]).  Keys
are split into 4-bit nibbles; three node kinds keep the structure
canonical — a given key/value set always produces the same trie, hence
the same root digest:

- leaf      ``("LF", nibbles, value)``
- extension ``("EX", nibbles, child_digest_bytes)`` (child is a branch)
- branch    ``("BR", (child_or_None,)*16, value_or_None)``

Deletion re-normalizes (collapses single-child branches, merges
extension chains), which is what preserves structural invariance.
Nodes live in the chunk store under the SHA-256 of their bytes.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional, Tuple

from repro.crypto.hashing import Digest, hash_bytes
from repro.errors import ProofError
from repro.forkbase.chunk_store import ChunkStore
from repro.indexes.pickled_nodes import decode_node, encode_node
from repro.indexes.siri import SiriIndex, SiriProof

_EMPTY_NODE = ("NULL",)


def _nibbles(key: bytes) -> Tuple[int, ...]:
    out: List[int] = []
    for byte in key:
        out.append(byte >> 4)
        out.append(byte & 0x0F)
    return tuple(out)


def _nibbles_to_bytes(nibbles: Tuple[int, ...]) -> bytes:
    if len(nibbles) % 2 != 0:
        raise ValueError("key nibble path must have even length")
    return bytes(
        (nibbles[i] << 4) | nibbles[i + 1] for i in range(0, len(nibbles), 2)
    )


def _common_prefix(a: Tuple[int, ...], b: Tuple[int, ...]) -> int:
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return i


class MerklePatriciaTrie(SiriIndex):
    """An immutable MPT instance over a shared chunk store."""

    def __init__(self, store: ChunkStore, root: Digest):
        self.store = store
        self._root = root

    @classmethod
    def empty(cls, store: ChunkStore) -> "MerklePatriciaTrie":
        return cls(store, store.put(encode_node(_EMPTY_NODE)))

    @classmethod
    def from_items(
        cls, store: ChunkStore, items
    ) -> "MerklePatriciaTrie":
        trie = cls.empty(store)
        return trie.apply(dict(items))

    @property
    def root(self) -> Digest:
        return self._root

    # -- node io ---------------------------------------------------------

    def _load(self, address: Digest) -> tuple:
        return decode_node(self.store.get(address))

    def _save(self, node: tuple) -> Digest:
        return self.store.put(encode_node(node))

    # -- reads -----------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        value, _proof = self._walk(key, collect=False)
        return value

    def get_with_proof(self, key: bytes) -> Tuple[Optional[bytes], SiriProof]:
        value, nodes = self._walk(key, collect=True)
        return value, SiriProof(key=key, value=value, nodes=tuple(nodes))

    def _walk(self, key: bytes, collect: bool):
        path = _nibbles(key)
        nodes: List[bytes] = []
        address = self._root
        while True:
            raw = self.store.get(address)
            if collect:
                nodes.append(raw)
            node = decode_node(raw)
            kind = node[0]
            if kind == "NULL":
                return None, nodes
            if kind == "LF":
                _kind, suffix, value = node
                found = value if suffix == path else None
                return found, nodes
            if kind == "EX":
                _kind, shared, child = node
                if path[:len(shared)] != tuple(shared):
                    return None, nodes
                path = path[len(shared):]
                address = child
                continue
            # branch
            _kind, children, value = node
            if not path:
                return value, nodes
            child = children[path[0]]
            if child is None:
                return None, nodes
            path = path[1:]
            address = child

    @classmethod
    def verify_proof(cls, proof: SiriProof, root: Digest) -> bool:
        """Stateful verification: replays the nibble walk over the
        proof nodes, recomputing digests top-down."""
        try:
            path = _nibbles(proof.key)
            expected = root
            nodes = list(proof.nodes)
            if not nodes:
                return False
            index = 0
            while True:
                if index >= len(nodes):
                    return False
                raw = nodes[index]
                index += 1
                if hash_bytes(raw) != expected:
                    return False
                node = decode_node(raw)
                kind = node[0]
                if kind == "NULL":
                    return proof.value is None
                if kind == "LF":
                    _kind, suffix, value = node
                    found = value if tuple(suffix) == path else None
                    return found == proof.value
                if kind == "EX":
                    _kind, shared, child = node
                    if path[:len(shared)] != tuple(shared):
                        return proof.value is None
                    path = path[len(shared):]
                    expected = child
                    continue
                _kind, children, value = node
                if not path:
                    return value == proof.value
                child = children[path[0]]
                if child is None:
                    return proof.value is None
                path = path[1:]
                expected = child
        except (ProofError, ValueError, KeyError, TypeError):
            return False

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        yield from self._iter_node(self._root, ())

    def _iter_node(
        self, address: Digest, prefix: Tuple[int, ...]
    ) -> Iterator[Tuple[bytes, bytes]]:
        node = self._load(address)
        kind = node[0]
        if kind == "NULL":
            return
        if kind == "LF":
            _kind, suffix, value = node
            yield _nibbles_to_bytes(prefix + tuple(suffix)), value
        elif kind == "EX":
            _kind, shared, child = node
            yield from self._iter_node(child, prefix + tuple(shared))
        else:
            _kind, children, value = node
            if value is not None:
                yield _nibbles_to_bytes(prefix), value
            for nibble, child in enumerate(children):
                if child is not None:
                    yield from self._iter_node(child, prefix + (nibble,))

    # -- updates -----------------------------------------------------------

    def apply(self, updates: Mapping[bytes, object]) -> "MerklePatriciaTrie":
        root: Optional[Digest] = self._root
        if self._load(root)[0] == "NULL":
            root = None
        for key, value in sorted(updates.items()):
            path = _nibbles(key)
            if value is None:
                root = self._delete(root, path)
            else:
                root = self._insert(root, path, value)
        if root is None:
            return MerklePatriciaTrie.empty(self.store)
        return MerklePatriciaTrie(self.store, root)

    def _insert(
        self,
        address: Optional[Digest],
        path: Tuple[int, ...],
        value: bytes,
    ) -> Digest:
        if address is None:
            return self._save(("LF", path, value))
        node = self._load(address)
        kind = node[0]
        if kind == "LF":
            _kind, suffix, old_value = node
            suffix = tuple(suffix)
            if suffix == path:
                return self._save(("LF", path, value))
            return self._split_leaf(suffix, old_value, path, value)
        if kind == "EX":
            _kind, shared, child = node
            shared = tuple(shared)
            cp = _common_prefix(shared, path)
            if cp == len(shared):
                new_child = self._insert(child, path[cp:], value)
                return self._save(("EX", shared, new_child))
            # Diverge inside the extension: build a branch at cp.
            children: List[Optional[bytes]] = [None] * 16
            branch_value: Optional[bytes] = None
            ext_rest = shared[cp:]
            if len(ext_rest) == 1:
                children[ext_rest[0]] = child
            else:
                inner = self._save(("EX", ext_rest[1:], child))
                children[ext_rest[0]] = inner
            path_rest = path[cp:]
            if not path_rest:
                branch_value = value
            else:
                leaf = self._save(("LF", path_rest[1:], value))
                children[path_rest[0]] = leaf
            branch = self._save(("BR", tuple(children), branch_value))
            if cp:
                return self._save(("EX", shared[:cp], branch))
            return branch
        # branch
        _kind, children, branch_value = node
        if not path:
            return self._save(("BR", tuple(children), value))
        slot = path[0]
        new_child = self._insert(children[slot], path[1:], value)
        new_children = list(children)
        new_children[slot] = new_child
        return self._save(("BR", tuple(new_children), branch_value))

    def _split_leaf(
        self,
        old_path: Tuple[int, ...],
        old_value: bytes,
        new_path: Tuple[int, ...],
        new_value: bytes,
    ) -> Digest:
        cp = _common_prefix(old_path, new_path)
        children: List[Optional[bytes]] = [None] * 16
        branch_value: Optional[bytes] = None
        for path, value in ((old_path, old_value), (new_path, new_value)):
            rest = path[cp:]
            if not rest:
                branch_value = value
            else:
                leaf = self._save(("LF", rest[1:], value))
                children[rest[0]] = leaf
        branch = self._save(("BR", tuple(children), branch_value))
        if cp:
            return self._save(("EX", old_path[:cp], branch))
        return branch

    def _delete(
        self, address: Optional[Digest], path: Tuple[int, ...]
    ) -> Optional[Digest]:
        if address is None:
            return None
        node = self._load(address)
        kind = node[0]
        if kind == "LF":
            _kind, suffix, _value = node
            return None if tuple(suffix) == path else address
        if kind == "EX":
            _kind, shared, child = node
            shared = tuple(shared)
            if path[:len(shared)] != shared:
                return address
            new_child = self._delete(child, path[len(shared):])
            if new_child is None:
                return None
            if new_child == child:
                return address
            return self._normalize_extension(shared, new_child)
        _kind, children, branch_value = node
        new_children = list(children)
        if not path:
            if branch_value is None:
                return address
            branch_value = None
        else:
            slot = path[0]
            if children[slot] is None:
                return address
            new_child = self._delete(children[slot], path[1:])
            if new_child is None:
                new_children[slot] = None
            elif new_child == children[slot]:
                return address
            else:
                new_children[slot] = new_child
        return self._normalize_branch(new_children, branch_value)

    def _normalize_extension(
        self, shared: Tuple[int, ...], child_address: Digest
    ) -> Digest:
        child = self._load(child_address)
        kind = child[0]
        if kind == "BR":
            return self._save(("EX", shared, child_address))
        if kind == "LF":
            _kind, suffix, value = child
            return self._save(("LF", shared + tuple(suffix), value))
        # extension chains merge
        _kind, inner_shared, inner_child = child
        return self._save(("EX", shared + tuple(inner_shared), inner_child))

    def _normalize_branch(
        self,
        children: List[Optional[bytes]],
        branch_value: Optional[bytes],
    ) -> Optional[Digest]:
        live = [
            (slot, child)
            for slot, child in enumerate(children)
            if child is not None
        ]
        if not live and branch_value is None:
            return None
        if not live:
            return self._save(("LF", (), branch_value))
        if len(live) == 1 and branch_value is None:
            slot, child = live[0]
            return self._normalize_extension((slot,), child)
        return self._save(("BR", tuple(children), branch_value))
