"""Deterministic commitment over secondary-index postings.

Each indexed column becomes one POS-tree whose leaves are canonical
``encoded-value → encoded-sorted-posting-list`` entries.  The encoding
is order-preserving (range predicates become tree scans) and strictly
canonical (one byte string per logical state), so the column root is a
pure function of the column's current postings — the structural
invariance the POS-tree already guarantees for the primary ledger
index ("Analysis of Indexing Structures for Immutable Data" motivates
committing the secondary structure the same way).

The per-column roots are folded into a *manifest* — a sorted, length-
prefixed binary listing of ``(column name, root)`` pairs — and the
manifest bytes are written under :data:`SEARCH_ROOT_KEY` inside every
sealed ledger block.  The block's tree root therefore commits to the
manifest, the chain digest commits to the block, and the digest a
client pins commits to every column index transitively.  A search
proof anchors itself with an ordinary ledger point proof of the
reserved key; ``index_root`` (the hash of the manifest bytes) is the
single-digest form reported in stats and CLI output.

Leaf keys are :func:`~repro.indexes.inverted.encode_search_value` of
the posted value, order-preserving and canonical.

Posting lists are encoded sorted and deduplicated, each universal key
length-prefixed; decoding *enforces* the canonical form (strictly
increasing entries, exact consumption) so a non-canonical byte string
can never round-trip silently.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.crypto.hashing import Digest, hash_bytes
from repro.errors import QueryError
from repro.forkbase.chunk_store import ChunkStore
from repro.indexes.inverted import encode_search_value
from repro.indexes.pos_tree import PosTree

#: Reserved logical key the search manifest is sealed under.  The
#: prefix is disjoint from the KV/table/document prefixes, so the key
#: can never collide with user data and never flows through the cell
#: store (it is injected at block-seal time only).
SEARCH_PREFIX = b"s\x00"
SEARCH_ROOT_KEY = SEARCH_PREFIX + b"__index_root__"

_MANIFEST_MAGIC = b"SIDX1"


def encode_postings(ukeys: Iterable[bytes]) -> bytes:
    """Canonical posting-list bytes: sorted, deduplicated, each entry
    length-prefixed.  Canonicalization happens here, so callers may
    pass postings in any order."""
    entries = sorted(set(ukeys))
    parts = [struct.pack(">I", len(entries))]
    for ukey in entries:
        if len(ukey) > 0xFFFF:
            raise QueryError("posting entry exceeds 65535 bytes")
        parts.append(struct.pack(">H", len(ukey)))
        parts.append(ukey)
    return b"".join(parts)


def decode_postings(data: bytes) -> Tuple[bytes, ...]:
    """Strict inverse of :func:`encode_postings`.

    Raises ``ValueError`` unless the bytes are exactly canonical:
    declared count, strictly increasing entries, nothing trailing.
    """
    if len(data) < 4:
        raise ValueError("posting list too short")
    (count,) = struct.unpack(">I", data[:4])
    offset = 4
    entries: List[bytes] = []
    previous: Optional[bytes] = None
    for _ in range(count):
        if offset + 2 > len(data):
            raise ValueError("truncated posting list")
        (length,) = struct.unpack(">H", data[offset:offset + 2])
        offset += 2
        if offset + length > len(data):
            raise ValueError("truncated posting entry")
        entry = data[offset:offset + length]
        offset += length
        if previous is not None and entry <= previous:
            raise ValueError("posting list is not canonically sorted")
        previous = entry
        entries.append(entry)
    if offset != len(data):
        raise ValueError("trailing bytes after posting list")
    return tuple(entries)


def encode_manifest(roots: Mapping[str, Digest]) -> bytes:
    """Canonical manifest bytes: sorted ``(column, root)`` pairs."""
    parts = [_MANIFEST_MAGIC, struct.pack(">I", len(roots))]
    for name in sorted(roots):
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise QueryError("column name exceeds 65535 bytes")
        root = roots[name]
        if len(root) != 32:
            raise QueryError("column root must be a 32-byte digest")
        parts.append(struct.pack(">H", len(encoded)))
        parts.append(encoded)
        parts.append(bytes(root))
    return b"".join(parts)


def decode_manifest(data: bytes) -> Dict[str, Digest]:
    """Strict inverse of :func:`encode_manifest` (``ValueError`` on
    anything non-canonical: bad magic, unsorted or duplicate column
    names, trailing bytes)."""
    if data[:5] != _MANIFEST_MAGIC:
        raise ValueError("bad search manifest magic")
    if len(data) < 9:
        raise ValueError("search manifest too short")
    (count,) = struct.unpack(">I", data[5:9])
    offset = 9
    roots: Dict[str, Digest] = {}
    previous: Optional[str] = None
    for _ in range(count):
        if offset + 2 > len(data):
            raise ValueError("truncated search manifest")
        (length,) = struct.unpack(">H", data[offset:offset + 2])
        offset += 2
        if offset + length + 32 > len(data):
            raise ValueError("truncated search manifest entry")
        name = data[offset:offset + length].decode("utf-8")
        offset += length
        root = Digest(data[offset:offset + 32])
        offset += 32
        if previous is not None and name <= previous:
            raise ValueError("search manifest is not canonically sorted")
        previous = name
        roots[name] = root
    if offset != len(data):
        raise ValueError("trailing bytes after search manifest")
    return roots


def index_root_of(manifest: bytes) -> Digest:
    """The single combined ``index_root`` digest over all columns."""
    return hash_bytes(manifest)


class CommittedSearchIndex:
    """Merkle commitment over the postings of the configured columns.

    One POS-tree per column over the shared chunk store.  Incremental
    maintenance is two-phase to match the database's commit pipeline:
    :meth:`note_change` records which ``(column, value)`` postings a
    commit touched (O(1), on the write path), and :meth:`seal` folds
    every touched posting's *current* state — read back from the
    inverted index, the single source of truth — into the trees at
    block-seal time, O(touched × height) via :meth:`PosTree.apply`.
    """

    def __init__(self, store: ChunkStore, columns: Sequence[str]):
        names = list(columns)
        if not names:
            raise QueryError("indexed_columns must name at least one column")
        if len(set(names)) != len(names):
            raise QueryError("indexed_columns contains duplicates")
        for name in names:
            if "." not in name:
                raise QueryError(
                    f"indexed column {name!r} must be a table cell "
                    "column (\"table.column\"); KV cells are not "
                    "value-indexed"
                )
        self.store = store
        self._trees: Dict[str, PosTree] = {
            name: PosTree.empty(store) for name in sorted(names)
        }
        self._dirty: Dict[str, set] = {name: set() for name in self._trees}
        self._manifest: Optional[bytes] = None

    @property
    def columns(self) -> Tuple[str, ...]:
        return tuple(self._trees)

    def covers(self, column: str) -> bool:
        return column in self._trees

    def tree(self, column: str) -> Optional[PosTree]:
        return self._trees.get(column)

    def root(self, column: str) -> Optional[Digest]:
        tree = self._trees.get(column)
        return tree.root if tree is not None else None

    def note_change(self, column: str, value) -> None:
        """Record one touched posting; folded at the next :meth:`seal`."""
        dirty = self._dirty.get(column)
        if dirty is None:
            return
        dirty.add(value)
        self._manifest = None

    @property
    def pending_changes(self) -> int:
        return sum(len(values) for values in self._dirty.values())

    def seal(self, inverted) -> bytes:
        """Fold touched postings into the trees; return manifest bytes.

        ``inverted`` is the :class:`~repro.indexes.inverted
        .InvertedIndex` holding the authoritative postings.  A value
        whose posting emptied is deleted from the tree, keeping the
        committed leaf set exactly the set of live postings.
        """
        for column, values in self._dirty.items():
            if not values:
                continue
            updates: Dict[bytes, object] = {}
            for value in values:
                postings = inverted.lookup(column, value)
                key = encode_search_value(value)
                updates[key] = (
                    encode_postings(postings) if postings else None
                )
            self._trees[column] = self._trees[column].apply(updates)
            values.clear()
        return self.manifest_bytes()

    def manifest_bytes(self) -> bytes:
        """Current manifest bytes (cached until a tree changes).

        Note this reflects *sealed* state only — call :meth:`seal`
        first if changes are pending.
        """
        if self._manifest is None:
            self._manifest = encode_manifest(
                {name: tree.root for name, tree in self._trees.items()}
            )
        return self._manifest

    @property
    def index_root(self) -> Digest:
        return index_root_of(self.manifest_bytes())

    def bulk_load(
        self, column: str, postings_by_value: Mapping[object, Sequence[bytes]]
    ) -> None:
        """Replace one column's tree from a full postings mapping.

        The benchmark's 1M-key path: :meth:`PosTree.from_items` bulk
        build instead of per-commit :meth:`apply` churn.
        """
        if column not in self._trees:
            raise QueryError(f"column {column!r} is not indexed")
        items = [
            (encode_search_value(value), encode_postings(ukeys))
            for value, ukeys in postings_by_value.items()
            if ukeys
        ]
        self._trees[column] = PosTree.from_items(self.store, items)
        self._dirty[column].clear()
        self._manifest = None

    def rebuild_from(self, inverted) -> None:
        """Rebuild every column tree from the inverted index.

        Used when search is enabled on a database that already holds
        data (``SpitzDatabase.enable_search``): the committed trees
        must reflect the *full* current postings, not just changes
        observed from now on.
        """
        for column in self._trees:
            postings: Dict[object, List[bytes]] = {}
            for value in inverted.values(column):
                postings[value] = inverted.lookup(column, value)
            if postings:
                self.bulk_load(column, postings)
            else:
                self._trees[column] = PosTree.empty(self.store)
                self._dirty[column].clear()
                self._manifest = None


__all__ = [
    "SEARCH_PREFIX",
    "SEARCH_ROOT_KEY",
    "CommittedSearchIndex",
    "decode_manifest",
    "decode_postings",
    "encode_manifest",
    "encode_postings",
    "index_root_of",
]
