"""The ForkBase facade.

Combines the chunk store, chunker, POS-tree and version manager into
the interface the rest of the library consumes:

- ``put_value`` / ``get_value`` — deduplicated storage of arbitrary
  byte values as :class:`Blob` objects, returning content addresses;
- ``dataset`` operations — a named, versioned key→value map per branch,
  a :class:`~repro.indexes.pos_tree.PosTree` whose leaves pair each key
  with its value's blob address, with O(1) historical reads;
- dedup statistics used by the Figure 1 benchmark.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.crypto.hashing import Digest, hash_bytes
from repro.errors import StorageError
from repro.forkbase.chunk_store import ChunkStore, StoreStats
from repro.forkbase.chunker import Chunker, RollingChunker
from repro.forkbase.versions import Commit, VersionManager
from repro.indexes.pos_tree import PosTree
from repro.indexes.siri import decode_node, encode_node


class Blob:
    """A chunked, deduplicated byte string.

    Its address is its index's: one node in the POS-tree codec,
    ``("L", ((end offset, chunk digest), ...))`` with each chunk's end
    offset as a u64 big-endian key, read back by the strict decoder.
    """

    def __init__(self, store: ChunkStore, address: Digest):
        self._store = store
        self.address = address

    @staticmethod
    def index(store: ChunkStore, data: bytes, chunker: Chunker) -> bytes:
        """Store ``data``'s chunks; return the bytes of its index."""
        pairs, end = [], 0
        for chunk in chunker.chunks(data):
            end += len(chunk)
            pairs.append((end.to_bytes(8, "big"), store.put(chunk)))
        return encode_node(("L", tuple(pairs)))

    @classmethod
    def write(
        cls,
        store: ChunkStore,
        data: bytes,
        chunker: Optional[Chunker] = None,
    ) -> "Blob":
        """Chunk ``data``, store the chunks, and return a handle."""
        index = cls.index(store, data, chunker or RollingChunker())
        return cls(store, store.put(index))

    def _pairs(self) -> tuple:
        tag, pairs = decode_node(self._store.get(self.address))
        if tag != "L":
            raise StorageError(
                f"no blob index at {self.address.hex()[:12]}"
            )
        return pairs

    def read(self) -> bytes:
        """Reassemble the full byte string."""
        return b"".join(
            self._store.get(chunk) for _end, chunk in self._pairs()
        )

    def __len__(self) -> int:
        pairs = self._pairs()
        return int.from_bytes(pairs[-1][0], "big") if pairs else 0


class ForkBase:
    """Immutable, deduplicated, versioned storage engine."""

    def __init__(self, chunker: Optional[Chunker] = None):
        self.chunks = ChunkStore()
        self.chunker = chunker or RollingChunker()
        self.versions = VersionManager()
        # Working map per branch (the not-yet-committed head state).
        self._working: Dict[str, PosTree] = {}

    # -- raw value interface -------------------------------------------

    def put_value(self, data: bytes) -> Digest:
        """Store a value (chunked + deduplicated); return its address."""
        return Blob.write(self.chunks, data, self.chunker).address

    def get_value(self, address: Digest) -> bytes:
        """Fetch a value previously stored with :meth:`put_value`."""
        return Blob(self.chunks, address).read()

    # -- versioned dataset interface -------------------------------------

    def _working_map(self, branch: str) -> PosTree:
        if branch not in self._working:
            head = None
            if branch in self.versions.branches():
                head = self.versions.head(branch)
            else:
                self.versions.create_branch(branch)
            self._working[branch] = (
                PosTree(self.chunks, head.root) if head is not None
                else PosTree.empty(self.chunks)
            )
        return self._working[branch]

    def put(
        self,
        key: str,
        value: bytes,
        branch: str = VersionManager.DEFAULT_BRANCH,
    ) -> Digest:
        """Bind ``key`` to ``value`` in the branch's working state.

        The value itself is chunk-deduplicated and the map's leaf pairs
        the key with the blob's address; unchanged nodes are shared with
        previous states.  Returns the value's content address.
        """
        index = Blob.index(self.chunks, value, self.chunker)
        working = self._working_map(branch)
        self._working[branch] = working.apply({key.encode(): index})
        return hash_bytes(index)

    def _read(self, tree: PosTree, key: str) -> bytes:
        address = tree.value_digest(key.encode())
        if address is None:
            raise KeyError(key)
        return self.get_value(address)

    def get(
        self,
        key: str,
        branch: str = VersionManager.DEFAULT_BRANCH,
    ) -> bytes:
        """Value bound to ``key`` in the branch's working state."""
        return self._read(self._working_map(branch), key)

    def get_at(self, key: str, commit: Commit) -> bytes:
        """Value bound to ``key`` as of ``commit`` (historical read)."""
        return self._read(PosTree(self.chunks, commit.root), key)

    def delete(
        self,
        key: str,
        branch: str = VersionManager.DEFAULT_BRANCH,
    ) -> None:
        """Remove ``key`` from the *working state* of ``branch``.

        History is immutable: the key remains readable at every commit
        that contained it.
        """
        working = self._working_map(branch)
        self._working[branch] = working.apply({key.encode(): None})

    def keys(
        self, branch: str = VersionManager.DEFAULT_BRANCH
    ) -> Iterator[str]:
        """Keys in the branch's working state, sorted."""
        for key, _index in self._working_map(branch).items():
            yield key.decode()

    def commit(
        self,
        message: str = "",
        branch: str = VersionManager.DEFAULT_BRANCH,
    ) -> Commit:
        """Snapshot the branch's working state as a new commit."""
        working = self._working_map(branch)
        return self.versions.commit(
            root=working.root, message=message, branch=branch
        )

    # -- accounting ------------------------------------------------------

    @property
    def stats(self) -> StoreStats:
        """Deduplication statistics of the underlying chunk store."""
        return self.chunks.stats

    def storage_report(self) -> Dict[str, float]:
        """Summary used by the Figure 1 benchmark."""
        stats = self.chunks.stats
        return {
            "logical_bytes": stats.logical_bytes,
            "physical_bytes": stats.physical_bytes,
            "dedup_ratio": stats.dedup_ratio,
            "unique_chunks": stats.unique_chunks,
        }
