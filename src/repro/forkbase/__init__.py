"""ForkBase substrate: immutable, deduplicated, versioned storage.

This package reimplements the parts of ForkBase (Wang et al.,
PVLDB 2018) that Spitz depends on:

- :mod:`~repro.forkbase.chunker` — content-defined chunking for
  deduplication;
- :mod:`~repro.forkbase.chunk_store` — a content-addressed object
  store;
- :mod:`~repro.forkbase.versions` — git-like commits and branches;
- :mod:`~repro.forkbase.store` — the user-facing facade: blobs and a
  versioned map, both POS-tree nodes in the chunk store.  It sits above
  :mod:`repro.indexes`, which stores into this package's chunk store,
  so it is imported from its module (or from :mod:`repro`), not here.
"""

from repro.forkbase.chunk_store import ChunkStore, StoreStats
from repro.forkbase.chunker import Chunker, FixedSizeChunker, RollingChunker
from repro.forkbase.versions import Commit, VersionManager

__all__ = [
    "Chunker",
    "ChunkStore",
    "Commit",
    "FixedSizeChunker",
    "RollingChunker",
    "StoreStats",
    "VersionManager",
]
