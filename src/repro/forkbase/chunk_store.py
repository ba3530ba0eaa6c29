"""Content-addressed chunk store.

Every object in ForkBase — data chunks, Merkle-DAG nodes, SIRI index
nodes, ledger blocks — is stored here under the SHA-256 of its content.
Writing the same content twice stores one copy; that single property is
what makes multi-version storage cheap (Figure 1 of the paper).

The store also keeps the accounting the benchmarks need: logical bytes
written (what a naive snapshot store would hold) versus physical bytes
stored (after deduplication).

Concurrency: every processor node funnels its index and cell writes
through one shared store, so inserts are guarded by locks *striped by
address prefix* (first byte of the content digest).  Two nodes putting
different content proceed in parallel; two nodes racing on the same
content serialize on the same stripe, so the check-then-act in
:meth:`put` can never double-insert or double-count
``unique_chunks``/``physical_bytes``.  Stats live behind their own
single lock (they are touched on every op regardless of stripe).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.crypto.hashing import Digest, hash_bytes
from repro.errors import ChunkNotFoundError

#: Lock stripes: plenty for thread-count-scale contention.
STRIPE_COUNT = 16


@dataclass
class StoreStats:
    """Deduplication accounting for a :class:`ChunkStore`."""

    puts: int = 0
    unique_chunks: int = 0
    logical_bytes: int = 0
    physical_bytes: int = 0
    gets: int = 0

    @property
    def dedup_ratio(self) -> float:
        """logical/physical bytes; 1.0 means no deduplication."""
        if self.physical_bytes == 0:
            return 1.0
        return self.logical_bytes / self.physical_bytes


class ChunkStore:
    """In-memory content-addressed store: address → bytes.

    The database is immutable, so nothing is ever deleted and a chunk
    is its bytes and nothing else.
    """

    def __init__(self, metrics=None) -> None:
        # Imported here: forkbase must stay importable without obs
        # being initialized first (and obs never imports forkbase).
        from repro.obs.metrics import NULL_REGISTRY

        self._tracer = (
            metrics if metrics is not None else NULL_REGISTRY
        ).tracer
        self._entries: Dict[Digest, bytes] = {}
        self._stripes: List[threading.Lock] = [
            threading.Lock() for _ in range(STRIPE_COUNT)
        ]
        self._stats_lock = threading.Lock()
        self.stats = StoreStats()
        # Side cache for index layers built on top of the store:
        # deserialized index nodes by address.  Content addressing makes
        # it sound (a digest's decoded form never changes) and any entry
        # safe to drop (a miss decodes the chunk); a POS-tree apply
        # drops the nodes its new version stops sharing.
        self.decode_cache: Dict[Digest, object] = {}

    def _stripe(self, address: Digest) -> threading.Lock:
        return self._stripes[address[0] % STRIPE_COUNT]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, address: Digest) -> bool:
        return address in self._entries

    def put(self, data: bytes) -> Digest:
        """Store ``data``; return its content address.

        Re-putting existing content costs no physical bytes.  Safe under
        concurrent putters: the address's stripe lock serializes the
        exists-check with the insert.

        Tracing: recorded as a ``chunks.put`` child span only inside
        an active trace (``stage_in_trace``) — per-op timing outside a
        trace would make this the single hottest metric site in the
        system (see :meth:`export_metrics`).
        """
        with self._tracer.stage_in_trace("chunks.put"):
            return self._put(data)

    def _put(self, data: bytes) -> Digest:
        address = hash_bytes(data)
        with self._stripe(address):
            fresh = address not in self._entries
            if fresh:
                self._entries[address] = data
        with self._stats_lock:
            self.stats.puts += 1
            self.stats.logical_bytes += len(data)
            if fresh:
                self.stats.unique_chunks += 1
                self.stats.physical_bytes += len(data)
        return address

    def get(self, address: Digest) -> bytes:
        """Fetch the chunk at ``address``.

        Raises :class:`ChunkNotFoundError` if absent.
        """
        with self._stats_lock:
            self.stats.gets += 1
        data = self._entries.get(address)
        if data is None:
            raise ChunkNotFoundError(address.hex())
        return data

    def get_optional(self, address: Digest) -> Optional[bytes]:
        """Fetch the chunk at ``address`` or None if absent."""
        with self._stats_lock:
            self.stats.gets += 1
        return self._entries.get(address)

    def addresses(self) -> Iterator[Digest]:
        """Iterate over all stored content addresses."""
        return iter(list(self._entries.keys()))

    def export_metrics(self, registry) -> None:
        """Publish dedup accounting into a metrics registry.

        Derived from :class:`StoreStats` at snapshot time rather than
        instrumenting :meth:`put`/:meth:`get` per call — the chunk
        store sits under every index-node write and read, so per-op
        registry traffic here would be the single hottest metric site
        in the system.  ``chunks.dedup_hits`` counts puts whose content
        was already resident (the ForkBase node-reuse figure).
        """
        stats = self.stats
        registry.gauge("chunks.puts").set(stats.puts)
        registry.gauge("chunks.gets").set(stats.gets)
        registry.gauge("chunks.unique").set(stats.unique_chunks)
        registry.gauge("chunks.dedup_hits").set(
            stats.puts - stats.unique_chunks
        )
        registry.gauge("chunks.dedup_hit_rate").set(
            (stats.puts - stats.unique_chunks) / stats.puts
            if stats.puts
            else 0.0
        )
        registry.gauge("chunks.logical_bytes").set(stats.logical_bytes)
        registry.gauge("chunks.physical_bytes").set(stats.physical_bytes)
        registry.gauge("chunks.dedup_ratio").set(stats.dedup_ratio)

    # -- pickling (snapshots capture state, not live locks) ------------

    def __getstate__(self):
        state = dict(self.__dict__)
        # The decode cache is derived from the chunks; a snapshot that
        # carried it would store every index node twice.
        for transient in ("_stripes", "_stats_lock", "decode_cache"):
            del state[transient]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._stripes = [threading.Lock() for _ in range(STRIPE_COUNT)]
        self._stats_lock = threading.Lock()
        self.decode_cache = {}
