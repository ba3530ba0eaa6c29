"""Content-addressed chunk store.

Every object in ForkBase — data chunks, Merkle-DAG nodes, SIRI index
nodes, ledger blocks — is stored here under the SHA-256 of its content.
Writing the same content twice stores one copy; that single property is
what makes multi-version storage cheap (Figure 1 of the paper).

The store also keeps the accounting the benchmarks need: logical bytes
written (what a naive snapshot store would hold) versus physical bytes
stored (after deduplication).

Concurrency: every processor node funnels its index and cell writes
through one shared store, so :meth:`put` hashes outside any lock and
then takes the store's one lock around the exists-check, the insert
and the accounting: two nodes racing on the same content can never
double-insert or double-count ``unique_chunks``/``physical_bytes``.
The critical section is a dict probe and four additions, so one lock
costs less than address-striped locks plus a separate stats lock did.

A store is not pickled: a checkpoint writes its chunks as
``(address, length, bytes)`` records, each accepted on load only if it
hashes to its address (:mod:`repro.durability.checkpoint`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.crypto.hashing import Digest, hash_bytes
from repro.errors import ChunkNotFoundError


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

        #: Where :meth:`put`'s ``chunks.put`` stage spans go.
        self.tracer = (
            metrics if metrics is not None else NULL_REGISTRY
        ).tracer
        self._entries: Dict[Digest, bytes] = {}
        self._lock = threading.Lock()
        self.stats = StoreStats()
        # Side cache for index layers built on top of the store:
        # deserialized index nodes by address.  Content addressing makes
        # it sound (a digest's decoded form never changes) and any entry
        # safe to drop (a miss decodes the chunk); a POS-tree apply
        # drops the nodes its new version stops sharing.
        self.decode_cache: Dict[Digest, object] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, address: Digest) -> bool:
        return address in self._entries

    def put(self, data: bytes) -> Digest:
        """Store ``data``; return its content address.

        Re-putting existing content costs no physical bytes.  Safe under
        concurrent putters: the store's lock serializes the exists-check
        with the insert.

        Tracing: recorded as a ``chunks.put`` child span only inside
        an active trace (``stage_in_trace``) — per-op timing outside a
        trace would make this the single hottest metric site in the
        system (see :meth:`export_metrics`).
        """
        with self.tracer.stage_in_trace("chunks.put"):
            address = hash_bytes(data)
            size = len(data)
            with self._lock:
                stats = self.stats
                stats.puts += 1
                stats.logical_bytes += size
                if address not in self._entries:
                    self._entries[address] = data
                    stats.unique_chunks += 1
                    stats.physical_bytes += size
            return address

    def get(self, address: Digest) -> bytes:
        """Fetch the chunk at ``address``.

        Raises :class:`ChunkNotFoundError` if absent.
        """
        with self._lock:
            self.stats.gets += 1
        data = self._entries.get(address)
        if data is None:
            raise ChunkNotFoundError(address.hex())
        return data

    def get_optional(self, address: Digest) -> Optional[bytes]:
        """Fetch the chunk at ``address`` or None if absent."""
        with self._lock:
            self.stats.gets += 1
        return self._entries.get(address)

    def addresses(self) -> Iterator[Digest]:
        """Iterate over all stored content addresses."""
        return iter(list(self._entries.keys()))

    def items(self) -> Iterator[Tuple[Digest, bytes]]:
        """Every ``(address, bytes)`` stored, in insertion order; not
        counted in :attr:`stats` (a checkpoint reads them all)."""
        entries = self._entries
        return ((address, entries[address]) for address in list(entries))

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
