"""Content-addressed chunk store.

Every object in ForkBase — data chunks, Merkle-DAG nodes, SIRI index
nodes, ledger blocks — is stored here under the SHA-256 of its content.
Writing the same content twice stores one copy; that single property is
what makes multi-version storage cheap (Figure 1 of the paper).

The store also keeps the accounting the benchmarks need: logical bytes
written (what a naive snapshot store would hold) versus physical bytes
stored (after deduplication).

Concurrency: every processor node funnels its index and cell writes
through one shared store, so mutations are guarded by locks *striped
by address prefix* (first byte of the content digest).  Two nodes
putting different content proceed in parallel; two nodes racing on the
same content serialize on the same stripe, so the check-then-act in
:meth:`put` can never double-insert, double-count
``unique_chunks``/``physical_bytes``, or lose a refcount.  The stripes
are the first step toward ROADMAP's chunk-store sharding — a sharded
store keeps per-stripe dicts behind these same locks.  Stats live
behind their own single lock (they are touched on every op regardless
of stripe).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.crypto.hashing import Digest, hash_bytes
from repro.errors import ChunkNotFoundError

#: Lock stripes. 16 is plenty for thread-count-scale contention and
#: keeps compact()'s take-all-stripes step cheap.
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


@dataclass(slots=True)
class _Entry:
    data: bytes
    refcount: int = 1


class ChunkStore:
    """In-memory content-addressed store with reference counts.

    Reference counts exist so the version manager can *report* how much
    space unreachable versions would free; nothing is ever deleted
    behind an immutable database's back — release only moves bytes into
    the reclaimable pool, and :meth:`compact` (an explicit, logged
    operation) actually drops zero-reference chunks.
    """

    def __init__(self, metrics=None) -> None:
        # Imported here: forkbase must stay importable without obs
        # being initialized first (and obs never imports forkbase).
        from repro.obs.metrics import NULL_REGISTRY

        self._tracer = (
            metrics if metrics is not None else NULL_REGISTRY
        ).tracer
        self._entries: Dict[Digest, _Entry] = {}
        self._stripes: List[threading.Lock] = [
            threading.Lock() for _ in range(STRIPE_COUNT)
        ]
        self._stats_lock = threading.Lock()
        self.stats = StoreStats()
        # Side cache for index layers built on top of the store:
        # deserialized index nodes by address.  Content addressing makes
        # it sound (a digest's decoded form never changes); it trades
        # memory for the decoding that would otherwise dominate reads.
        self.decode_cache: Dict[Digest, object] = {}

    def _stripe(self, address: Digest) -> threading.Lock:
        return self._stripes[address[0] % STRIPE_COUNT]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, address: Digest) -> bool:
        return address in self._entries

    def put(self, data: bytes) -> Digest:
        """Store ``data``; return its content address.

        Re-putting existing content bumps the refcount and costs no
        physical bytes.  Safe under concurrent putters: the address's
        stripe lock serializes the exists-check with the insert.

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
            entry = self._entries.get(address)
            if entry is not None:
                entry.refcount += 1
                fresh = False
            else:
                self._entries[address] = _Entry(data=data)
                fresh = True
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
        entry = self._entries.get(address)
        if entry is None:
            raise ChunkNotFoundError(address.hex())
        return entry.data

    def get_optional(self, address: Digest) -> Optional[bytes]:
        """Fetch the chunk at ``address`` or None if absent."""
        with self._stats_lock:
            self.stats.gets += 1
        entry = self._entries.get(address)
        return entry.data if entry is not None else None

    def refcount(self, address: Digest) -> int:
        """Current reference count (0 if the chunk is unknown)."""
        entry = self._entries.get(address)
        return entry.refcount if entry is not None else 0

    def release(self, address: Digest) -> int:
        """Drop one reference; return the remaining count.

        The chunk's bytes stay resident until :meth:`compact`.
        """
        with self._stripe(address):
            entry = self._entries.get(address)
            if entry is None:
                raise ChunkNotFoundError(address.hex())
            if entry.refcount > 0:
                entry.refcount -= 1
            return entry.refcount

    def reclaimable_bytes(self) -> int:
        """Bytes held by zero-reference chunks."""
        with self._all_stripes():
            return sum(
                len(entry.data)
                for entry in self._entries.values()
                if entry.refcount == 0
            )

    def _all_stripes(self):
        """Acquire every stripe (in index order, so no deadlocks)."""
        return _MultiLock(self._stripes)

    def compact(self) -> int:
        """Physically drop zero-reference chunks; return bytes freed.

        Takes every stripe so no putter can resurrect (or re-insert) a
        chunk while its entry is being dropped.
        """
        with self._all_stripes():
            dead = [
                address
                for address, entry in self._entries.items()
                if entry.refcount == 0
            ]
            freed = 0
            for address in dead:
                freed += len(self._entries[address].data)
                del self._entries[address]
            with self._stats_lock:
                self.stats.unique_chunks -= len(dead)
                self.stats.physical_bytes -= freed
        return freed

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


class _MultiLock:
    """Context manager acquiring a list of locks in fixed order."""

    __slots__ = ("_locks",)

    def __init__(self, locks: List[threading.Lock]):
        self._locks = locks

    def __enter__(self) -> "_MultiLock":
        for lock in self._locks:
            lock.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for lock in reversed(self._locks):
            lock.release()
