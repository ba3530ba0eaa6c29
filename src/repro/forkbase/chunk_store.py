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

History as reverse deltas: a node an apply retires is re-stored by
:meth:`ChunkStore.supersede` as a :class:`Delta` — the bytes it differs
by from the node that replaced it, whatever the two lengths — so the
newest version of a node is whole and an older one costs about one row:
node layout v4 (:mod:`repro.indexes.siri`) makes an insert, a delete or
an overwrite one contiguous edit, so the shared ends leave the row as
the middle.  :meth:`get` rebuilds a delta by walking its chain (at most
:data:`MAX_CHAIN` links) to a whole chunk; a re-put of content held as
a delta stores it whole again.

A checkpoint writes a store as its chunks in their stored form, not as
an object graph, each accepted on load only once it rebuilds to bytes
that hash to its address (:mod:`repro.durability.checkpoint`).
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.crypto.hashing import Digest, hash_bytes
from repro.errors import ChunkNotFoundError


#: The most deltas a read walks to reach a whole chunk.  Chosen by a
#: sweep (EXPERIMENTS.md, "History as deltas"): 4 stores 18 % more, 64
#: saves 1.6 % more and reads every chunk 25 % slower.
MAX_CHAIN = 16
#: A delta's head: the address of the chunk it is stored against, and
#: how many leading and trailing bytes it shares with that chunk.
_DELTA = struct.Struct(">32sII")


class Delta(bytes):
    """A chunk held as ``base address ‖ prefix length(u32) ‖ suffix
    length(u32) ‖ middle``: the chunk is the base's first ``prefix``
    bytes, the middle, then the base's last ``suffix`` bytes."""

    __slots__ = ()

    def patch(self, base: bytes) -> bytes:
        """The chunk this delta stands for, given its base's bytes."""
        _address, prefix, suffix = _DELTA.unpack_from(self)
        return base[:prefix] + self[_DELTA.size:] + base[len(base) - suffix:]


def _delta(old: bytes, new: bytes, base: Digest) -> Delta:
    """``old`` as a delta against ``new`` at ``base``.  As big-endian
    integers the two line up at their last bytes, so one XOR finds the
    shared suffix, and one more, with the longer shifted down to the
    shorter's length, the shared prefix; the two ends together are
    clamped to the shorter length."""
    first, second = int.from_bytes(old, "big"), int.from_bytes(new, "big")
    size = min(len(old), len(new))
    head = (first >> 8 * (len(old) - size)) ^ (
        second >> 8 * (len(new) - size)
    )
    prefix = size - (head.bit_length() + 7) // 8
    tail = first ^ second
    suffix = (
        min(((tail & -tail).bit_length() - 1) // 8, size - prefix)
        if tail else size - prefix
    )
    return Delta(
        _DELTA.pack(base, prefix, suffix) + old[prefix:len(old) - suffix]
    )


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
    """In-memory content-addressed store: address → stored form.

    The database is immutable, so nothing is ever deleted; a chunk is
    held as its bytes or, once superseded, as a :class:`Delta`.
    """

    def __init__(self, metrics=None) -> None:
        # Imported here: forkbase must stay importable without obs
        # being initialized first (and obs never imports forkbase).
        from repro.obs.metrics import NULL_REGISTRY

        #: Where :meth:`put`'s ``chunks.put`` stage spans go.
        self.tracer = (
            metrics if metrics is not None else NULL_REGISTRY
        ).tracer
        self._entries: Dict[Digest, Union[bytes, Delta]] = {}
        #: Whole chunks that deltas are stored against → an upper bound
        #: on the longest chain ending at each (absent: 0).
        self._depths: Dict[Digest, int] = {}
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

        Re-putting existing content costs no physical bytes, except
        that content held as a delta is stored whole again: a chunk a
        new version shares is never a delta, and a delta's base was
        whole when it was made, so no chain can form a cycle.  Safe
        under concurrent putters: the store's lock serializes the
        exists-check with the insert.

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
                elif self._entries[address].__class__ is Delta:
                    self._restore(address, self._entries[address], data)
            return address

    def _restore(self, address: Digest, delta: Delta, data: bytes) -> None:
        """Hold ``data`` whole again in place of its ``delta`` (under the
        lock).  A chain through ``address`` now ends there, shorter by
        the links ``delta`` took to its whole chunk."""
        chain, base, whole = self._walk(delta)
        depth = (
            self._depths.get(base, 0) if whole is not None
            else MAX_CHAIN + len(chain)  # a lost link: assume the worst
        )
        if depth > len(chain):
            self._depths[address] = depth - len(chain)
        self._entries[address] = data
        self.stats.physical_bytes += len(data) - len(delta)

    def supersede(self, old: Digest, new: Digest) -> None:
        """Re-store the chunk at ``old`` as a :class:`Delta` against the
        chunk at ``new`` that took its place, if both are held whole,
        the delta is smaller than the chunk, and no chain through
        ``old`` grows past :data:`MAX_CHAIN`.  The two may differ in
        length: a node one pair longer or shorter than its successor
        differs from it by one row."""
        entries, depths = self._entries, self._depths
        with self._lock:
            was, now = entries.get(old), entries.get(new)
            if (
                was is None or now is None
                or was.__class__ is Delta or now.__class__ is Delta
                or old == new
            ):
                return
            depth = depths.get(old, 0) + 1
            if depth > MAX_CHAIN:
                return
            delta = _delta(was, now, new)
            if len(delta) >= len(was):
                return
            entries[old] = delta
            self.stats.physical_bytes += len(delta) - len(was)
            depths.pop(old, None)
            if depth > depths.get(new, 0):
                depths[new] = depth

    def _walk(
        self, data: Union[bytes, Delta, None]
    ) -> Tuple[List[Delta], Optional[bytes], Optional[bytes]]:
        """The deltas from ``data`` to the whole chunk its chain ends
        on, and that chunk's address and bytes — bytes None if a link is
        missing or the chain is longer than :data:`MAX_CHAIN` (only a
        damaged store holds either)."""
        chain: List[Delta] = []
        base = None
        while data.__class__ is Delta:
            if len(chain) == MAX_CHAIN:
                return chain, base, None
            chain.append(data)
            base = data[:32]
            data = self._entries.get(base)
        return chain, base, data

    def _whole(self, delta: Delta) -> Optional[bytes]:
        """The chunk ``delta`` stands for, or None if its chain is
        broken."""
        chain, _base, data = self._walk(delta)
        if data is not None:
            for link in reversed(chain):
                data = link.patch(data)
        return data

    def get(self, address: Digest) -> bytes:
        """Fetch the chunk at ``address``.

        Raises :class:`ChunkNotFoundError` if absent, or held as a
        delta whose chain has lost a link.  (Not a call to
        :meth:`get_optional`: a proof fetches each node on its path.)
        """
        with self._lock:
            self.stats.gets += 1
        data = self._entries.get(address)
        if data.__class__ is Delta:
            data = self._whole(data)
        if data is None:
            raise ChunkNotFoundError(address.hex())
        return data

    def get_optional(self, address: Digest) -> Optional[bytes]:
        """Fetch the chunk at ``address`` or None if absent (or held as
        a delta whose chain has lost a link)."""
        with self._lock:
            self.stats.gets += 1
        data = self._entries.get(address)
        if data.__class__ is Delta:
            return self._whole(data)
        return data

    def addresses(self) -> Iterator[Digest]:
        """Iterate over all stored content addresses."""
        return iter(list(self._entries.keys()))

    def items(self) -> Iterator[Tuple[Digest, Union[bytes, Delta]]]:
        """Every ``(address, stored form)``, in insertion order; not
        counted in :attr:`stats` (a checkpoint writes them all)."""
        entries = self._entries
        return ((address, entries[address]) for address in list(entries))

    def put_delta(self, address: Digest, delta: bytes) -> bool:
        """Hold ``delta`` as the stored form of ``address`` (a
        checkpoint's record), unchecked until :meth:`check_deltas`;
        False if the address is already held or the record is shorter
        than a delta's head."""
        with self._lock:
            if address in self._entries or len(delta) < _DELTA.size:
                return False
            self._entries[address] = Delta(delta)
            self.stats.unique_chunks += 1
            self.stats.physical_bytes += len(delta)
            return True

    def check_deltas(self) -> Optional[Digest]:
        """Rebuild every delta and record how long each whole chunk's
        longest chain is; returns the first address whose chain has a
        missing link, is longer than :data:`MAX_CHAIN` (a cycle is) or
        rebuilds to bytes of another hash, None when every one holds."""
        depths = self._depths
        depths.clear()
        for address, data in self.items():
            if data.__class__ is not Delta:
                continue
            chain, base, whole = self._walk(data)
            if whole is None:
                return address
            for link in reversed(chain):
                whole = link.patch(whole)
            if hash_bytes(whole) != address:
                return address
            if len(chain) > depths.get(base, 0):
                depths[base] = len(chain)
        return None

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
