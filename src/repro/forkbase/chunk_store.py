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
by from the new node holding the most of its rows, whatever the two
lengths — so the newest version of a node is whole and an older one
costs about its edits: node layout v4 (:mod:`repro.indexes.siri`)
makes an insert, a delete or an overwrite one contiguous edit, so the
shared ends leave one edit's row as the middle, and where a batch
edited a node in several places, or a split or merge moved its prefix,
the middle is cut at the rows the two share, which the delta copies
from its base (under a moved prefix, each row's suffix and digest at
an offset shifted by the prefix difference).  The store finds the
ends itself; the rows come from the edit that made the base, which
knows the stretches it kept (:func:`~repro.indexes.siri.edit_spans`),
and each is checked byte for byte before it is copied.  :meth:`get`
rebuilds a delta by walking its chain (at most :data:`MAX_CHAIN` links)
to a whole chunk; a re-put of content held as a delta stores it whole
again.

A delta names its base by its position in the order chunks were first
held, a varint of a few bytes (layout 13 named it by its 32-byte
address).  A checkpoint writes the chunks in that order, in their
stored form and without their addresses, so record *i* is position
*i*: :meth:`ChunkStore.load` derives each address by hashing what its
record rebuilds to (:mod:`repro.durability.checkpoint`).
"""

from __future__ import annotations

import struct
import threading
from contextlib import suppress
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
    Union,
)

from repro.crypto.hashing import Digest, hash_bytes
from repro.errors import ChunkNotFoundError


def varint(number: int) -> bytes:
    """``number`` as an unsigned LEB128 varint, minimally encoded (a
    node's lengths, :mod:`repro.indexes.siri`, and a delta's head;
    three bytes or fewer spelled out: a retirement writes three)."""
    if number < 0x80:
        return bytes((number,))
    if number < 0x4000:
        return bytes((number & 0x7F | 0x80, number >> 7))
    if number < 0x200000:
        return bytes((
            number & 0x7F | 0x80, number >> 7 & 0x7F | 0x80, number >> 14
        ))
    out = bytearray()
    while number > 0x7F:
        out.append(number & 0x7F | 0x80)
        number >>= 7
    out.append(number)
    return bytes(out)


#: The most deltas a read walks to reach a whole chunk.  Chosen by a
#: sweep (EXPERIMENTS.md, "History as deltas"): 4 stores 18 % more, 64
#: saves 1.6 % more and reads every chunk 25 % slower.
MAX_CHAIN = 16
#: How many positions of bases found far from the end (a revert's) a
#: store remembers.
_FAR_MOST = 1024
#: After a multi-hunk delta's head: how many copies.
_COUNT = struct.Struct(">H")
#: A multi-hunk delta's offsets and lengths are u16s: a chunk longer
#: than this keeps its one-hunk delta.
_HUNK_MAX = 0xFFFF
#: A copy's entry in a multi-hunk delta's table.
_COPY = struct.Struct(">3H")
#: The longest middle no cut can shrink: a copy must save more than its
#: entry and the copy count, and a middle this short holds one copy.
_UNCUT = _COUNT.size + _COPY.size


class Delta(bytes):
    """A chunk held as the bytes it differs by from a base, behind a
    head ``varint(base position) ‖ varint(prefix << 1 | cut) ‖
    varint(suffix)``, in one of two shapes, told apart by the cut bit:

    - one hunk, ``head ‖ middle``: the base's first ``prefix`` bytes,
      the middle, then the base's last ``suffix`` bytes;
    - several, ``head ‖ count(u16) ‖ count × (literal length, base
      offset, length)(u16 each) ‖ literals``: between the same two
      ends, each copy's literal run from the literals in turn then
      ``length`` bytes of the base from ``offset``, and what is left of
      the literals last.
    """

    __slots__ = ()

    def head(self) -> Tuple[int, int, int, int]:
        """``(base position, prefix << 1 | cut, suffix, where the body
        starts)``; ``ValueError`` if a varint is cut short, not minimal
        or longer than 64 bits.  (Read inline: a rebuild reads one head
        a link, and three ``siri.varint_at`` calls doubled reading
        every chunk.)"""
        fields, at = [], 0
        try:
            for _ in range(3):
                number = self[at]
                at += 1
                if number > 0x7F:
                    number, shift, byte = number & 0x7F, 7, 0x80
                    while byte > 0x7F:
                        if shift > 63:
                            raise ValueError("a delta's head runs on")
                        byte = self[at]
                        at += 1
                        number |= (byte & 0x7F) << shift
                        shift += 7
                    if not byte:
                        raise ValueError("a delta's head is not minimal")
                fields.append(number)
        except IndexError:
            raise ValueError("a delta's head is cut short") from None
        return fields[0], fields[1], fields[2], at

    def patch(
        self, base: bytes, head: Optional[Tuple[int, int, int, int]] = None
    ) -> bytes:
        """The chunk this delta stands for, given its base's bytes (and
        its :meth:`head`, if read already); ``ValueError`` if its head or
        copies run past the record.  (Anything else malformed rebuilds to
        bytes of another hash.)"""
        _position, word, suffix, at = head or self.head()
        prefix, end = word >> 1, len(base) - suffix
        if not word & 1:
            return base[:prefix] + self[at:] + base[end:]
        if len(self) < at + _COUNT.size:
            raise ValueError("a delta's copy count is cut short")
        count = _COUNT.unpack_from(self, at)[0]
        table_at = at + _COUNT.size
        at = table_at + _COPY.size * count
        if at > len(self):
            raise ValueError("a delta's copies run past its record")
        pieces = [base[:prefix]]
        table = iter(struct.unpack_from(f">{3 * count}H", self, table_at))
        for literal, offset, length in zip(table, table, table):
            pieces += (self[at:at + literal], base[offset:offset + length])
            at += literal
        pieces += (self[at:], base[end:])
        return b"".join(pieces)


def _ends(old: bytes, new: bytes) -> Tuple[int, int]:
    """How many leading and trailing bytes ``old`` shares with ``new``.
    As big-endian integers the two line up at their last bytes, so one
    XOR finds the shared suffix, and one more, with the longer shifted
    down to the shorter's length, the shared prefix; the two ends
    together are clamped to the shorter length."""
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
    return prefix, suffix


def _hunked(
    old: bytes, new: bytes, head: bytes, prefix: int, suffix: int,
    shared: Sequence[Sequence[int]],
) -> Optional[Delta]:
    """``old`` as a multi-hunk delta against ``new`` behind ``head``,
    its middle cut at the ``shared`` spans ``(offset in old, offset in
    new, length)``, in order: each clipped to the middle, dropped where
    a copy would cost more than it saves, and checked byte for byte.
    None if no span is left or one does not match."""
    stop = len(old) - suffix
    table: List[int] = []
    literals: List[bytes] = []
    at = prefix
    for start, source, length in shared:
        if start < at:  # clipped to the middle
            source, length, start = (
                source + at - start, length + start - at, at
            )
        if start + length > stop:
            length = stop - start
        if length > _COPY.size:  # else it costs what it saves
            if old[start:start + length] != new[source:source + length]:
                return None
            table += (start - at, source, length)
            literals.append(old[at:start])
            at = start + length
    if not table:
        return None
    literals.append(old[at:stop])
    return Delta(b"".join((
        head, _COUNT.pack(len(table) // 3),
        struct.pack(f">{len(table)}H", *table),
        *literals,
    )))


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
        #: The entry dict's keys in the order first held: a delta names
        #: its base by its index here.
        self._order: List[Digest] = []
        #: Positions of bases found far from the end (see _position).
        self._far: Dict[Digest, int] = {}
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
                    self._order.append(address)
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

    def supersede(
        self, old: Digest, new: Digest, shared: Optional[Callable[
            [bytes, bytes, int, int], Sequence[Tuple[int, int, int]]
        ]] = None,
    ) -> None:
        """Re-store the chunk at ``old`` as a :class:`Delta` against the
        chunk at ``new`` that took its place, if both are held whole,
        the delta is smaller than the chunk, and no chain through
        ``old`` grows past :data:`MAX_CHAIN`.  The two may differ in
        length: a node one pair longer or shorter than its successor
        differs from it by one row.

        ``shared(old bytes, new bytes, prefix, suffix)``, if given,
        names spans ``(offset in old, offset in new, length)`` the two
        share between the ends a one-hunk delta keeps; the middle is cut
        at them when that makes the delta smaller.  Without spans the
        middle is one hunk, so the store needs no knowledge of what its
        chunks encode."""
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
            prefix, suffix = _ends(was, now)
            stop = len(was) - suffix
            position, ends = varint(self._position(new)), varint(suffix)
            head = position + varint(prefix << 1) + ends
            size = len(head) + stop - prefix
            delta = None
            if (
                shared is not None and stop - prefix > _UNCUT
                and max(len(was), len(now)) <= _HUNK_MAX
            ):
                spans = shared(was, now, prefix, suffix)
                delta = spans and _hunked(
                    was, now, position + varint(prefix << 1 | 1) + ends,
                    prefix, suffix, spans,
                )
                if delta and len(delta) < size:
                    size = len(delta)
                else:
                    delta = None
            if size >= len(was):
                return
            if delta is None:
                delta = Delta(head + was[prefix:stop])
            entries[old] = delta
            self.stats.physical_bytes += len(delta) - len(was)
            depths.pop(old, None)
            if depth > depths.get(new, 0):
                depths[new] = depth

    def _position(self, address: Digest) -> int:
        """Where the held ``address`` sits in the order, searched back
        from the end in windows growing fourfold: a delta's base is
        nearly always a node its run has just written, among the last
        few.  One found further back (a revert's) is remembered."""
        order, far = self._order, self._far
        if address in far:
            return far[address]
        stop, width = len(order), 16
        while True:
            start = max(stop - width, 0)
            try:
                position = order.index(address, start, stop)
                break
            except ValueError:
                stop, width = start, width * 4
        if stop < len(order):
            if len(far) == _FAR_MOST:
                far.clear()
            far[address] = position
        return position

    def _walk(
        self, data: Union[bytes, Delta, None]
    ) -> Tuple[list, Optional[bytes], Optional[bytes]]:
        """The deltas from ``data`` to the whole chunk its chain ends
        on, each with its head, and that chunk's address and bytes —
        bytes None if a link is missing or malformed or the chain is
        longer than :data:`MAX_CHAIN` (only a damaged store holds
        any of these)."""
        chain = []
        base = None
        while data.__class__ is Delta:
            if len(chain) == MAX_CHAIN:
                return chain, base, None
            try:
                head = data.head()
                base = self._order[head[0]]
            except (ValueError, IndexError):  # no base at its position
                return chain, None, None
            chain.append((data, head))
            data = self._entries.get(base)
        return chain, base, data

    def _whole(self, delta: Delta) -> Optional[bytes]:
        """The chunk ``delta`` stands for, or None if its chain is
        broken."""
        chain, _base, data = self._walk(delta)
        try:
            for link, head in reversed(chain if data is not None else ()):
                data = link.patch(data, head)
        except ValueError:  # copies past the record
            return None
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

    def whole(self, address: Digest) -> Optional[bytes]:
        """The chunk at ``address`` if it is held whole, else None; not
        counted in :attr:`stats` (an apply copies rows from the tip's
        nodes, which are whole)."""
        data = self._entries.get(address)
        return None if data.__class__ is Delta else data

    def addresses(self) -> Iterator[Digest]:
        """Iterate over all stored content addresses."""
        return iter(list(self._entries.keys()))

    def items(self) -> Iterator[Tuple[Digest, Union[bytes, Delta]]]:
        """Every ``(address, stored form)``, in insertion order; not
        counted in :attr:`stats` (a checkpoint writes them all)."""
        entries = self._entries
        return ((address, entries[address]) for address in list(entries))

    def load(
        self, records: Iterable[Tuple[bytes, bool]]
    ) -> List[Optional[Digest]]:
        """Adopt a checkpoint's chunk section, ``(stored bytes, is a
        delta)`` records in order, and return each record's address: a
        whole chunk's is its hash, a delta's the hash of the bytes it
        rebuilds to, None for a delta that does not rebuild (its base's
        position is past the section, it sits on a cycle, it is
        malformed or its chain is longer than :data:`MAX_CHAIN`).
        Record *i* is position *i*: the store holds no chunk but the
        section's first (a new database's empty root), and a chunk held
        already keeps its form, so saving the store again writes the
        same section.

        Deltas are rebuilt outward from each whole base, one chain at a
        time, each from the bytes of the link it is stored against, so
        each is patched and hashed once, and each whole chunk's longest
        chain is recorded."""
        forms: List[Union[bytes, Delta]] = []
        addresses: List[Optional[Digest]] = []
        stored_against: Dict[int, List[int]] = {}
        for data, delta in records:
            address = None
            if not delta:
                address = hash_bytes(data)
            else:
                data = Delta(data)
                with suppress(ValueError):  # else it names no base
                    stored_against.setdefault(
                        data.head()[0], []
                    ).append(len(forms))
            forms.append(data)
            addresses.append(address)
        depths = self._depths
        for position, base in enumerate(addresses):
            if base is None:  # a delta
                continue
            pending = [
                (later, forms[position], 1)
                for later in stored_against.pop(position, ())
            ]
            while pending:
                index, source, depth = pending.pop()
                if depth > MAX_CHAIN:
                    continue
                try:
                    data = forms[index].patch(source)
                except ValueError:
                    continue
                addresses[index] = hash_bytes(data)
                depths[base] = max(depth, depths.get(base, 0))
                pending += [
                    (later, data, depth + 1)
                    for later in stored_against.pop(index, ())
                ]
        entries, stats = self._entries, self.stats
        with self._lock:
            for address, data in zip(addresses, forms):
                if address is not None and address not in entries:
                    entries[address] = data
                    self._order.append(address)
                    stats.unique_chunks += 1
                    stats.physical_bytes += len(data)
        return addresses

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
