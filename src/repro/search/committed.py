"""Committed postings: each indexed posting is one ledger key.

The posting of ``value`` in an indexed ``column`` is the ledger entry

    ``SEARCH_PREFIX ‖ column ‖ 0x00 ‖ encode_search_value(value)``
    → :func:`encode_postings` of the universal keys posted under it,

so the ledger tree the chain digest commits to holds every indexed
column's postings beside the rows they point at — one authenticated
structure, one anchor.  :data:`SEARCH_PREFIX` is disjoint from the KV,
table and document keyspaces, and a column's keys are one contiguous
run of the tree: the value encoding is order-preserving, so a range
predicate is a range scan of the ledger.  The leaf set is a function of
the current postings (a POS-tree is a function of its entries), so the
tip commits the same bytes however the postings got there.

Posting lists are encoded sorted and deduplicated, each universal key
length-prefixed; decoding *enforces* the canonical form (strictly
increasing entries, exact consumption) so a non-canonical byte string
can never round-trip silently.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.indexes.inverted import encode_search_value

#: The ledger keyspace of committed postings.
SEARCH_PREFIX = b"s\x00"


def column_prefix(column: str) -> bytes:
    """The ledger-key prefix of ``column``'s postings; ``QueryError``
    for a name holding NUL, which would let one column's keys run into
    another's."""
    if "\x00" in column:
        raise QueryError(f"column name {column!r} holds a NUL byte")
    return SEARCH_PREFIX + column.encode("utf-8") + b"\x00"


def posting_key(column: str, value) -> bytes:
    """The ledger key of ``value``'s posting in ``column``."""
    return column_prefix(column) + encode_search_value(value)


def posting_writes(inverted, columns: Sequence[str]) -> Dict[bytes, bytes]:
    """The ledger writes committing every posting ``inverted`` (an
    :class:`~repro.indexes.inverted.InvertedIndex`) holds for
    ``columns``."""
    return {
        posting_key(column, value): encode_postings(
            inverted.lookup(column, value)
        )
        for column in columns
        for value in inverted.values(column)
    }


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


__all__ = [
    "SEARCH_PREFIX",
    "column_prefix",
    "decode_postings",
    "encode_postings",
    "posting_key",
    "posting_writes",
]
