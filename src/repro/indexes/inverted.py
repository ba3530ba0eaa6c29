"""Inverted index over cell values, and the values it posts.

Section 5 (*Inverted Index*): "the system uses an inverted index to
quickly locate the rows ... the value recorded in each cell as index
key and the universal key of the corresponding cell as value.  For
numeric type, the system uses a skip list to better support range
query, whereas for string type, it uses a radix tree to reduce space
consumption."

This module implements exactly that dispatch: one posting structure
per column, chosen by value type.  A *posting* is the set of universal
keys whose cells carry the indexed value.  :func:`postable` is the one
rule for which values get posted — the write path, the SQL planner and
search validation all ask it — and :meth:`InvertedIndex.matching` is
the one walk that answers a predicate over the postings.

Canonical-ordering and aliasing guarantees (the ledger commits these
postings as keys, so both matter):

- every query method returns a **fresh list** in a **deterministic
  order** — ascending value order, then ascending universal-key order
  within one value.  Mutating a returned list can never corrupt the
  index (the internal posting sets are never handed out).
- values are checked with :func:`postable` on **every** ``add``, and
  ``remove`` with a value that cannot have been posted is a no-op.

Value encoding (a committed posting's ledger key ends in it, and a
range predicate's scan bounds are made of it):

- numeric (a 64-bit int, or a float that is not NaN; never bool): tag
  ``n``, then 8 bytes of the IEEE-754 big-endian bit pattern of the
  largest float not above the value, with the usual order-preserving
  transform (flip all bits when negative, else set the sign bit), then
  the exact remainder ``value - that float`` as 2 bytes.  A float's
  remainder is 0; a 64-bit int's is below the float spacing at 2⁶³,
  2¹¹.  Equal ints and floats encode identically, and every encoding
  decodes to its exact value.
- string: tag ``s`` + UTF-8 bytes (byte order equals code-point
  order, which equals Python ``str`` comparison order).
"""

from __future__ import annotations

import math
import struct
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import QueryError
from repro.indexes.radix import RadixTree
from repro.indexes.skiplist import SkipList


#: The ints a typed column holds and the index posts: 64-bit signed.
INT_MIN, INT_MAX = -(2**63), 2**63 - 1


def postable(value: Any) -> bool:
    """Whether ``value`` is posted in the inverted index (and so can be
    committed and searched): a 64-bit int, a float or a str — never a
    bool, and never NaN, which has no total order."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return False
    if isinstance(value, int):
        return INT_MIN <= value <= INT_MAX
    return value == value  # NaN is the one value unequal to itself


def _unpostable(value: Any) -> QueryError:
    return QueryError(
        f"cannot post {value!r}: only 64-bit int, float (not NaN) and "
        "str values are indexed"
    )


_NUMERIC_TAG = b"n"
_STRING_TAG = b"s"
_REMAINDER_BYTES = 2

#: Scan bounds bracketing every possible encoded value of one type.
#: Numeric encodings are exactly 11 bytes, so ``n`` + 10×0xff is an
#: inclusive upper bound; strings are unbounded in length, so the
#: upper bound is the next tag byte (``t`` > ``s`` + any suffix).
NUMERIC_MIN = _NUMERIC_TAG + b"\x00" * (8 + _REMAINDER_BYTES)
NUMERIC_MAX = _NUMERIC_TAG + b"\xff" * (8 + _REMAINDER_BYTES)
STRING_MIN = _STRING_TAG
STRING_MAX = b"t"

_SIGN = 0x8000_0000_0000_0000
_ALL = 0xFFFF_FFFF_FFFF_FFFF


def _floor_float(value) -> float:
    """The largest float not above ``value`` (exact comparison)."""
    number = float(value)
    if number > value:
        number = math.nextafter(number, -math.inf)
    return 0.0 if number == 0.0 else number  # one encoding for ±0.0


def encode_search_value(value) -> bytes:
    """Canonical order-preserving encoding of one postable value."""
    if not postable(value):
        raise _unpostable(value)
    if isinstance(value, str):
        return _STRING_TAG + value.encode("utf-8")
    number = _floor_float(value)
    remainder = 0 if isinstance(value, float) else value - int(number)
    bits = struct.unpack(">Q", struct.pack(">d", number))[0]
    bits = bits ^ _ALL if bits & _SIGN else bits | _SIGN
    return (
        _NUMERIC_TAG + struct.pack(">Q", bits)
        + remainder.to_bytes(_REMAINDER_BYTES, "big")
    )


def decode_search_value(data: bytes):
    """Inverse of :func:`encode_search_value`: a string, the float, or
    the exact int no float holds.  ``ValueError`` on anything
    :func:`encode_search_value` does not produce."""
    if not data:
        raise ValueError("empty encoded search value")
    tag, body = data[:1], data[1:]
    if tag == _STRING_TAG:
        return body.decode("utf-8")
    if tag != _NUMERIC_TAG:
        raise ValueError(f"unknown search value tag {tag!r}")
    if len(body) != 8 + _REMAINDER_BYTES:
        raise ValueError("numeric search value must be 11 bytes")
    bits = struct.unpack(">Q", body[:8])[0]
    bits = bits & ~_SIGN if bits & _SIGN else bits ^ _ALL
    number = struct.unpack(">d", struct.pack(">Q", bits))[0]
    remainder = int.from_bytes(body[8:], "big")
    if number != number or (remainder and not number.is_integer()):
        raise ValueError("encoded numeric is not a number")
    value = int(number) + remainder if remainder else number
    if not postable(value) or encode_search_value(value) != data:
        raise ValueError("encoded numeric is not canonical")
    return value
Entries = Iterable[Tuple[Any, Set[bytes]]]


class _NumericPostings:
    """Skip-list-backed postings for numeric values."""

    def __init__(self) -> None:
        self._list = SkipList()

    def get(self, value: float) -> Optional[Set[bytes]]:
        return self._list.get_optional(value)

    def insert(self, value: float, posting: Set[bytes]) -> None:
        self._list.insert(value, posting)

    def delete(self, value: float) -> None:
        self._list.delete(value)

    def __len__(self) -> int:
        return len(self._list)

    def walk(self, low: Optional[float], high: Optional[float]) -> Entries:
        return self._list.range(low, high)


class _StringPostings:
    """Radix-tree-backed postings for string values."""

    def __init__(self) -> None:
        self._tree = RadixTree()

    def get(self, value: str) -> Optional[Set[bytes]]:
        return self._tree.get_optional(value.encode("utf-8"))

    def insert(self, value: str, posting: Set[bytes]) -> None:
        self._tree.insert(value.encode("utf-8"), posting)

    def delete(self, value: str) -> None:
        self._tree.delete(value.encode("utf-8"))

    def __len__(self) -> int:
        return len(self._tree)

    def walk(self, low: Optional[str], high: Optional[str]) -> Entries:
        for key, posting in self._tree.items():
            value = key.decode("utf-8")
            if high is not None and value > high:
                return
            if low is None or value >= low:
                yield value, posting


def _holds(postings, value: Any) -> bool:
    """Whether ``postings`` can hold ``value`` at all."""
    return postable(value) and (
        isinstance(value, str) == isinstance(postings, _StringPostings)
    )


class InvertedIndex:
    """Per-column value → universal-key postings.

    The posting structure is chosen by the first value indexed for a
    column: int/float → skip list, str → radix tree.  Mixing types in
    one column raises :class:`~repro.errors.QueryError`, mirroring a
    typed schema.
    """

    def __init__(self) -> None:
        self._columns: Dict[str, object] = {}

    def holds(self, column: str, value: Any) -> bool:
        """Whether :meth:`add` can post ``value`` in ``column``: it is
        postable, and of the kind (string or number) the column's
        postings hold, if it has any."""
        postings = self._columns.get(column)
        if postings is None:
            return postable(value)
        return _holds(postings, value)

    def add(self, column: str, value: Any, ukey: bytes) -> None:
        """Index ``ukey`` under ``value`` in ``column``'s postings."""
        if not postable(value):
            raise _unpostable(value)
        postings = self._columns.get(column)
        if postings is None:
            postings = (
                _StringPostings()
                if isinstance(value, str)
                else _NumericPostings()
            )
            self._columns[column] = postings
        elif not _holds(postings, value):
            raise QueryError(
                f"column {column!r} mixes string and numeric values"
            )
        posting = postings.get(value)
        if posting is None:
            postings.insert(value, {ukey})
        else:
            posting.add(ukey)

    def remove(self, column: str, value: Any, ukey: bytes) -> None:
        """Drop one posting (no-op if absent).

        A value the column's postings cannot hold is also a no-op: it
        can never have been indexed, so there is nothing to remove.
        """
        postings = self._columns.get(column)
        if postings is None or not _holds(postings, value):
            return
        posting = postings.get(value)
        if posting is None:
            return
        posting.discard(ukey)
        if not posting:
            postings.delete(value)
            if not len(postings):
                # An emptied column holds no kind: which kind it takes
                # next follows the live values alone, as after a reload.
                del self._columns[column]

    def lookup(self, column: str, value: Any) -> List[bytes]:
        """Universal keys posted under exactly ``value`` in ``column``
        (a sealing block re-reads each touched posting here)."""
        postings = self._columns.get(column)
        if postings is None or not _holds(postings, value):
            return []
        return sorted(postings.get(value) or ())

    def matching(self, column: str, predicate) -> List[bytes]:
        """Universal keys whose ``column`` value satisfies ``predicate``
        (a :class:`~repro.core.query.SearchPredicate`), in value order.

        One ordered walk over the predicate's span: an equality reads
        its one posting, an open end walks to the end of the postings,
        and a strict bound is cut by ``predicate.matches``.  An operand
        the column's postings cannot hold matches nothing.
        """
        postings = self._columns.get(column)
        if postings is None or not all(
            _holds(postings, operand) for operand in predicate.operands
        ):
            return []
        low, high = predicate.span()
        if predicate.op == "eq":
            posting = postings.get(low)
            entries: Entries = [(low, posting)] if posting else []
        else:
            entries = postings.walk(low, high)
        return [
            ukey
            for value, posting in entries
            if predicate.matches(value)
            for ukey in sorted(posting)
        ]

    def values(self, column: str) -> Iterator[Any]:
        """Distinct indexed values of ``column``, in ascending order
        (enabling search commits each one's :meth:`lookup`)."""
        postings = self._columns.get(column)
        if postings is None:
            return iter(())
        return (value for value, _posting in postings.walk(None, None))

    def columns(self) -> List[str]:
        return sorted(self._columns)
