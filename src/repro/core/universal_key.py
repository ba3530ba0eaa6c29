"""Universal keys.

"The system maps each cell to a universal key consisting of the column
id, primary key, timestamp, and the hash of its value" (Section 5).
The byte encoding below is order-preserving on
``(column, primary key, timestamp)`` so that prefix ranges enumerate a
cell's versions in commit order, and self-delimiting so it can be
decoded back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.schema import prefix_end
from repro.crypto.hashing import Digest

_SEP = b"\x00"
_ESCAPED_SEP = b"\x00\xff"


def _escape(part: bytes) -> bytes:
    """Escape NUL bytes so the separator stays unambiguous."""
    return part.replace(b"\x00", _ESCAPED_SEP)


def _unescape(part: bytes) -> bytes:
    return part.replace(_ESCAPED_SEP, b"\x00")


@dataclass(frozen=True, order=True)
class UniversalKey:
    """Address of one cell version."""

    column: str
    primary_key: bytes
    timestamp: int
    value_hash: Digest

    def encode(self) -> bytes:
        """Order-preserving byte encoding (memoized per instance).

        Layout: ``column \\x00\\x00 pk \\x00\\x00 ts(8B) hash(8B prefix)``
        with NULs inside components escaped.  Two consecutive NULs
        cannot appear inside an escaped component, so the encoding is
        unambiguous.
        """
        cached = self.__dict__.get("_encoded")
        if cached is None:
            cached = (
                _escape(self.column.encode("utf-8"))
                + _SEP + _SEP
                + _escape(self.primary_key)
                + _SEP + _SEP
                + self.timestamp.to_bytes(8, "big")
                + self.value_hash[:8]
            )
            object.__setattr__(self, "_encoded", cached)
        return cached

    @classmethod
    def decode(cls, data: bytes) -> "UniversalKey":
        """Inverse of :meth:`encode` (value hash truncated to 8 bytes
        is restored zero-padded; use only for display/routing)."""
        first = data.index(_SEP + _SEP)
        rest = data[first + 2:]
        # Find the component separator that is not part of an escape.
        second = _find_separator(rest)
        column = _unescape(data[:first]).decode("utf-8")
        primary_key = _unescape(rest[:second])
        tail = rest[second + 2:]
        timestamp = int.from_bytes(tail[:8], "big")
        value_hash = tail[8:16] + b"\x00" * 24
        return cls(column, primary_key, timestamp, value_hash)

    @staticmethod
    def prefix(column: str, primary_key: bytes) -> Tuple[bytes, bytes]:
        """(low, exclusive high) bounds enumerating every version of a
        cell."""
        base = (
            _escape(column.encode("utf-8"))
            + _SEP + _SEP
            + _escape(primary_key)
            + _SEP + _SEP
        )
        return base, prefix_end(base)


def _find_separator(data: bytes) -> int:
    """Index of the first component separator (``\\x00\\x00``) in
    ``data``, skipping escaped NULs (``\\x00\\xff``)."""
    i = 0
    while True:
        i = data.index(_SEP, i)
        if data[i:i + 2] == _SEP + _SEP:
            return i
        i += 2  # skip the escape pair
