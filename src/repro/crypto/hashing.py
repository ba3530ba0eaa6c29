"""Canonical encoding and SHA-256 digests.

All authenticated structures in the library (Merkle trees, the SIRI
index family, ledger blocks) hash *canonically encoded* values so that
logically equal values always produce identical digests.  The encoding
is a small, self-delimiting tagged format — deliberately simpler than a
full serialization framework, but unambiguous: no two distinct values
share an encoding.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Union

#: Values the canonical encoder accepts.
Encodable = Union[
    None, bool, int, float, str, bytes, tuple, list, dict, frozenset
]


class Digest(bytes):
    """A 32-byte SHA-256 digest.

    Subclassing :class:`bytes` keeps digests hashable, comparable and
    directly usable as dict keys while giving them a distinct type for
    readability and a short hex ``repr``.
    """

    __slots__ = ()

    def __new__(cls, data: bytes) -> "Digest":
        if len(data) != 32:
            raise ValueError(f"digest must be 32 bytes, got {len(data)}")
        return super().__new__(cls, data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Digest({self.hex()[:12]}..)"

    @property
    def short(self) -> str:
        """First 12 hex characters, for logs and error messages."""
        return self.hex()[:12]

    @classmethod
    def from_hex(cls, text: str) -> "Digest":
        """Parse a 64-character hex string into a digest."""
        return cls(bytes.fromhex(text))


def hash_bytes(data: bytes) -> Digest:
    """SHA-256 of raw bytes."""
    # SHA-256 always gives 32 bytes: skip the length check of __new__.
    return bytes.__new__(Digest, hashlib.sha256(data).digest())


#: Digest of the empty byte string; used as the root of empty trees.
EMPTY_DIGEST = hash_bytes(b"")


def canonical_encode(value: Encodable) -> bytes:
    """Encode ``value`` into unambiguous, self-delimiting bytes.

    Supported types: ``None``, ``bool``, ``int``, ``float``, ``str``,
    ``bytes`` (and subclasses such as :class:`Digest`), ``tuple``,
    ``list``, ``dict`` (keys sorted by their own encoding) and
    ``frozenset`` (elements sorted by encoding).  Raises
    :class:`TypeError` for anything else.
    """
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def _encode_into(value: Encodable, out: bytearray) -> None:
    # Each case writes a 1-byte tag, then a length-prefixed payload.
    # bool must be checked before int (bool is an int subclass).
    if value is None:
        out += b"N"
    elif isinstance(value, bool):
        out += b"T" if value else b"F"
    elif isinstance(value, int):
        payload = str(value).encode("ascii")
        out += b"I"
        out += len(payload).to_bytes(4, "big")
        out += payload
    elif isinstance(value, float):
        # repr round-trips floats exactly in Python 3.
        payload = repr(value).encode("ascii")
        out += b"D"
        out += len(payload).to_bytes(4, "big")
        out += payload
    elif isinstance(value, str):
        payload = value.encode("utf-8")
        out += b"S"
        out += len(payload).to_bytes(4, "big")
        out += payload
    elif isinstance(value, bytes):
        out += b"B"
        out += len(value).to_bytes(4, "big")
        out += value
    elif isinstance(value, (tuple, list)):
        out += b"L"
        out += len(value).to_bytes(4, "big")
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        encoded = sorted(
            (canonical_encode(k), canonical_encode(v))
            for k, v in value.items()
        )
        out += b"M"
        out += len(encoded).to_bytes(4, "big")
        for key_bytes, value_bytes in encoded:
            out += len(key_bytes).to_bytes(4, "big")
            out += key_bytes
            out += len(value_bytes).to_bytes(4, "big")
            out += value_bytes
    elif isinstance(value, frozenset):
        encoded_items = sorted(canonical_encode(item) for item in value)
        out += b"X"
        out += len(encoded_items).to_bytes(4, "big")
        for item_bytes in encoded_items:
            out += len(item_bytes).to_bytes(4, "big")
            out += item_bytes
    else:
        raise TypeError(
            f"cannot canonically encode value of type {type(value).__name__}"
        )


def hash_value(value: Encodable) -> Digest:
    """SHA-256 of the canonical encoding of ``value``."""
    return hash_bytes(canonical_encode(value))


def hash_many(parts: Iterable[bytes]) -> Digest:
    """SHA-256 over length-prefixed concatenation of ``parts``.

    Length prefixes prevent ambiguity between e.g. ``[b"ab", b"c"]`` and
    ``[b"a", b"bc"]``.
    """
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(4, "big"))
        hasher.update(part)
    return Digest(hasher.digest())
