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
import struct
from typing import Iterable, Union

#: Values the canonical encoder accepts.
Encodable = Union[int, str, bytes, tuple]


#: A 32-byte SHA-256 digest.  Plain :class:`bytes`, as ``hashlib``
#: returns it: an instance of a ``bytes`` subclass carries a GC header
#: and is tracked by the cyclic collector, and so is every tuple that
#: holds one (DESIGN.md §5 item 10).
Digest = bytes


def hash_bytes(data: bytes) -> Digest:
    """SHA-256 of raw bytes."""
    return hashlib.sha256(data).digest()


def short(digest: Digest) -> str:
    """First 12 hex characters of ``digest``, for logs and messages."""
    return digest.hex()[:12]


def digest_from_hex(text: str) -> Digest:
    """The digest whose canonical text is ``text``: exactly 64
    lower-case hex digits, else :class:`ValueError`."""
    digest = bytes.fromhex(text)
    if len(digest) != 32 or digest.hex() != text:
        raise ValueError(f"not 64 lower-case hex digits: {text!r:.72}")
    return digest


#: A part's length in :func:`hash_many`.
_LENGTH = struct.Struct(">I")

#: Digest of the empty byte string; used as the root of empty trees.
EMPTY_DIGEST = hash_bytes(b"")


def canonical_encode(value: Encodable) -> bytes:
    """Encode ``value`` into unambiguous, self-delimiting bytes.

    Supported types: ``int``, ``str``, ``bytes`` and ``tuple`` (of
    these, nested).  Raises :class:`TypeError` for anything else, a
    ``bool`` included, so that ``True`` never hashes as ``1``.
    """
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def _encode_into(value: Encodable, out: bytearray) -> None:
    # A 1-byte tag and a 4-byte length: a tuple's item count, then its
    # items; otherwise the payload's byte count, then the payload.
    if isinstance(value, tuple):
        out += b"L" + len(value).to_bytes(4, "big")
        for item in value:
            _encode_into(item, out)
        return
    if isinstance(value, bytes):
        tag, payload = b"B", value
    elif isinstance(value, str):
        tag, payload = b"S", value.encode("utf-8")
    elif isinstance(value, int) and not isinstance(value, bool):
        tag, payload = b"I", str(value).encode("ascii")
    else:
        raise TypeError(
            f"cannot canonically encode value of type {type(value).__name__}"
        )
    out += tag + len(payload).to_bytes(4, "big") + payload


def hash_value(value: Encodable) -> Digest:
    """SHA-256 of the canonical encoding of ``value``."""
    return hash_bytes(canonical_encode(value))


def hash_many(parts: Iterable[bytes]) -> Digest:
    """SHA-256 over length-prefixed concatenation of ``parts``: one
    :func:`hash_bytes` over ``len(part)`` (u32) ``‖ part`` for each.

    Length prefixes prevent ambiguity between e.g. ``[b"ab", b"c"]`` and
    ``[b"a", b"bc"]``.
    """
    stream = bytearray()
    for part in parts:
        stream += _LENGTH.pack(len(part))
        stream += part
    return hash_bytes(stream)
