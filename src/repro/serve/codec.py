"""JSON wire codec for requests, responses, proofs and snapshots.

The HTTP server frames every ``Response`` with it, the HTTP client
decodes back to the same in-process objects (which ``ClientVerifier``
verifies unchanged), and the CLI's ``--json`` outputs go through
:func:`to_jsonable`.

Binary values are *tagged*, ``{"$tag": body}``: ``$bytes`` is base64
and every other tag is one entry of the **frame table** near the end
of this module — a tag, the dataclass it carries and one ``(field,
field codec)`` row per field in frame-key order; the frame key *is*
the field name.  That table is the whole wire format (DESIGN.md §5b).

Decoding is strict everywhere: integers are non-negative ``int`` by
exact type, bytes and digests are strings in their one canonical form
(base64 with no unused bit set, 64 lower-case hex digits), a frame has
exactly its table's keys, a tag has no sibling keys, and whatever is
wrong only :class:`WireCodecError` escapes.  A frame can only build the
dataclasses named here — no pickle at this layer.
"""

from __future__ import annotations

import base64
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.core.ledger import Block, LedgerDigest
from repro.core.proofs import (
    BlockWitness,
    LedgerMultiProof,
    LedgerProof,
    LedgerRangeProof,
)
from repro.core.request_handler import Request, RequestKind, Response
from repro.crypto.hashing import Digest, digest_from_hex
from repro.crypto.merkle import MerkleProof
from repro.errors import SpitzError
from repro.indexes.pos_tree import PosMultiProof, PosRangeProof
from repro.indexes.siri import SiriProof
from repro.core.query import SearchPredicate
from repro.search.proofs import SearchProof
from repro.shard.digest import ShardMembership, ShardedDigest
from repro.shard.proofs import (
    ShardedMultiPart,
    ShardedMultiProof,
    ShardedProof,
)


class WireCodecError(SpitzError):
    """A wire frame could not be encoded or decoded."""


class Field(NamedTuple):
    """How one value crosses the wire: in-memory → JSON and back."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    #: Set by :func:`spliced`: keys read and written in the parent frame.
    inline_keys: frozenset = frozenset()


def _typed(kind: type, what: str) -> Callable[[Any], Any]:
    def check(value: Any) -> Any:
        if type(value) is not kind:
            raise WireCodecError(f"expected {what}, not {value!r:.40}")
        return value

    return check


_text = _typed(str, "a string")
_object = _typed(dict, "an object")
_array = _typed(list, "an array")


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


#: The base64 alphabet: a digit's index is the six bits it carries.
_B64_DIGITS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _unb64(text: Any) -> bytes:
    if type(text) is str:
        try:
            data = base64.b64decode(text, validate=True)
        except ValueError:
            pass
        else:
            # One text per value: "=" or "==" leaves the last digit's
            # low 2 or 4 bits unused, and they must be zero.
            padding = -len(data) % 3
            if not padding or not (
                _B64_DIGITS.index(text[-1 - padding]) & ((1 << 2 * padding) - 1)
            ):
                return data
    raise WireCodecError(f"expected base64 text, not {text!r:.40}")


def _digest(text: Any) -> Digest:
    try:
        return digest_from_hex(_text(text))
    except ValueError as error:
        raise WireCodecError(f"invalid digest: {error}") from None


def _uint(value: Any) -> int:
    if type(value) is not int or value < 0:
        raise WireCodecError(f"expected an int >= 0, not {value!r:.40}")
    return value


BYTES = Field(_b64, _unb64)
DIGEST = Field(bytes.hex, _digest)
UINT = Field(int, _uint)
BOOL = Field(bool, _typed(bool, "a boolean"))
TEXT = Field(str, _text)
PREDICATE = Field(SearchPredicate.to_payload, SearchPredicate.from_payload)


def optional(field: Field) -> Field:
    encode, decode = field.encode, field.decode
    return Field(
        lambda value: None if value is None else encode(value),
        lambda frame: None if frame is None else decode(frame),
    )


def tuple_of(field: Field) -> Field:
    """A JSON list ⇄ a tuple of ``field`` values."""
    encode, decode = field.encode, field.decode
    return Field(
        lambda values: [encode(value) for value in values],
        lambda frame: tuple(map(decode, _array(frame))),
    )


def pair(first: Field, second: Field) -> Field:
    """A two-element JSON list ⇄ a 2-tuple."""

    def encode(value: Tuple[Any, Any]) -> list:
        return [first.encode(value[0]), second.encode(value[1])]

    def decode(frame: Any) -> Tuple[Any, Any]:
        if type(frame) is not list or len(frame) != 2:
            raise WireCodecError("expected a two-element array")
        return first.decode(frame[0]), second.decode(frame[1])

    return Field(encode, decode)


def spliced(struct: "Struct") -> Field:
    """A struct-valued row whose keys sit directly in the parent frame
    (``$range_proof`` is the range evidence's keys beside ``block``)."""
    keys = struct.keys
    return Field(
        struct.encode,
        lambda frame: struct.decode({key: frame[key] for key in keys}),
        keys,
    )


class Struct:
    """The codec of one dataclass: a JSON object with exactly the rows'
    keys ⇄ ``cls(**fields)``; a field codec's objection, or ``cls``'s
    own, is re-raised naming the field.  Usable as a :class:`Field`."""

    inline_keys: frozenset = frozenset()

    def __init__(self, cls: type, *rows: Tuple[str, Any]):
        self.cls = cls
        self._rows = [
            (name, field.encode, field.decode, bool(field.inline_keys))
            for name, field in rows
        ]
        self.keys = frozenset().union(
            *(field.inline_keys or (name,) for name, field in rows)
        )

    def encode(self, value: Any) -> Dict[str, Any]:
        frame: Dict[str, Any] = {}
        for name, encode, _decode, inline in self._rows:
            if inline:
                frame.update(encode(getattr(value, name)))
            else:
                frame[name] = encode(getattr(value, name))
        return frame

    def decode(self, frame: Any) -> Any:
        if _object(frame).keys() != self.keys:
            raise WireCodecError(
                f"{self.cls.__name__} frame keys must be {sorted(self.keys)}"
            )
        name, fields = None, {}
        try:
            for name, _encode, decode, inline in self._rows:
                fields[name] = decode(frame if inline else frame[name])
            return self.cls(**fields)
        except (SpitzError, TypeError, ValueError) as error:
            where = f"{self.cls.__name__}.{name}"
            raise WireCodecError(f"{where}: {error}") from None


_DECODE_TAG: Dict[str, Callable[[Any], Any]] = {"$bytes": _unb64}
_ENCODE_TYPE: Dict[type, Tuple[Optional[str], Callable[[Any], Any]]] = {}


def tagged(tag: str, cls: type, *rows: Tuple[str, Any]) -> Struct:
    """One frame-table entry: ``{tag: {rows...}}`` ⇄ ``cls``."""
    entry = Struct(cls, *rows)
    _DECODE_TAG[tag] = entry.decode
    _ENCODE_TYPE[cls] = (tag, entry.encode)
    return entry


def _refuse(value: Any) -> Any:
    raise WireCodecError(f"cannot encode {type(value).__name__} for the wire")


def _encode(value: Any, other: Callable[[Any], Any]) -> Any:
    """The one value walker; ``other`` decides what becomes of a value
    (or a dict key) the wire has no shape for."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    framed = _ENCODE_TYPE.get(type(value))
    if framed is not None:
        tag, encode = framed
        return {tag: encode(value)} if tag else encode(value)
    if isinstance(value, (bytes, bytearray)):
        return {"$bytes": _b64(bytes(value))}
    if isinstance(value, (list, tuple)):
        return [_encode(item, other) for item in value]
    if isinstance(value, dict):
        return {
            key if isinstance(key, str) else other(key): _encode(item, other)
            for key, item in value.items()
        }
    return other(value)


def encode_value(value: Any) -> Any:
    """Encode one payload/result value into JSON-safe form (strict:
    raises :class:`WireCodecError` on types the wire cannot carry)."""
    return _encode(value, _refuse)


def to_jsonable(value: Any) -> Any:
    """:func:`encode_value` for snapshot/report dicts: anything exotic
    (non-string dict keys included) degrades to ``repr`` instead of
    raising — a stats surface must never fail to serialize."""
    return _encode(value, repr)


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value` (lists stay lists)."""
    if isinstance(value, dict):
        for tag in value:
            decode = _DECODE_TAG.get(tag)
            if decode is not None:
                if len(value) != 1:
                    raise WireCodecError(f"{tag} frame has sibling keys")
                return decode(value[tag])
        return {key: decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


# -- the frame table --

BLOBS = tuple_of(BYTES)
LEDGER_DIGEST = tagged(
    "$ledger_digest", LedgerDigest,
    ("height", UINT), ("chain_digest", DIGEST), ("tree_root", DIGEST),
)
BLOCK = Struct(
    BlockWitness, ("height", UINT), ("previous_chain_digest", DIGEST),
    ("tree_root", DIGEST), ("writes_digest", DIGEST),
    ("statements_digest", DIGEST), ("chain_digest", DIGEST),
)
# Evidence under a root: a point path, a multi-key node set, a range.
POINT = Struct(
    SiriProof, ("key", BYTES), ("value", optional(BYTES)), ("nodes", BLOBS),
)
MULTI = Struct(
    PosMultiProof, ("entries", tuple_of(pair(BYTES, optional(BYTES)))),
    ("nodes", BLOBS), ("root", DIGEST),
)
RANGE = Struct(
    PosRangeProof, ("low", BYTES), ("high", BYTES),
    ("entries", tuple_of(pair(BYTES, BYTES))),
    ("nodes", BLOBS), ("root", DIGEST),
)
# Evidence anchored in a block.
PROOF = tagged("$proof", LedgerProof, ("siri", POINT), ("block", BLOCK))
RANGE_PROOF = tagged(
    "$range_proof", LedgerRangeProof,
    ("range_proof", spliced(RANGE)), ("block", BLOCK),
)
MULTI_PROOF = tagged(
    "$multi_proof", LedgerMultiProof,
    ("multi", spliced(MULTI)), ("block", BLOCK),
)
tagged(
    "$search_proof", SearchProof,
    ("column", TEXT), ("predicate", PREDICATE),
    ("matches", tuple_of(pair(BYTES, BLOBS))), ("evidence", RANGE_PROOF),
)
# A block-anchored proof anchored again in one shard of the fleet.
SHARDED_DIGEST = tagged(
    "$sharded_digest", ShardedDigest,
    ("num_shards", UINT), ("height", UINT), ("root", DIGEST),
)
BRANCH = Struct(
    MerkleProof, ("leaf_index", UINT), ("tree_size", UINT),
    ("path", tuple_of(pair(DIGEST, BOOL))),
)
MEMBERSHIP = Struct(
    ShardMembership, ("shard_id", UINT), ("shard_digest", LEDGER_DIGEST),
    ("proof", spliced(BRANCH)),
)
tagged(
    "$sharded_proof", ShardedProof,
    ("inner", PROOF), ("membership", MEMBERSHIP), ("digest", SHARDED_DIGEST),
)
PART = Struct(
    ShardedMultiPart, ("membership", MEMBERSHIP), ("multi", MULTI_PROOF),
)
tagged(
    "$sharded_multi_proof", ShardedMultiProof,
    ("keys", BLOBS), ("parts", tuple_of(PART)), ("digest", SHARDED_DIGEST),
)
# SQL writes return the sealed Block; clients only need the commit
# receipt, so it ships as a plain untagged summary (decodes as a dict).
_ENCODE_TYPE[Block] = (None, Struct(
    Block, ("height", UINT), ("chain_digest", BYTES), ("write_count", UINT),
).encode)


def encode_request(request: Request) -> Dict[str, Any]:
    return {
        "kind": request.kind.value,
        "verify": bool(request.verify),
        "payload": encode_value(dict(request.payload)),
    }


def decode_request(frame: Any) -> Request:
    try:
        kind = RequestKind(_object(frame)["kind"])
    except (KeyError, ValueError):
        raise WireCodecError(
            f"unknown request kind {frame.get('kind')!r}"
        ) from None
    return Request(
        kind=kind,
        payload=decode_value(_object(frame.get("payload", {}))),
        verify=bool(frame.get("verify", False)),
    )


def encode_response(response: Response) -> Dict[str, Any]:
    return {
        "ok": response.ok,
        "result": encode_value(response.result),
        "proof": encode_value(response.proof),
        "digest": encode_value(response.digest),
        "error": response.error,
        "retryable": bool(response.retryable),
    }


def decode_response(frame: Any) -> Response:
    digest = decode_value(_object(frame).get("digest"))
    if not isinstance(digest, (LedgerDigest, ShardedDigest, type(None))):
        raise WireCodecError("response digest frame is not a digest")
    return Response(
        ok=bool(frame.get("ok", False)),
        result=decode_value(frame.get("result")),
        proof=decode_value(frame.get("proof")),
        digest=digest,
        error=frame.get("error"),
        retryable=bool(frame.get("retryable", False)),
    )


__all__ = [
    "WireCodecError", "decode_request", "decode_response", "decode_value",
    "encode_request", "encode_response", "encode_value", "tagged",
    "to_jsonable",
]
