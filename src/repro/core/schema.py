"""Table schemas and the typed value codec.

Spitz "supports both SQL and a self-defined JSON schema" (Section 5.1).
A table schema names typed columns and a primary key; rows are
decomposed into one cell per column (the virtual cell store model),
each addressed by a universal key and recorded in the ledger under a
stable *logical key* ``t\\x00table\\x00column\\x00pk``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.indexes.inverted import INT_MAX, INT_MIN

#: Supported column types.
COLUMN_TYPES = ("int", "float", "str", "bool", "bytes", "json")

#: Logical-key namespaces (keep KV, table and document keys disjoint).
KV_PREFIX = b"k\x00"
TABLE_PREFIX = b"t\x00"
DOC_PREFIX = b"d\x00"

#: Implicit per-row presence column (1 = live, deletes remove the
#: ledger entries; history stays in older block instances).
ROW_COLUMN = "_row"


def encode_document(document: Dict[str, Any]) -> bytes:
    """A JSON document's stored bytes (canonical: sorted keys, no
    spaces), the value of its ``DOC_PREFIX`` key."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def decode_document(data: Optional[bytes]) -> Optional[Dict[str, Any]]:
    """Inverse of :func:`encode_document` (None, no document, for
    None)."""
    return None if data is None else json.loads(data.decode("utf-8"))


@dataclass(frozen=True)
class Column:
    """One typed column."""

    name: str
    type: str

    def __post_init__(self) -> None:
        if self.type not in COLUMN_TYPES:
            raise SchemaError(
                f"unknown column type {self.type!r}; "
                f"expected one of {COLUMN_TYPES}"
            )
        if not self.name or self.name.startswith("_"):
            raise SchemaError(
                f"invalid column name {self.name!r} "
                "(must be non-empty and not start with '_')"
            )


@dataclass(frozen=True)
class TableSchema:
    """A table: named, typed columns plus a primary key column."""

    name: str
    columns: Tuple[Column, ...]
    primary_key: str

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column in table {self.name!r}")
        if self.primary_key not in names:
            raise SchemaError(
                f"primary key {self.primary_key!r} is not a column of "
                f"table {self.name!r}"
            )

    @classmethod
    def make(
        cls,
        name: str,
        columns: Sequence[Tuple[str, str]],
        primary_key: str,
    ) -> "TableSchema":
        return cls(
            name=name,
            columns=tuple(Column(n, t) for n, t in columns),
            primary_key=primary_key,
        )

    def column(self, name: str) -> Column:
        for column in self.columns:
            if column.name == name:
                return column
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    # -- row handling ------------------------------------------------------

    def validate_row(self, row: Dict[str, Any]) -> None:
        """Type-check a full row dict against the schema."""
        for column in self.columns:
            if column.name not in row:
                raise SchemaError(
                    f"row is missing column {column.name!r} of table "
                    f"{self.name!r}"
                )
            check_type(column, row[column.name])
        extras = set(row) - set(self.column_names())
        if extras:
            raise SchemaError(
                f"row has unknown columns {sorted(extras)} for table "
                f"{self.name!r}"
            )

    def pk_bytes(self, row_or_value: Any) -> bytes:
        """Encode a primary-key value into sortable bytes."""
        value = (
            row_or_value[self.primary_key]
            if isinstance(row_or_value, dict)
            else row_or_value
        )
        column = self.column(self.primary_key)
        check_type(column, value)
        return encode_pk(column.type, value)

    def cell_column(self, column_name: str) -> str:
        """Cell-store column id for one of this table's columns."""
        return f"{self.name}.{column_name}"

    def logical_key(self, column_name: str, pk: bytes) -> bytes:
        """Ledger key for (this table, column, primary key)."""
        return (
            TABLE_PREFIX
            + self.name.encode("utf-8")
            + b"\x00"
            + column_name.encode("utf-8")
            + b"\x00"
            + pk
        )

    def logical_prefix(self, column_name: str) -> Tuple[bytes, bytes]:
        """(low, exclusive high) ledger-key bounds covering one column."""
        base = self.logical_key(column_name, b"")
        return base, prefix_end(base)


def prefix_end(prefix: bytes) -> bytes:
    """The least key above every key that starts with ``prefix``: the
    exact, exclusive upper bound of a prefix scan."""
    stem = prefix.rstrip(b"\xff")
    if not stem:
        raise ValueError("a prefix of 0xff bytes has no upper bound")
    return stem[:-1] + bytes([stem[-1] + 1])


def check_type(column: Column, value: Any) -> None:
    """Raise :class:`SchemaError` unless ``value`` fits ``column``; an
    ``int`` column holds 64-bit signed ints."""
    expected = {
        "int": int,
        "float": (int, float),
        "str": str,
        "bool": bool,
        "bytes": bytes,
        "json": (dict, list),
    }[column.type]
    if column.type in ("int", "float") and isinstance(value, bool):
        raise SchemaError(f"column {column.name!r}: bool is not {column.type}")
    if not isinstance(value, expected):
        raise SchemaError(
            f"column {column.name!r} expects {column.type}, got "
            f"{type(value).__name__}"
        )
    if column.type == "int" and not INT_MIN <= value <= INT_MAX:
        raise SchemaError(
            f"column {column.name!r}: an int outside the 64-bit range "
            "[-2**63, 2**63 - 1]"
        )


def encode_value(type_name: str, value: Any) -> bytes:
    """Serialize a typed value for cell storage / the ledger."""
    if type_name == "int":
        return b"i" + str(value).encode("ascii")
    if type_name == "float":
        return b"f" + repr(float(value)).encode("ascii")
    if type_name == "str":
        return b"s" + value.encode("utf-8")
    if type_name == "bool":
        return b"b1" if value else b"b0"
    if type_name == "bytes":
        return b"y" + value
    if type_name == "json":
        return b"j" + json.dumps(
            value, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    raise SchemaError(f"unknown type {type_name!r}")


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value` (self-describing tag byte)."""
    tag, payload = data[:1], data[1:]
    if tag == b"i":
        return int(payload)
    if tag == b"f":
        return float(payload)
    if tag == b"s":
        return payload.decode("utf-8")
    if tag == b"b":
        return payload == b"1"
    if tag == b"y":
        return payload
    if tag == b"j":
        return json.loads(payload.decode("utf-8"))
    raise SchemaError(f"cannot decode value with tag {tag!r}")


def encode_pk(type_name: str, value: Any) -> bytes:
    """Order-preserving primary-key encoding.

    Integers are offset-shifted into unsigned 8-byte big-endian so
    byte order equals numeric order (range scans over the B+-tree and
    the ledger rely on this).
    """
    if type_name == "int":
        return (value + 2**63).to_bytes(8, "big")
    if type_name == "str":
        return value.encode("utf-8")
    if type_name == "bytes":
        return value
    raise SchemaError(
        f"type {type_name!r} cannot be a primary key "
        "(use int, str or bytes)"
    )


def decode_pk(type_name: str, data: bytes) -> Any:
    if type_name == "int":
        return int.from_bytes(data, "big") - 2**63
    if type_name == "str":
        return data.decode("utf-8")
    if type_name == "bytes":
        return data
    raise SchemaError(f"type {type_name!r} cannot be a primary key")
