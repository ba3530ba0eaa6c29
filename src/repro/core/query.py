"""The one predicate, and the planner.

Section 5.1's read path: key lookups go through the B+-tree, value
predicates through the inverted index.  One :class:`SearchPredicate`
serves every reader — SQL's WHERE clause as ``(column, predicate)``
pairs, ``SpitzDatabase.search``/``search_verified`` and
``Collection.find`` — and :meth:`~repro.indexes.inverted.InvertedIndex
.matching` is the one walk of the postings that answers it.  SQL
re-filters every loaded row by every predicate, so the access path
the planner picks only narrows which rows get loaded, never the
answer.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.errors import QueryError
from repro.indexes.inverted import (
    NUMERIC_MAX,
    NUMERIC_MIN,
    STRING_MAX,
    STRING_MIN,
    encode_search_value,
    postable,
)

_COMPARE = {
    "eq": operator.eq,
    "ne": operator.ne,
    "ge": operator.ge,
    "gt": operator.gt,
    "le": operator.le,
    "lt": operator.lt,
}
_OPS = tuple(_COMPARE) + ("between",)
_RANGE_OPS = ("ge", "gt", "le", "lt", "between")
_SYMBOLS = {
    "eq": "==", "ne": "!=", "ge": ">=", "gt": ">", "le": "<=", "lt": "<",
}
_OP_TOKENS = (
    ("==", "eq"),
    (">=", "ge"),
    ("<=", "le"),
    (">", "gt"),
    ("<", "lt"),
    ("=", "eq"),
)


def _kind(value: Any) -> type:
    """Values of one kind compare with each other; a bool is not a
    number."""
    if isinstance(value, bool):
        return bool
    if isinstance(value, (int, float)):
        return float
    return type(value)


@dataclass(frozen=True)
class SearchPredicate:
    """One predicate over a column's values.

    ``op`` is one of ``eq``/``ne``/``ge``/``gt``/``le``/``lt``/
    ``between``.  Single-operand forms use ``value``; ``between``
    (inclusive both ends) uses ``low``/``high``.  ``ne`` filters SQL
    rows only: no index walk or proof answers it, so :meth:`searchable`
    refuses it.
    """

    op: str
    value: Any = None
    low: Any = None
    high: Any = None

    def __post_init__(self):
        if self.op not in _OPS:
            raise QueryError(f"unknown predicate op {self.op!r}")
        if self.op == "between":
            if self.value is not None:
                raise QueryError("between takes low/high, not value")
        elif self.low is not None or self.high is not None:
            raise QueryError(f"{self.op} takes value, not low/high")

    # -- construction ---------------------------------------------------

    @classmethod
    def eq(cls, value) -> "SearchPredicate":
        return cls("eq", value=value)

    @classmethod
    def ne(cls, value) -> "SearchPredicate":
        return cls("ne", value=value)

    @classmethod
    def ge(cls, value) -> "SearchPredicate":
        return cls("ge", value=value)

    @classmethod
    def gt(cls, value) -> "SearchPredicate":
        return cls("gt", value=value)

    @classmethod
    def le(cls, value) -> "SearchPredicate":
        return cls("le", value=value)

    @classmethod
    def lt(cls, value) -> "SearchPredicate":
        return cls("lt", value=value)

    @classmethod
    def between(cls, low, high) -> "SearchPredicate":
        return cls("between", low=low, high=high)

    @classmethod
    def parse(cls, text: str) -> "SearchPredicate":
        """Parse the CLI grammar: ``= foo`` (or ``== foo``), ``>= 10``,
        ``< 2.5``, ``between 3 7``, or a bare literal (equality).
        Quote a literal (``'10'``) to force a string."""
        stripped = text.strip()
        if not stripped:
            raise QueryError("empty predicate")
        if stripped.lower().startswith("between"):
            tokens = stripped[len("between"):].split()
            if len(tokens) != 2:
                raise QueryError(
                    "between needs exactly two operands: 'between LOW HIGH'"
                )
            low, high = map(_literal, tokens)
            return cls.between(low, high).searchable()
        for token, op in _OP_TOKENS:
            if stripped.startswith(token):
                operand = stripped[len(token):].strip()
                if not operand:
                    raise QueryError(f"missing operand after {token!r}")
                return cls(op, value=_literal(operand)).searchable()
        return cls.eq(_literal(stripped)).searchable()

    def searchable(self) -> "SearchPredicate":
        """This predicate, if an index walk and a search proof can
        answer it: not ``ne``, every operand postable, and ``between``
        bounds of one kind and in order.  Outside input is checked here
        — at :meth:`parse`, :meth:`from_payload` and the database's two
        search entry points."""
        if self.op == "ne":
            raise QueryError("search answers eq, ge, gt, le, lt and between")
        for operand in self.operands:
            if not postable(operand):
                raise QueryError(
                    f"predicate operand {operand!r} is not searchable "
                    "(int, float or str required)"
                )
        if self.op == "between":
            if _kind(self.low) is not _kind(self.high):
                raise QueryError("between bounds mix string and numeric")
            if self.low > self.high:
                raise QueryError("between bounds are inverted")
        return self

    # -- semantics ------------------------------------------------------

    @property
    def operands(self) -> Tuple[Any, ...]:
        if self.op == "between":
            return self.low, self.high
        return (self.value,)

    def matches(self, candidate) -> bool:
        """Whether ``candidate`` satisfies this predicate.  A candidate
        of another kind than the operands never equals them, so only
        ``ne`` accepts it."""
        if _kind(candidate) is not _kind(self.operands[0]):
            return self.op == "ne"
        if self.op == "between":
            return self.low <= candidate <= self.high
        return _COMPARE[self.op](candidate, self.value)

    def span(self) -> Tuple[Any, Any]:
        """The inclusive ``(low, high)`` a walk in value order covers,
        ``None`` for an open end; :meth:`matches` cuts strict ends."""
        if self.op == "between":
            return self.low, self.high
        if self.op == "eq":
            return self.value, self.value
        if self.op in ("ge", "gt"):
            return self.value, None
        if self.op in ("le", "lt"):
            return None, self.value
        return None, None

    def bounds(self) -> Tuple[bytes, bytes]:
        """Canonical encoded, inclusive scan bounds of :meth:`span`: an
        ``eq`` is the one-value range ``[k, k]``, an open end the first
        or last encoding of the operand's kind.

        Strict bounds (``gt``/``lt``) scan *inclusively* from/to the
        operand's encoding — the boundary value's entry rides along in
        the proof as the omission-detecting neighbor, and both server
        and verifier re-exclude it via :meth:`matches`.
        """
        if self.op == "ne":
            raise QueryError("ne predicates have no scan bounds")
        if isinstance(self.operands[0], str):
            floor, ceiling = STRING_MIN, STRING_MAX
        else:
            floor, ceiling = NUMERIC_MIN, NUMERIC_MAX
        low, high = self.span()
        return (
            floor if low is None else encode_search_value(low),
            ceiling if high is None else encode_search_value(high),
        )

    def describe(self) -> str:
        if self.op == "between":
            return f"between {self.low!r} {self.high!r}"
        return f"{_SYMBOLS[self.op]} {self.value!r}"

    def to_payload(self) -> dict:
        """Wire shape (plain JSON scalars)."""
        payload: dict = {"op": self.op}
        if self.op == "between":
            payload["low"] = self.low
            payload["high"] = self.high
        else:
            payload["value"] = self.value
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "SearchPredicate":
        """Inverse of :meth:`to_payload` for a searchable predicate;
        anything else — a non-object, no ``op``, a stray key, ``ne``, an
        operand search cannot answer — is a :class:`QueryError`."""
        if not isinstance(payload, dict) or not (
            {"op"} <= payload.keys() <= {"op", "value", "low", "high"}
        ):
            raise QueryError(f"malformed predicate payload: {payload!r}")
        return cls(**payload).searchable()


def _literal(token: str):
    """CLI literal: quoted → string; else int, float, string."""
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'":
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = float(token)
    except ValueError:
        return token
    return value


#: A WHERE clause: ``(column, predicate)`` pairs a row must all satisfy.
Where = Tuple[Tuple[str, SearchPredicate], ...]


class AccessPath(enum.Enum):
    """How the executor will locate candidate rows."""

    PRIMARY_POINT = "primary_point"
    PRIMARY_RANGE = "primary_range"
    INDEX = "index"
    FULL_SCAN = "full_scan"


@dataclass(frozen=True)
class Plan:
    """A chosen access path and the ``(column, predicate)`` driving it
    (none for a full scan).  The executor re-filters every candidate
    row by every WHERE predicate, the driver's included."""

    path: AccessPath
    column: Optional[str] = None
    predicate: Optional[SearchPredicate] = None


def plan_query(where: Where, primary_key: str) -> Plan:
    """Pick the cheapest access path for a WHERE conjunction.

    Priority order: primary-key equality, primary-key range, index
    equality, index range, full scan — the B+-tree for key predicates
    and the inverted index for value predicates, per Section 5.1.  The
    index drives only a predicate whose operands are postable; since
    the executor has checked every operand against its column's type,
    that column's values are posted too.
    """
    ladder = (
        (AccessPath.PRIMARY_POINT, ("eq",)),
        (AccessPath.PRIMARY_RANGE, _RANGE_OPS),
        (AccessPath.INDEX, ("eq",)),
        (AccessPath.INDEX, _RANGE_OPS),
    )
    for path, ops in ladder:
        for column, predicate in where:
            if predicate.op not in ops:
                continue
            if path is AccessPath.INDEX:
                usable = all(map(postable, predicate.operands))
            else:
                usable = column == primary_key
            if usable:
                return Plan(path, column, predicate)
    return Plan(AccessPath.FULL_SCAN)
