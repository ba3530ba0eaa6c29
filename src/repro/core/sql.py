"""A small SQL front end.

Spitz "supports both SQL and a self-defined JSON schema"
(Section 5.1).  This module implements the SQL side: a hand-written
tokenizer and recursive-descent parser for the subset the examples and
benchmarks exercise:

- ``CREATE TABLE t (a INT, b STR, ..., PRIMARY KEY (a))``
- ``INSERT INTO t (a, b) VALUES (1, 'x')``
- ``SELECT a, b FROM t [WHERE c [AND c]...] [AS OF BLOCK n] [LIMIT n]``
- ``UPDATE t SET a = 1, b = 'y' [WHERE ...]``
- ``DELETE FROM t [WHERE ...]``

Conditions: ``col op literal`` with ``= != < <= > >=`` and
``col BETWEEN x AND y``, each parsed to a ``(column,``
:class:`~repro.core.query.SearchPredicate` ``)`` pair.  Literals:
integers, floats, single-quoted strings, TRUE/FALSE/NULL.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.errors import SqlSyntaxError
from repro.core.query import SearchPredicate, Where

_TOKEN_RE = re.compile(
    r"""
    (?P<space>\s+)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<symbol><=|>=|!=|<>|[(),=<>*-])
  | (?P<word>[A-Za-z_][A-Za-z0-9_.]*)
    """,
    re.VERBOSE,
)

_TYPE_WORDS = {
    "int": "int", "integer": "int", "bigint": "int",
    "float": "float", "double": "float", "real": "float",
    "str": "str", "text": "str", "varchar": "str", "string": "str",
    "bool": "bool", "boolean": "bool",
    "bytes": "bytes", "blob": "bytes",
    "json": "json",
}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    position: int


def tokenize(sql: str) -> List[Token]:
    tokens: List[Token] = []
    position = 0
    while position < len(sql):
        match = _TOKEN_RE.match(sql, position)
        if match is None:
            raise SqlSyntaxError(sql, position, f"unexpected {sql[position]!r}")
        kind = match.lastgroup
        if kind != "space":
            tokens.append(Token(kind, match.group(), position))
        position = match.end()
    return tokens


_SQL_OPS = {
    "=": "eq", "!=": "ne", "<>": "ne",
    "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
}


# -- statement objects ------------------------------------------------------


@dataclass(frozen=True)
class CreateTable:
    table: str
    columns: Tuple[Tuple[str, str], ...]
    primary_key: str


@dataclass(frozen=True)
class Insert:
    table: str
    columns: Tuple[str, ...]
    values: Tuple[Any, ...]


#: Supported aggregate functions (single aggregate, no GROUP BY).
AGGREGATES = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class Select:
    table: str
    columns: Tuple[str, ...]  # ("*",) for all
    where: Where
    as_of_block: Optional[int] = None
    limit: Optional[int] = None
    #: (function, column) — column is "*" only for COUNT
    aggregate: Optional[Tuple[str, str]] = None
    #: (column, descending)
    order_by: Optional[Tuple[str, bool]] = None
    #: grouping column (requires an aggregate)
    group_by: Optional[str] = None


@dataclass(frozen=True)
class Update:
    table: str
    assignments: Tuple[Tuple[str, Any], ...]
    where: Where


@dataclass(frozen=True)
class Delete:
    table: str
    where: Where


Statement = object  # union of the five dataclasses above


class _Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.index = 0

    # -- primitives --------------------------------------------------------

    def _error(self, message: str) -> SqlSyntaxError:
        position = (
            self.tokens[self.index].position
            if self.index < len(self.tokens)
            else len(self.sql)
        )
        return SqlSyntaxError(self.sql, position, message)

    def peek(self) -> Optional[Token]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise self._error("unexpected end of statement")
        self.index += 1
        return token

    def accept_word(self, *words: str) -> Optional[str]:
        token = self.peek()
        if (
            token is not None
            and token.kind == "word"
            and token.text.lower() in words
        ):
            self.index += 1
            return token.text.lower()
        return None

    def expect_word(self, *words: str) -> str:
        word = self.accept_word(*words)
        if word is None:
            raise self._error(f"expected {'/'.join(words).upper()}")
        return word

    def accept_symbol(self, *symbols: str) -> Optional[str]:
        token = self.peek()
        if (
            token is not None
            and token.kind == "symbol"
            and token.text in symbols
        ):
            self.index += 1
            return token.text
        return None

    def expect_symbol(self, *symbols: str) -> str:
        symbol = self.accept_symbol(*symbols)
        if symbol is None:
            raise self._error(f"expected {' or '.join(symbols)!r}")
        return symbol

    def identifier(self) -> str:
        token = self.next()
        if token.kind != "word":
            raise self._error("expected identifier")
        return token.text

    def literal(self) -> Any:
        token = self.next()
        if token.kind == "symbol" and token.text == "-":
            token = self.next()
            if token.kind != "number":
                raise self._error("expected a number after '-'")
            value = (
                float(token.text) if "." in token.text else int(token.text)
            )
            return -value
        if token.kind == "number":
            return float(token.text) if "." in token.text else int(token.text)
        if token.kind == "string":
            return token.text[1:-1].replace("''", "'")
        if token.kind == "word":
            lowered = token.text.lower()
            if lowered == "true":
                return True
            if lowered == "false":
                return False
            if lowered == "null":
                return None
        raise self._error("expected a literal value")

    # -- statements -----------------------------------------------------------

    def parse(self) -> Statement:
        word = self.expect_word(
            "create", "insert", "select", "update", "delete"
        )
        statement = {
            "create": self._create,
            "insert": self._insert,
            "select": self._select,
            "update": self._update,
            "delete": self._delete,
        }[word]()
        if self.peek() is not None:
            raise self._error("trailing tokens after statement")
        return statement

    def _create(self) -> CreateTable:
        self.expect_word("table")
        table = self.identifier()
        self.expect_symbol("(")
        columns: List[Tuple[str, str]] = []
        primary_key: Optional[str] = None
        while True:
            if self.accept_word("primary"):
                self.expect_word("key")
                self.expect_symbol("(")
                primary_key = self.identifier()
                self.expect_symbol(")")
            else:
                name = self.identifier()
                type_token = self.identifier().lower()
                if type_token not in _TYPE_WORDS:
                    raise self._error(f"unknown column type {type_token!r}")
                columns.append((name, _TYPE_WORDS[type_token]))
            if self.accept_symbol(")"):
                break
            self.expect_symbol(",")
        if primary_key is None:
            raise self._error("CREATE TABLE requires PRIMARY KEY (col)")
        return CreateTable(
            table=table, columns=tuple(columns), primary_key=primary_key
        )

    def _insert(self) -> Insert:
        self.expect_word("into")
        table = self.identifier()
        self.expect_symbol("(")
        columns: List[str] = [self.identifier()]
        while self.accept_symbol(","):
            columns.append(self.identifier())
        self.expect_symbol(")")
        self.expect_word("values")
        self.expect_symbol("(")
        values: List[Any] = [self.literal()]
        while self.accept_symbol(","):
            values.append(self.literal())
        self.expect_symbol(")")
        if len(columns) != len(values):
            raise self._error("column/value count mismatch")
        return Insert(
            table=table, columns=tuple(columns), values=tuple(values)
        )

    def _select_item(self):
        """One projection item: a column name or an aggregate call."""
        name = self.identifier()
        if name.lower() in AGGREGATES and self.accept_symbol("("):
            if self.accept_symbol("*"):
                target = "*"
            else:
                target = self.identifier()
            self.expect_symbol(")")
            if name.lower() != "count" and target == "*":
                raise self._error(f"{name.upper()}(*) is not supported")
            return ("aggregate", (name.lower(), target))
        return ("column", name)

    def _select(self) -> Select:
        columns: List[str] = []
        aggregate = None
        if self.accept_symbol("*"):
            columns = ["*"]
        else:
            items = [self._select_item()]
            while self.accept_symbol(","):
                items.append(self._select_item())
            for kind, payload in items:
                if kind == "aggregate":
                    if aggregate is not None:
                        raise self._error(
                            "only one aggregate per query is supported"
                        )
                    aggregate = payload
                else:
                    columns.append(payload)
            if aggregate is None and not columns:
                raise self._error("empty projection")
        self.expect_word("from")
        table = self.identifier()
        where = self._where()
        group_by = None
        if self.accept_word("group"):
            self.expect_word("by")
            group_by = self.identifier()
        as_of = None
        if self.accept_word("as"):
            self.expect_word("of")
            self.expect_word("block")
            as_of = int(self.literal())
        order_by = None
        if self.accept_word("order"):
            self.expect_word("by")
            order_column = self.identifier()
            descending = False
            if self.accept_word("desc"):
                descending = True
            else:
                self.accept_word("asc")
            order_by = (order_column, descending)
        limit = None
        if self.accept_word("limit"):
            limit = int(self.literal())
        if group_by is not None and aggregate is None:
            raise self._error("GROUP BY requires an aggregate")
        if aggregate is not None and columns and columns != [group_by]:
            raise self._error(
                "non-aggregated columns must match GROUP BY"
            )
        return Select(
            table=table,
            columns=tuple(columns) if columns else ("*",),
            where=where,
            as_of_block=as_of,
            limit=limit,
            aggregate=aggregate,
            order_by=order_by,
            group_by=group_by,
        )

    def _update(self) -> Update:
        table = self.identifier()
        self.expect_word("set")
        assignments: List[Tuple[str, Any]] = []
        while True:
            column = self.identifier()
            self.expect_symbol("=")
            assignments.append((column, self.literal()))
            if not self.accept_symbol(","):
                break
        return Update(
            table=table,
            assignments=tuple(assignments),
            where=self._where(),
        )

    def _delete(self) -> Delete:
        self.expect_word("from")
        table = self.identifier()
        return Delete(table=table, where=self._where())

    # -- where clauses -----------------------------------------------------

    def _where(self) -> Where:
        if not self.accept_word("where"):
            return ()
        conditions = [self._condition()]
        while self.accept_word("and"):
            conditions.append(self._condition())
        return tuple(conditions)

    def _condition(self) -> Tuple[str, SearchPredicate]:
        column = self.identifier()
        if self.accept_word("between"):
            low = self.literal()
            self.expect_word("and")
            return column, SearchPredicate.between(low, self.literal())
        symbol = self.accept_symbol(*_SQL_OPS)
        if symbol is None:
            raise self._error("expected a comparison operator")
        return column, SearchPredicate(_SQL_OPS[symbol], self.literal())


def parse(sql: str) -> Statement:
    """Parse one SQL statement into its statement object."""
    return _Parser(sql).parse()
