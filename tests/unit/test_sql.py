"""Unit tests for the SQL front end."""

import pytest

from repro.errors import SqlSyntaxError
from repro.core.query import SearchPredicate
from repro.core.sql import (
    CreateTable,
    Delete,
    Insert,
    Select,
    Update,
    parse,
)


class TestCreateTable:
    def test_basic(self):
        stmt = parse(
            "CREATE TABLE t (id INT, name TEXT, PRIMARY KEY (id))"
        )
        assert isinstance(stmt, CreateTable)
        assert stmt.table == "t"
        assert stmt.columns == (("id", "int"), ("name", "str"))
        assert stmt.primary_key == "id"

    def test_type_synonyms(self):
        stmt = parse(
            "CREATE TABLE t (a BIGINT, b VARCHAR, c DOUBLE, d BOOLEAN, "
            "e BLOB, f JSON, PRIMARY KEY (a))"
        )
        assert stmt.columns == (
            ("a", "int"), ("b", "str"), ("c", "float"),
            ("d", "bool"), ("e", "bytes"), ("f", "json"),
        )

    def test_missing_primary_key(self):
        with pytest.raises(SqlSyntaxError):
            parse("CREATE TABLE t (id INT)")

    def test_unknown_type(self):
        with pytest.raises(SqlSyntaxError):
            parse("CREATE TABLE t (id WIDGET, PRIMARY KEY (id))")


class TestInsert:
    def test_basic(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x')")
        assert isinstance(stmt, Insert)
        assert stmt.columns == ("a", "b")
        assert stmt.values == (1, "x")

    def test_literals(self):
        stmt = parse(
            "INSERT INTO t (a, b, c, d, e) "
            "VALUES (-7, 2.5, 'it''s', TRUE, NULL)"
        )
        assert stmt.values[0] == -7
        assert stmt.values[1] == 2.5
        assert stmt.values[2] == "it's"
        assert stmt.values[3] is True
        assert stmt.values[4] is None

    def test_negative_float_literal(self):
        stmt = parse("SELECT * FROM t WHERE a > -1.5")
        assert stmt.where[0] == ("a", SearchPredicate.gt(-1.5))

    def test_count_mismatch(self):
        with pytest.raises(SqlSyntaxError):
            parse("INSERT INTO t (a, b) VALUES (1)")


class TestSelect:
    def test_star(self):
        stmt = parse("SELECT * FROM t")
        assert isinstance(stmt, Select)
        assert stmt.columns == ("*",)
        assert stmt.where == ()

    def test_column_list(self):
        stmt = parse("SELECT a, b FROM t")
        assert stmt.columns == ("a", "b")

    def test_where_operators(self):
        stmt = parse(
            "SELECT * FROM t WHERE a = 1 AND b != 'x' AND c <= 5 "
            "AND d > 2 AND e BETWEEN 1 AND 9"
        )
        assert stmt.where == (
            ("a", SearchPredicate.eq(1)),
            ("b", SearchPredicate.ne("x")),
            ("c", SearchPredicate.le(5)),
            ("d", SearchPredicate.gt(2)),
            ("e", SearchPredicate.between(1, 9)),
        )

    def test_as_of_block(self):
        stmt = parse("SELECT * FROM t WHERE id = 1 AS OF BLOCK 42")
        assert stmt.as_of_block == 42

    def test_limit(self):
        stmt = parse("SELECT * FROM t LIMIT 10")
        assert stmt.limit == 10

    def test_case_insensitive_keywords(self):
        stmt = parse("select a from t where a < 5 limit 1")
        assert stmt.columns == ("a",)
        assert stmt.limit == 1

    def test_ne_synonym(self):
        stmt = parse("SELECT * FROM t WHERE a <> 3")
        assert stmt.where == (("a", SearchPredicate.ne(3)),)


class TestUpdateDelete:
    def test_update(self):
        stmt = parse("UPDATE t SET a = 1, b = 'x' WHERE id = 3")
        assert isinstance(stmt, Update)
        assert stmt.assignments == (("a", 1), ("b", "x"))
        assert stmt.where == (("id", SearchPredicate.eq(3)),)

    def test_update_without_where(self):
        stmt = parse("UPDATE t SET a = 1")
        assert stmt.where == ()

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE id = 9")
        assert isinstance(stmt, Delete)
        assert stmt.where == (("id", SearchPredicate.eq(9)),)


class TestErrors:
    def test_garbage(self):
        with pytest.raises(SqlSyntaxError):
            parse("FROB THE KNOB")

    def test_trailing_tokens(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM t extra junk ;")

    def test_unterminated(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM")

    def test_bad_character(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM t WHERE a = #")

    def test_error_reports_offset(self):
        try:
            parse("SELECT * FROM t WHERE = 1")
        except SqlSyntaxError as error:
            assert error.position > 0
        else:  # pragma: no cover
            raise AssertionError("expected SqlSyntaxError")
