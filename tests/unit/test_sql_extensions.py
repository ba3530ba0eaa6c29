"""Tests for SQL aggregates and ORDER BY."""

import pytest

from repro.core.database import SpitzDatabase
from repro.core.sql import Select, parse
from repro.errors import SchemaError, SqlSyntaxError


@pytest.fixture
def sales_db():
    db = SpitzDatabase()
    db.sql(
        "CREATE TABLE sales (id INT, region STR, amount FLOAT, "
        "qty INT, PRIMARY KEY (id))"
    )
    rows = [
        (1, "north", 100.0, 2),
        (2, "south", 250.0, 5),
        (3, "north", 75.0, 1),
        (4, "east", 300.0, 6),
        (5, "south", 125.0, 3),
    ]
    for row in rows:
        db.sql(
            "INSERT INTO sales (id, region, amount, qty) "
            f"VALUES ({row[0]}, '{row[1]}', {row[2]}, {row[3]})"
        )
    return db


class TestAggregateParsing:
    def test_count_star(self):
        stmt = parse("SELECT COUNT(*) FROM t")
        assert isinstance(stmt, Select)
        assert stmt.aggregate == ("count", "*")

    def test_sum_column(self):
        stmt = parse("SELECT SUM(amount) FROM t WHERE id > 3")
        assert stmt.aggregate == ("sum", "amount")
        assert len(stmt.where) == 1

    def test_star_only_for_count(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT SUM(*) FROM t")

    def test_aggregate_names_usable_as_columns(self):
        # A column that happens to be named like a function still
        # parses as a plain projection without parentheses.
        stmt = parse("SELECT count FROM t")
        assert stmt.aggregate is None
        assert stmt.columns == ("count",)


class TestOrderByParsing:
    def test_order_by_default_asc(self):
        stmt = parse("SELECT * FROM t ORDER BY price")
        assert stmt.order_by == ("price", False)

    def test_order_by_desc_with_limit(self):
        stmt = parse("SELECT * FROM t ORDER BY price DESC LIMIT 3")
        assert stmt.order_by == ("price", True)
        assert stmt.limit == 3

    def test_order_by_after_where(self):
        stmt = parse("SELECT * FROM t WHERE a = 1 ORDER BY b ASC")
        assert stmt.order_by == ("b", False)


class TestAggregateExecution:
    def test_count_star(self, sales_db):
        assert sales_db.sql("SELECT COUNT(*) FROM sales") == [
            {"count(*)": 5}
        ]

    def test_count_with_where(self, sales_db):
        assert sales_db.sql(
            "SELECT COUNT(*) FROM sales WHERE region = 'north'"
        ) == [{"count(*)": 2}]

    def test_sum(self, sales_db):
        assert sales_db.sql("SELECT SUM(amount) FROM sales") == [
            {"sum(amount)": 850.0}
        ]

    def test_avg(self, sales_db):
        assert sales_db.sql("SELECT AVG(qty) FROM sales") == [
            {"avg(qty)": 3.4}
        ]

    def test_min_max(self, sales_db):
        assert sales_db.sql("SELECT MIN(amount) FROM sales") == [
            {"min(amount)": 75.0}
        ]
        assert sales_db.sql("SELECT MAX(amount) FROM sales") == [
            {"max(amount)": 300.0}
        ]

    def test_aggregate_over_empty_set(self, sales_db):
        assert sales_db.sql(
            "SELECT SUM(amount) FROM sales WHERE id > 99"
        ) == [{"sum(amount)": None}]
        assert sales_db.sql(
            "SELECT COUNT(*) FROM sales WHERE id > 99"
        ) == [{"count(*)": 0}]

    def test_aggregate_unknown_column(self, sales_db):
        with pytest.raises(SchemaError):
            sales_db.sql("SELECT SUM(bogus) FROM sales")

    def test_aggregate_as_of_block(self, sales_db):
        height = sales_db.ledger.height - 1
        sales_db.sql(
            "INSERT INTO sales (id, region, amount, qty) "
            "VALUES (6, 'west', 1000.0, 1)"
        )
        assert sales_db.sql(
            f"SELECT COUNT(*) FROM sales AS OF BLOCK {height}"
        ) == [{"count(*)": 5}]
        assert sales_db.sql("SELECT COUNT(*) FROM sales") == [
            {"count(*)": 6}
        ]


class TestOrderByExecution:
    def test_order_asc(self, sales_db):
        rows = sales_db.sql("SELECT id FROM sales ORDER BY amount")
        assert [r["id"] for r in rows] == [3, 1, 5, 2, 4]

    def test_order_desc_limit(self, sales_db):
        rows = sales_db.sql(
            "SELECT id FROM sales ORDER BY amount DESC LIMIT 2"
        )
        assert [r["id"] for r in rows] == [4, 2]

    def test_order_by_unprojected_column(self, sales_db):
        rows = sales_db.sql("SELECT region FROM sales ORDER BY qty DESC")
        assert rows[0] == {"region": "east"}
        assert set(rows[0]) == {"region"}  # projection still applied

    def test_order_by_with_where(self, sales_db):
        rows = sales_db.sql(
            "SELECT id FROM sales WHERE region = 'south' "
            "ORDER BY amount DESC"
        )
        assert [r["id"] for r in rows] == [2, 5]

    def test_order_by_unknown_column(self, sales_db):
        with pytest.raises(SchemaError):
            sales_db.sql("SELECT id FROM sales ORDER BY bogus")

    def test_order_by_unknown_column_beside_an_aggregate(self, sales_db):
        with pytest.raises(SchemaError):
            sales_db.sql("SELECT COUNT(*) FROM sales ORDER BY bogus")
        with pytest.raises(SchemaError):
            sales_db.sql(
                "SELECT region, SUM(amount) FROM sales GROUP BY region "
                "ORDER BY bogus"
            )

    def test_order_by_string_column(self, sales_db):
        rows = sales_db.sql("SELECT region FROM sales ORDER BY region")
        assert [r["region"] for r in rows] == [
            "east", "north", "north", "south", "south",
        ]


class TestGroupBy:
    def test_group_by_sum(self, sales_db):
        rows = sales_db.sql(
            "SELECT region, SUM(amount) FROM sales GROUP BY region"
        )
        assert rows == [
            {"region": "east", "sum(amount)": 300.0},
            {"region": "north", "sum(amount)": 175.0},
            {"region": "south", "sum(amount)": 375.0},
        ]

    def test_group_by_count_without_projection(self, sales_db):
        rows = sales_db.sql("SELECT COUNT(*) FROM sales GROUP BY region")
        assert [row["count(*)"] for row in rows] == [1, 2, 2]

    def test_group_by_with_where(self, sales_db):
        rows = sales_db.sql(
            "SELECT region, MAX(qty) FROM sales WHERE amount > 100.0 "
            "GROUP BY region"
        )
        assert rows == [
            {"region": "east", "max(qty)": 6},
            {"region": "south", "max(qty)": 5},
        ]

    def test_group_by_limit(self, sales_db):
        rows = sales_db.sql(
            "SELECT region, COUNT(*) FROM sales GROUP BY region LIMIT 1"
        )
        assert rows == [{"region": "east", "count(*)": 1}]

    def test_group_by_requires_aggregate(self, sales_db):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT region FROM sales GROUP BY region")

    def test_projection_must_match_group_column(self, sales_db):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT id, SUM(amount) FROM sales GROUP BY region")

    def test_two_aggregates_rejected(self, sales_db):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT SUM(a), COUNT(*) FROM t")

    def test_group_by_unknown_column(self, sales_db):
        with pytest.raises(SchemaError):
            sales_db.sql("SELECT COUNT(*) FROM sales GROUP BY bogus")
