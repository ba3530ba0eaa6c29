"""Unit tests for the one predicate and the planner."""

import pytest

from repro.core.database import SpitzDatabase
from repro.core.query import AccessPath, SearchPredicate, plan_query
from repro.errors import QueryError

#: (op, value, high, probe, expected); ``high`` is BETWEEN's upper bound.
MATCH_CASES = [
    ("eq", 5, None, 5, True),
    ("eq", 5, None, 6, False),
    ("ne", 5, None, 6, True),
    ("lt", 5, None, 4, True),
    ("lt", 5, None, 5, False),
    ("le", 5, None, 5, True),
    ("gt", 5, None, 6, True),
    ("ge", 5, None, 5, True),
    ("between", 3, 7, 5, True),
    ("between", 3, 7, 8, False),
    ("between", 3, 7, 3, True),
]


def _predicate(op, value, high=None):
    if op == "between":
        return SearchPredicate.between(value, high)
    return SearchPredicate(op, value)


class TestConditionMatching:
    @pytest.mark.parametrize(
        "op,value,high,probe,expected",
        MATCH_CASES,
        ids=["Op.{}-{}-{}-{}-{}".format(op.upper(), *rest)
             for op, *rest in MATCH_CASES],
    )
    def test_matches(self, op, value, high, probe, expected):
        assert _predicate(op, value, high).matches(probe) is expected

    @pytest.mark.parametrize(
        "predicate,probe,expected",
        [
            (SearchPredicate.between(7, 3), 5, False),
            (SearchPredicate.eq(True), True, True),
            (SearchPredicate.eq(1), True, False),
            (SearchPredicate.ne(1), True, True),
            (SearchPredicate.lt(True), False, True),
            (SearchPredicate.eq(b"k"), b"k", True),
            (SearchPredicate.ge(1), "1", False),
        ],
    )
    def test_matches_other_kinds(self, predicate, probe, expected):
        """Bools, bytes and inverted bounds are SQL row values too; a
        value of another kind than the operand only satisfies ``ne``."""
        assert predicate.matches(probe) is expected


def _where(*pairs):
    return tuple(pairs)


class TestPlanner:
    def test_pk_equality_wins(self):
        plan = plan_query(
            _where(
                ("other", SearchPredicate.eq(1)),
                ("id", SearchPredicate.eq(2)),
            ),
            "id",
        )
        assert plan.path is AccessPath.PRIMARY_POINT
        assert plan.column == "id"

    def test_pk_range_second(self):
        plan = plan_query(
            _where(
                ("id", SearchPredicate.between(1, 9)),
                ("x", SearchPredicate.eq(1)),
            ),
            "id",
        )
        assert plan.path is AccessPath.PRIMARY_RANGE

    def test_inverted_point(self):
        plan = plan_query(
            _where(
                ("price", SearchPredicate.ge(10)),
                ("name", SearchPredicate.eq("x")),
            ),
            "id",
        )
        assert (plan.path, plan.column) == (AccessPath.INDEX, "name")

    def test_inverted_range(self):
        plan = plan_query(_where(("price", SearchPredicate.ge(10))), "id")
        assert plan.path is AccessPath.INDEX
        assert plan.predicate == SearchPredicate.ge(10)

    def test_full_scan_fallback(self):
        plan = plan_query(_where(("name", SearchPredicate.ne("x"))), "id")
        assert plan.path is AccessPath.FULL_SCAN
        assert plan.predicate is None

    @pytest.mark.parametrize(
        "predicate",
        [
            SearchPredicate.eq(True),
            SearchPredicate.eq(b"raw"),
            SearchPredicate.ge(float("nan")),
        ],
    )
    def test_unpostable_operands_never_drive_the_index(self, predicate):
        plan = plan_query(_where(("name", predicate)), "id")
        assert plan.path is AccessPath.FULL_SCAN

    def test_strict_driver_stays_in_residual(self):
        """The index walk drives ``price < 10`` from its inclusive span,
        and every loaded row is re-filtered by the whole WHERE clause —
        the residual is all of it — so the boundary row stays out."""
        db = SpitzDatabase()
        db.sql("CREATE TABLE t (id INT, price INT, PRIMARY KEY (id))")
        for pk, price in enumerate([5, 10, 15]):
            db.insert("t", {"id": pk, "price": price})
        where = _where(("price", SearchPredicate.lt(10)))
        plan = plan_query(where, "id")
        assert plan.path is AccessPath.INDEX
        assert plan.predicate.span() == (None, 10)
        assert db.select("t", where) == [{"id": 0, "price": 5}]

    def test_empty_conditions_full_scan(self):
        assert plan_query((), "id").path is AccessPath.FULL_SCAN


class TestRangeBounds:
    def test_between(self):
        assert SearchPredicate.between(1, 9).span() == (1, 9)

    def test_open_ended(self):
        assert SearchPredicate.ge(5).span() == (5, None)
        assert SearchPredicate.lt(5).span() == (None, 5)
        assert SearchPredicate.eq(4).span() == (4, 4)
        assert SearchPredicate.ne(5).span() == (None, None)

    def test_non_range_raises(self):
        # An eq is the one-value range [k, k]; only ne has no bounds.
        low, high = SearchPredicate.eq(5).bounds()
        assert low == high
        with pytest.raises(QueryError):
            SearchPredicate.ne(5).bounds()
