"""Unit tests for the inverted index."""

import pytest

from repro.core.query import SearchPredicate
from repro.errors import QueryError
from repro.indexes.inverted import InvertedIndex, postable


class TestInvertedIndex:
    def test_numeric_lookup(self):
        index = InvertedIndex()
        index.add("price", 10, b"uk1")
        index.add("price", 10, b"uk2")
        index.add("price", 20, b"uk3")
        assert index.lookup("price", 10) == [b"uk1", b"uk2"]
        assert index.lookup("price", 99) == []

    def test_numeric_range(self):
        index = InvertedIndex()
        for value, ukey in [(5, b"a"), (10, b"b"), (15, b"c"), (20, b"d")]:
            index.add("qty", value, ukey)
        assert index.matching("qty", SearchPredicate.between(8, 16)) == [
            b"b", b"c"
        ]

    def test_open_and_strict_ends(self):
        index = InvertedIndex()
        for value, ukey in [(5, b"a"), (10, b"b"), (15, b"c"), (20, b"d")]:
            index.add("qty", value, ukey)
        assert index.matching("qty", SearchPredicate.gt(10)) == [b"c", b"d"]
        assert index.matching("qty", SearchPredicate.ge(10)) == [
            b"b", b"c", b"d"
        ]
        assert index.matching("qty", SearchPredicate.lt(10)) == [b"a"]
        assert index.matching("qty", SearchPredicate.le(1e308)) == [
            b"a", b"b", b"c", b"d"
        ]

    def test_string_lookup(self):
        index = InvertedIndex()
        index.add("name", "alice", b"u1")
        index.add("name", "bob", b"u2")
        assert index.lookup("name", "alice") == [b"u1"]

    def test_string_open_end_reaches_any_string(self):
        index = InvertedIndex()
        index.add("name", "alice", b"u1")
        index.add("name", "\U0010ffff" * 5, b"u2")
        assert index.matching("name", SearchPredicate.ge("b")) == [b"u2"]

    def test_string_range(self):
        index = InvertedIndex()
        for name, ukey in [("ann", b"1"), ("ben", b"2"), ("cat", b"3")]:
            index.add("name", name, ukey)
        assert index.matching(
            "name", SearchPredicate.between("aa", "bz")
        ) == [b"1", b"2"]

    def test_remove(self):
        index = InvertedIndex()
        index.add("price", 10, b"u1")
        index.add("price", 10, b"u2")
        index.remove("price", 10, b"u1")
        assert index.lookup("price", 10) == [b"u2"]
        index.remove("price", 10, b"u2")
        assert index.lookup("price", 10) == []

    def test_remove_unknown_is_noop(self):
        index = InvertedIndex()
        index.remove("ghost", 1, b"u")
        index.add("price", 5, b"u")
        index.remove("price", 99, b"u")
        assert index.lookup("price", 5) == [b"u"]

    def test_mixing_types_raises(self):
        index = InvertedIndex()
        index.add("col", 1, b"u1")
        with pytest.raises(QueryError):
            index.add("col", "text", b"u2")

    def test_an_emptied_column_forgets_its_kind(self):
        index = InvertedIndex()
        index.add("col", 1, b"u1")
        assert not index.holds("col", "text")
        index.remove("col", 1, b"u1")
        assert index.columns() == []
        assert index.holds("col", "text")
        index.add("col", "text", b"u2")
        assert index.lookup("col", "text") == [b"u2"]

    def test_unindexable_type_raises(self):
        index = InvertedIndex()
        with pytest.raises(QueryError):
            index.add("col", [1, 2], b"u")
        with pytest.raises(QueryError):
            index.add("col", True, b"u")

    def test_operand_the_postings_cannot_hold_matches_nothing(self):
        index = InvertedIndex()
        index.add("qty", 5, b"u")
        for predicate in [
            SearchPredicate.eq("5"),
            SearchPredicate.gt("a"),
            SearchPredicate.eq(True),
            SearchPredicate.le(float("nan")),
        ]:
            assert index.matching("qty", predicate) == []

    def test_postable(self):
        assert all(map(postable, [0, -3, 2.5, "", "x", float("inf")]))
        assert not any(
            map(postable, [True, None, float("nan"), b"x", [1], {}])
        )

    def test_unknown_column_empty_results(self):
        index = InvertedIndex()
        assert index.lookup("missing", 1) == []
        assert index.matching("missing", SearchPredicate.ge(0)) == []

    def test_columns_listing(self):
        index = InvertedIndex()
        index.add("b", 1, b"u")
        index.add("a", "s", b"u")
        assert index.columns() == ["a", "b"]

    def test_float_and_int_share_skiplist(self):
        index = InvertedIndex()
        index.add("score", 1, b"u1")
        index.add("score", 1.5, b"u2")
        assert index.matching("score", SearchPredicate.between(0, 2)) == [
            b"u1", b"u2"
        ]
