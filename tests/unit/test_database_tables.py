"""Unit tests for the SpitzDatabase table/SQL surface."""

import pytest

from repro.core.database import SpitzDatabase
from repro.core.schema import TableSchema
from repro.errors import QueryError, SchemaError


@pytest.fixture
def items_db():
    database = SpitzDatabase()
    database.sql(
        "CREATE TABLE items (id INT, name STR, price FLOAT, stock INT, "
        "PRIMARY KEY (id))"
    )
    for i in range(40):
        database.sql(
            f"INSERT INTO items (id, name, price, stock) "
            f"VALUES ({i}, 'item{i}', {float(i)}, {i % 5})"
        )
    return database


class TestDdl:
    def test_create_and_list(self, db):
        db.create_table(
            TableSchema.make("t", [("id", "int")], "id")
        )
        assert db.tables() == ["t"]
        assert db.table("t").primary_key == "id"

    def test_duplicate_table_rejected(self, db):
        schema = TableSchema.make("t", [("id", "int")], "id")
        db.create_table(schema)
        with pytest.raises(SchemaError):
            db.create_table(schema)

    def test_unknown_table(self, db):
        with pytest.raises(SchemaError):
            db.table("ghost")

    def test_ddl_recorded_in_ledger(self, db):
        db.sql("CREATE TABLE t (id INT, PRIMARY KEY (id))")
        block = db.ledger.latest_block()
        assert block is not None


class TestSelect:
    def test_point_by_pk(self, items_db):
        rows = items_db.sql("SELECT * FROM items WHERE id = 7")
        assert rows == [
            {"id": 7, "name": "item7", "price": 7.0, "stock": 2}
        ]

    def test_pk_range(self, items_db):
        rows = items_db.sql(
            "SELECT id FROM items WHERE id BETWEEN 10 AND 14"
        )
        assert [r["id"] for r in rows] == [10, 11, 12, 13, 14]

    def test_pk_strict_range(self, items_db):
        rows = items_db.sql("SELECT id FROM items WHERE id < 3")
        assert sorted(r["id"] for r in rows) == [0, 1, 2]

    def test_inverted_equality(self, items_db):
        rows = items_db.sql("SELECT id FROM items WHERE name = 'item33'")
        assert rows == [{"id": 33}]

    def test_inverted_range(self, items_db):
        rows = items_db.sql(
            "SELECT id FROM items WHERE price BETWEEN 5.0 AND 8.0"
        )
        assert sorted(r["id"] for r in rows) == [5, 6, 7, 8]

    def test_conjunction(self, items_db):
        rows = items_db.sql(
            "SELECT id FROM items WHERE stock = 2 AND id < 10"
        )
        assert sorted(r["id"] for r in rows) == [2, 7]

    def test_full_scan(self, items_db):
        rows = items_db.sql("SELECT id FROM items WHERE name != 'item0'")
        assert len(rows) == 39

    def test_limit(self, items_db):
        rows = items_db.sql("SELECT id FROM items LIMIT 5")
        assert len(rows) == 5

    def test_projection_validates_columns(self, items_db):
        with pytest.raises(SchemaError):
            items_db.select("items", (), columns=("bogus",))

    def test_no_match(self, items_db):
        assert items_db.sql("SELECT * FROM items WHERE id = 999") == []


class TestOneAnswerPerPath:
    """The planner's access path picks which rows get loaded, never the
    answer."""

    @pytest.fixture
    def flags(self):
        database = SpitzDatabase()
        database.sql(
            "CREATE TABLE t (id INT, name STR, active BOOL, PRIMARY KEY (id))"
        )
        database.sql("INSERT INTO t (id, name, active) VALUES (1, 'a', TRUE)")
        database.sql(
            "INSERT INTO t (id, name, active) VALUES (2, 'b', FALSE)"
        )
        return database

    @pytest.mark.parametrize(
        "where",
        [
            "active = TRUE",
            "active = TRUE AND id >= 1",
            "active = TRUE AND name >= 'a'",
            "active != FALSE",
            "active > FALSE",
        ],
    )
    def test_bool_equality_on_every_path(self, flags, where):
        assert flags.sql(f"SELECT id FROM t WHERE {where}") == [{"id": 1}]

    @pytest.mark.parametrize(
        "where",
        [
            "name = NULL",
            "active = NULL",
            "id BETWEEN NULL AND 3",
            "name = 5",
            "active = 1",
            "id = 'one'",
            "id = 1.5",
        ],
    )
    def test_operand_the_schema_rejects(self, flags, where):
        with pytest.raises(QueryError, match="column"):
            flags.sql(f"SELECT id FROM t WHERE {where}")

    def test_string_open_end_reaches_past_any_sentinel(self, flags):
        flags.insert(
            "t", {"id": 3, "name": "\U0010ffff" * 5, "active": False}
        )
        rows = flags.sql("SELECT id FROM t WHERE name > 'b'")
        assert rows == [{"id": 3}]

    def test_search_agrees_with_search_verified(self):
        database = SpitzDatabase(indexed_columns=["t.name"])
        database.sql("CREATE TABLE t (id INT, name STR, PRIMARY KEY (id))")
        database.sql("INSERT INTO t (id, name) VALUES (1, 'a')")
        for predicate in ["> 5", "between 1 9", "= 'a'", ">= 'a'"]:
            ukeys, proof = database.search_verified("t.name", predicate)
            assert proof.verify(database.digest().chain_digest)
            assert database.search("t.name", predicate) == ukeys

    def test_key_past_the_old_scan_sentinel(self, db):
        db.sql("CREATE TABLE b (k BYTES, v INT, PRIMARY KEY (k))")
        long_key = b"\xff" * 41
        db.insert("b", {"k": long_key, "v": 1})
        db.insert("b", {"k": b"\x00", "v": 2})
        everything = db.sql("SELECT * FROM b")
        assert {row["k"] for row in everything} == {long_key, b"\x00"}
        assert db.sql("SELECT k FROM b WHERE v = 1") == [{"k": long_key}]
        as_of = db.select("b", as_of_block=db.ledger.height - 1)
        assert {row["k"] for row in as_of} == {long_key, b"\x00"}


class TestMutations:
    def test_update(self, items_db):
        count = items_db.sql("UPDATE items SET price = 99.0 WHERE id = 3")
        assert count == 1
        rows = items_db.sql("SELECT price FROM items WHERE id = 3")
        assert rows == [{"price": 99.0}]

    def test_update_many(self, items_db):
        count = items_db.sql("UPDATE items SET stock = 0 WHERE stock = 4")
        assert count == 8
        assert items_db.sql("SELECT id FROM items WHERE stock = 4") == []

    def test_update_pk_rejected(self, items_db):
        with pytest.raises(QueryError):
            items_db.sql("UPDATE items SET id = 1 WHERE id = 2")

    def test_update_refreshes_inverted_index(self, items_db):
        items_db.sql("UPDATE items SET name = 'renamed' WHERE id = 5")
        assert items_db.sql(
            "SELECT id FROM items WHERE name = 'renamed'"
        ) == [{"id": 5}]
        assert items_db.sql(
            "SELECT id FROM items WHERE name = 'item5'"
        ) == []

    def test_an_update_is_one_commit(self, items_db):
        height = items_db.ledger.height
        count = items_db.sql(
            "UPDATE items SET stock = 9 WHERE stock = 4 AND id < 15"
        )
        assert count == 3
        assert items_db.ledger.height == height + 1
        assert items_db.ledger.latest_block().write_count == 3
        assert items_db.sql("SELECT id FROM items WHERE stock = 9") == [
            {"id": 4}, {"id": 9}, {"id": 14},
        ]

    def test_a_delete_is_one_commit(self, items_db):
        height = items_db.ledger.height
        assert items_db.sql("DELETE FROM items WHERE id < 3") == 3
        assert items_db.ledger.height == height + 1
        # Each row's presence flag and its four cells.
        assert items_db.ledger.latest_block().write_count == 3 * 5

    def test_a_statement_matching_no_row_commits_nothing(self, items_db):
        height = items_db.ledger.height
        assert items_db.sql("UPDATE items SET stock = 1 WHERE id > 99") == 0
        assert items_db.sql("DELETE FROM items WHERE id > 99") == 0
        assert items_db.ledger.height == height

    def test_delete(self, items_db):
        count = items_db.sql("DELETE FROM items WHERE id = 3")
        assert count == 1
        assert items_db.sql("SELECT * FROM items WHERE id = 3") == []
        assert len(items_db.sql("SELECT id FROM items")) == 39

    def test_delete_removes_from_inverted_index(self, items_db):
        items_db.sql("DELETE FROM items WHERE id = 5")
        assert items_db.sql(
            "SELECT id FROM items WHERE name = 'item5'"
        ) == []

    def test_insert_type_checked(self, items_db):
        with pytest.raises(SchemaError):
            items_db.insert(
                "items",
                {"id": "not-int", "name": "x", "price": 1.0, "stock": 1},
            )


class TestTemporal:
    def test_as_of_block(self, items_db):
        before = items_db.ledger.height - 1
        items_db.sql("UPDATE items SET price = 555.0 WHERE id = 1")
        rows = items_db.sql(
            f"SELECT price FROM items WHERE id = 1 AS OF BLOCK {before}"
        )
        assert rows == [{"price": 1.0}]

    def test_as_of_sees_deleted_rows(self, items_db):
        before = items_db.ledger.height - 1
        items_db.sql("DELETE FROM items WHERE id = 1")
        rows = items_db.sql(
            f"SELECT id FROM items WHERE id = 1 AS OF BLOCK {before}"
        )
        assert rows == [{"id": 1}]

    def test_row_history(self, items_db):
        items_db.sql("UPDATE items SET price = 2.5 WHERE id = 2")
        items_db.sql("DELETE FROM items WHERE id = 2")
        states = [row for _, row in items_db.row_history("items", 2)]
        assert states[0] is None
        assert states[1]["price"] == 2.0
        assert states[2]["price"] == 2.5
        assert states[3] is None


class TestVerifiedSelect:
    def test_select_verified_range(self, items_db):
        rows, proofs = items_db.select_verified(
            "items", 10, 14, columns=("name", "price")
        )
        assert len(rows) == 5
        digest = items_db.digest().chain_digest
        assert all(proof.verify(digest) for proof in proofs)
        assert rows[0] == {"name": "item10", "price": 10.0}

    def test_select_verified_all_columns(self, items_db):
        rows, proofs = items_db.select_verified("items", 0, 4)
        assert len(rows) == 5
        assert len(proofs) == 4  # one per column
