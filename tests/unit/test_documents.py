"""Unit tests for the JSON document interface."""

import pytest

from repro.core.database import SpitzDatabase
from repro.core.documents import Collection, DocumentStore
from repro.core.query import SearchPredicate
from repro.core.schema import encode_document
from repro.durability import DurableDatabase, list_checkpoints
from repro.durability.checkpoint import load_database, save_database
from repro.durability.crashsim import flip_byte
from repro.errors import QueryError, SchemaError


@pytest.fixture
def docs():
    return DocumentStore()


@pytest.fixture
def patients(docs):
    collection = docs.collection(
        "patients",
        schema={"required": ["name"], "types": {"name": "str", "age": "int"}},
    )
    collection.put("p1", {"name": "alice", "age": 34, "city": "oslo"})
    collection.put("p2", {"name": "bob", "age": 58, "city": "oslo"})
    collection.put("p3", {"name": "carol", "age": 41, "city": "turin"})
    return collection


class TestCrud:
    def test_put_get(self, docs):
        c = docs.collection("c")
        c.put("d1", {"x": 1})
        assert c.get("d1") == {"x": 1}

    def test_get_missing(self, docs):
        assert docs.collection("c").get("ghost") is None

    def test_replace(self, patients):
        patients.put("p1", {"name": "alice", "age": 35})
        assert patients.get("p1")["age"] == 35

    def test_delete(self, patients):
        assert patients.delete("p1")
        assert patients.get("p1") is None
        assert not patients.delete("p1")

    def test_ids_sorted(self, patients):
        assert patients.ids() == ["p1", "p2", "p3"]

    def test_nested_documents(self, docs):
        c = docs.collection("c")
        document = {"meta": {"tags": ["a", "b"], "depth": {"x": 1}}}
        c.put("d", document)
        assert c.get("d") == document

    def test_invalid_collection_name(self, docs):
        with pytest.raises(SchemaError):
            docs.collection("")

    def test_invalid_doc_id(self, docs):
        with pytest.raises(SchemaError):
            docs.collection("c").put("", {"x": 1})

    def test_collections_isolated(self, docs):
        docs.collection("a").put("d", {"v": 1})
        docs.collection("b").put("d", {"v": 2})
        assert docs.collection("a").get("d") == {"v": 1}
        assert docs.collection("b").get("d") == {"v": 2}


class TestSchema:
    def test_required_enforced(self, patients):
        with pytest.raises(SchemaError, match="required"):
            patients.put("p9", {"age": 1})

    def test_types_enforced(self, patients):
        with pytest.raises(SchemaError):
            patients.put("p9", {"name": "x", "age": "not-int"})

    def test_bool_is_not_int(self, patients):
        with pytest.raises(SchemaError):
            patients.put("p9", {"name": "x", "age": True})

    def test_unknown_schema_type(self, docs):
        c = docs.collection("c", schema={"types": {"x": "widget"}})
        with pytest.raises(SchemaError):
            c.put("d", {"x": 1})

    def test_extra_fields_allowed(self, patients):
        patients.put("p9", {"name": "dora", "anything": [1, 2]})
        assert patients.get("p9")["anything"] == [1, 2]

    def test_conflicting_schema_rejected(self, docs):
        docs.collection("c", schema={"required": ["a"]})
        with pytest.raises(SchemaError):
            docs.collection("c", schema={"required": ["b"]})

    def test_non_object_rejected(self, docs):
        with pytest.raises(SchemaError):
            docs.collection("c").put("d", [1, 2, 3])


class TestQueries:
    def test_find_equality(self, patients):
        found = patients.find("city", value="oslo")
        assert [doc_id for doc_id, _ in found] == ["p1", "p2"]

    def test_find_range(self, patients):
        found = patients.find("age", low=40, high=60)
        assert sorted(doc_id for doc_id, _ in found) == ["p2", "p3"]

    def test_find_requires_arguments(self, patients):
        with pytest.raises(QueryError):
            patients.find("age")

    def test_find_reflects_updates(self, patients):
        patients.put("p1", {"name": "alice", "age": 34, "city": "turin"})
        assert [d for d, _ in patients.find("city", value="oslo")] == ["p2"]
        found = [d for d, _ in patients.find("city", value="turin")]
        assert found == ["p1", "p3"]

    def test_find_after_delete(self, patients):
        patients.delete("p2")
        assert [d for d, _ in patients.find("city", value="oslo")] == ["p1"]


class TestVerificationAndHistory:
    def test_verified_get(self, docs, patients):
        verifier = docs.verifier()
        document, proof = patients.get_verified("p1")
        assert document["name"] == "alice"
        assert verifier.verify(proof)

    def test_verified_absence(self, docs, patients):
        verifier = docs.verifier()
        document, proof = patients.get_verified("ghost")
        assert document is None
        assert verifier.verify(proof)

    def test_history(self, patients):
        patients.put("p1", {"name": "alice", "age": 35})
        patients.delete("p1")
        states = [state for _, state in patients.history("p1")]
        # p1 was written in the very first block, so history starts
        # with the document itself (no prior "absent" state exists).
        assert states[0]["age"] == 34
        assert states[1]["age"] == 35
        assert states[2] is None

    def test_get_at_block(self, docs, patients):
        height = docs.db.ledger.height - 1
        patients.put("p1", {"name": "alice", "age": 99})
        assert patients.get_at_block("p1", height)["age"] == 34


def _ids(found):
    return [doc_id for doc_id, _ in found]


class TestOneStorageModel:
    """A document is a version like any cell: the database posts it, so
    every database shape answers ``get``, ``ids`` and ``find`` alike."""

    def test_find_after_durable_reopen(self, tmp_path):
        with DurableDatabase.open(tmp_path / "db") as durable:
            orders = DocumentStore(durable.db).collection("orders")
            orders.put("o1", {"qty": 3})
            orders.put("o2", {"qty": 5})
        with DurableDatabase.open(tmp_path / "db") as reopened:
            orders = DocumentStore(reopened.db).collection("orders")
            assert orders.get("o1") == {"qty": 3}
            assert orders.find("qty", 3) == [("o1", {"qty": 3})]
            assert _ids(orders.find("qty", low=0, high=9)) == ["o1", "o2"]

    def test_find_after_checkpoint_load(self, tmp_path):
        store = DocumentStore()
        orders = store.collection("orders")
        orders.put("o1", {"qty": 3, "sku": "a"})
        orders.put("o1", {"qty": 4, "sku": "a"})
        save_database(store.db, tmp_path / "checkpoint")
        loaded = DocumentStore(load_database(tmp_path / "checkpoint"))
        orders = loaded.collection("orders")
        assert orders.find("qty", 4) == [("o1", {"qty": 4, "sku": "a"})]
        assert orders.find("qty", 3) == []
        assert _ids(orders.find("sku", "a")) == ["o1"]

    def test_batched_get_after_put(self):
        orders = DocumentStore(SpitzDatabase(block_batch=4)).collection("o")
        orders.put("o1", {"qty": 3})
        assert orders.get("o1") == {"qty": 3}
        assert orders.ids() == ["o1"]
        assert orders.find("qty", 3) == [("o1", {"qty": 3})]

    def test_batched_replace_moves_the_posting(self):
        store = DocumentStore(SpitzDatabase(block_batch=4))
        orders = store.collection("o")
        orders.put("o1", {"qty": 3})
        orders.put("o1", {"qty": 5})
        store.digest()
        assert orders.find("qty", 3) == []
        assert orders.find("qty", 5) == [("o1", {"qty": 5})]

    def test_batched_delete_leaves_no_posting(self):
        store = DocumentStore(SpitzDatabase(block_batch=4))
        orders = store.collection("o")
        orders.put("o1", {"qty": 3})
        assert orders.delete("o1")
        store.digest()
        everything = SearchPredicate.ge(0)
        assert store.db.inverted.matching("o#doc.qty", everything) == []
        assert orders.ids() == []

    def test_mixed_kinds_refused_before_the_write(self, docs):
        orders = docs.collection("o")
        orders.put("o1", {"qty": 3})
        height = docs.db.ledger.height
        with pytest.raises(QueryError, match="mixes"):
            orders.put("o2", {"qty": "three"})
        assert orders.get("o2") is None
        assert docs.db.ledger.height == height

    def test_batched_get_at_block_agrees_with_history(self):
        store = DocumentStore(SpitzDatabase(block_batch=4))
        orders = store.collection("o")
        orders.put("o1", {"qty": 3})
        height = store.db.ledger.height  # the block the put seals into
        assert orders.get_at_block("o1", height) == {"qty": 3}
        assert orders.history("o1") == [(height, {"qty": 3})]

    def test_an_emptied_field_takes_either_kind_in_every_shape(
        self, tmp_path
    ):
        """Put a number, delete it, put a string: accepted in process,
        after a reopen, and after recovery falls back past a corrupt
        newest checkpoint and replays the numeric put again."""

        def strings(durable):
            orders = DocumentStore(durable.db).collection("o")
            return _ids(orders.find("x", low="a", high="z"))

        with DurableDatabase.open(tmp_path) as durable:
            orders = DocumentStore(durable.db).collection("o")
            orders.put("n", {"y": 0})
            durable.checkpoint()
            orders.put("a", {"x": 1})
            orders.delete("a")
            orders.put("b", {"x": "s"})
            _lsn, newest = durable.checkpoint()
            assert strings(durable) == ["b"]
        with DurableDatabase.open(tmp_path) as reopened:
            assert strings(reopened) == ["b"]
            DocumentStore(reopened.db).collection("o").put("c", {"x": "t"})
            assert strings(reopened) == ["b", "c"]
        assert list_checkpoints(tmp_path)[-1][1] == newest
        flip_byte(newest, newest.stat().st_size // 2)
        with DurableDatabase.open(tmp_path) as fallen_back:
            assert fallen_back.last_recovery.skipped_checkpoints == [newest]
            assert strings(fallen_back) == ["b", "c"]
            orders = DocumentStore(fallen_back.db).collection("o")
            assert orders.find("x", 1) == []
            with pytest.raises(QueryError, match="mixes"):
                orders.put("d", {"x": 2})

    def test_a_logged_mixed_kind_document_still_opens(self, tmp_path):
        """A log may hold a document whose field its column cannot post
        (the older format committed it, then refused the posting):
        replay and checkpoint load install it and leave that field
        unposted."""
        with DurableDatabase.open(tmp_path) as durable:
            orders = DocumentStore(durable.db).collection("o")
            orders.put("a", {"x": 1, "sku": "p"})
            durable.db._commit(
                {orders._key("b"): encode_document({"x": "s", "sku": "q"})},
                statements=("DOC PUT o/b",), replayed=True,
            )
        for _ in ("replay", "checkpoint load"):
            with DurableDatabase.open(tmp_path) as reopened:
                orders = DocumentStore(reopened.db).collection("o")
                assert orders.get("b") == {"x": "s", "sku": "q"}
                assert orders.find("x", 1) == [("a", {"x": 1, "sku": "p"})]
                assert orders.find("x", "s") == []
                assert _ids(orders.find("sku", low="a", high="z")) == [
                    "a", "b",
                ]
                reopened.checkpoint()
