"""The version store against a dict-of-versions model.

One random script drives three subjects — ``SpitzDatabase`` with
``block_batch`` 1 and 4, and ``ImmutableKVS`` — through put,
put_batch, delete, a KV transaction committed or aborted, and table
insert / update / delete_rows on an indexed column, and (the databases
only) ``doc_put`` / ``doc_delete`` on one document collection.  A
``bad_put`` hands a database's put, put_batch or transaction a value
that is not bytes (``None`` among them: inside a write set it means
delete); each must refuse it and leave the model unchanged.  Every
read surface is checked against a model that keeps each key's
versions in a list: ``get``, ``get_many`` (a list and a generator),
``scan``, ``history``, ``select`` (current, and as of a block marked
mid-script), ``search`` on the indexed column, the collection's
``get``, ``ids`` and ``find`` on two fields (one takes a number or a
string; a put of the other kind than a live document's is refused),
snapshot reads from a transaction begun mid-script, and every verified
read through one ``ClientVerifier`` pinned per database for the whole
run.  A ``reopen`` saves each
database as a checkpoint and loads it back: the loaded database is the
subject from then on, so every later check reads the version map
``restore`` rebuilt (an open snapshot is then read at its timestamp
from the loaded store; its transaction stays with the saved database).

Commit timestamps are the one thing the model does not choose: a
commit hook reports them, and the model checks each key's only ever
increase and that there is exactly one per version it expects.

This is the version-store slice of ROADMAP item 4's model.  It runs
under a fixed, derandomized Hypothesis profile; CI runs more examples
of the same profile with ``--model-examples``.
"""

import tempfile
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cell_store import live_value
from repro.core.database import SpitzDatabase
from repro.core.documents import Collection
from repro.core.query import SearchPredicate
from repro.core.schema import KV_PREFIX, TableSchema, encode_value
from repro.core.universal_key import UniversalKey
from repro.core.verifier import ClientVerifier
from repro.crypto.hashing import hash_bytes
from repro.durability.checkpoint import load_database, save_database
from repro.errors import QueryError
from repro.kvstore.kvs import ImmutableKVS
from repro.txn.manager import IsolationLevel

FIXED = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

KEYS = [b"a", b"b", b"c", b"d"]
IDS = range(4)
PRICES = range(4)
TABLE = TableSchema.make("items", [("id", "int"), ("price", "int")], "id")
INDEXED = "items.price"
COLLECTION = "orders"
DOC_IDS = ["o1", "o2", "o3"]

keys = st.sampled_from(KEYS)
values = st.binary(max_size=4)
bad_values = st.none() | st.text(max_size=2) | st.integers()
ids = st.sampled_from(IDS)
prices = st.sampled_from(PRICES)
conditions = st.one_of(
    st.tuples(st.just("id"), ids), st.tuples(st.just("price"), prices)
)
operations = st.one_of(
    st.tuples(st.just("put"), keys, values),
    st.tuples(st.just("put_batch"), st.dictionaries(keys, values, min_size=1)),
    st.tuples(st.just("delete"), keys),
    st.tuples(
        st.just("txn"),
        st.dictionaries(keys, st.none() | values, min_size=1),
        st.booleans(),
    ),
    st.tuples(
        st.just("bad_put"),
        st.sampled_from(["put", "put_batch", "txn"]),
        keys,
        bad_values,
    ),
    st.tuples(st.just("insert"), ids, prices),
    st.tuples(st.just("update"), conditions, prices),
    st.tuples(st.just("delete_rows"), conditions),
    st.tuples(
        st.just("doc_put"),
        st.sampled_from(DOC_IDS),
        st.fixed_dictionaries(
            {"qty": prices},
            optional={
                "tag": st.sampled_from(["a", "b"]),
                "code": st.sampled_from([1, "x"]),
            },
        ),
    ),
    st.tuples(st.just("doc_delete"), st.sampled_from(DOC_IDS)),
    st.tuples(st.just("mark")),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("check")),
)
scripts = st.lists(operations, min_size=8, max_size=30)


def _matches(condition, pk, price):
    column, wanted = condition
    return (pk if column == "id" else price) == wanted


class Model:
    """Every key's versions (None = deleted), plus the table's live rows
    and the collection's live documents."""

    def __init__(self):
        self.kv = defaultdict(list)
        self.rows = {}
        self.docs = {}

    def current(self, key):
        versions = self.kv.get(key)
        return versions[-1] if versions else None

    def live(self):
        return {
            key: versions[-1]
            for key, versions in self.kv.items()
            if versions and versions[-1] is not None
        }


class Subject:
    """One database under test, its pinned verifier and what the script
    recorded against it (marked blocks, an open snapshot: its
    transaction — None once the database was reopened — its timestamp
    and the live state it must see)."""

    def __init__(self, block_batch):
        self.db = SpitzDatabase(
            block_batch=block_batch, indexed_columns=(INDEXED,)
        )
        self.db.create_table(TABLE)
        self.stamps = defaultdict(list)
        self.db.add_commit_hook(self._stamp)
        self.verifier = ClientVerifier()
        self.marks = []
        self.snapshot = None

    def _stamp(self, kind, data):
        if kind == "commit":
            writes, _statements, timestamp = data
            for logical_key, _value in writes:
                self.stamps[logical_key].append(timestamp)

    def reopen(self):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "checkpoint"
            save_database(self.db, path)
            self.db = load_database(path)
        self.db.add_commit_hook(self._stamp)
        if self.snapshot is not None and self.snapshot[0] is not None:
            txn, start_ts, kv_then = self.snapshot
            txn.abort()
            self.snapshot = (None, start_ts, kv_then)

    def verified(self, answer, proof):
        self.verifier.observe(self.db.digest())
        assert self.verifier.verify(proof)
        return answer


def _apply(op, model, subjects, kvs):
    kind = op[0]
    dbs = [subject.db for subject in subjects]
    if kind == "put":
        _, key, value = op
        for db in dbs:
            db.put(key, value)
        kvs.put(key, value)
        model.kv[key].append(value)
    elif kind == "put_batch":
        for db in dbs:
            db.put_batch(op[1])
        for key, value in op[1].items():
            kvs.put(key, value)
            model.kv[key].append(value)
    elif kind == "delete":
        for db in dbs:
            db.delete(op[1])
        kvs.delete(op[1])
        model.kv[op[1]].append(None)
    elif kind == "txn":
        _, writes, commit = op
        for db in dbs:
            with db.transaction() as txn:
                for key in KEYS:
                    assert txn.get(key) == model.current(key)
                for key, value in writes.items():
                    if value is None:
                        txn.delete(key)
                    else:
                        txn.put(key, value)
                    assert txn.get(key) == value  # read-your-writes
                if not commit:
                    txn.abort()
        if commit:
            for key, value in writes.items():
                if value is None:
                    kvs.delete(key)
                else:
                    kvs.put(key, value)
                model.kv[key].append(value)
    elif kind == "bad_put":
        _, via, key, value = op
        for db in dbs:
            with pytest.raises(QueryError):
                if via == "put":
                    db.put(key, value)
                elif via == "put_batch":
                    db.put_batch({b"e": b"", key: value})
                else:
                    txn = db.transaction()
                    try:
                        txn.put(key, value)
                    finally:
                        txn.abort()
    elif kind == "insert":
        _, pk, price = op
        for db in dbs:
            db.insert("items", {"id": pk, "price": price})
        model.rows[pk] = price
    elif kind in ("update", "delete_rows"):
        (column, wanted) = op[1]
        where = ((column, SearchPredicate.eq(wanted)),)
        hit = sorted(
            pk for pk, price in model.rows.items()
            if _matches(op[1], pk, price)
        )
        for db in dbs:
            if kind == "update":
                assert db.update("items", {"price": op[2]}, where) == len(hit)
            else:
                assert db.delete_rows("items", where) == len(hit)
        for pk in hit:
            if kind == "update":
                model.rows[pk] = op[2]
            else:
                del model.rows[pk]
    elif kind == "doc_put":
        _, doc_id, document = op
        # A code of the other kind than a live document's (this id's
        # old version too) is refused, whatever shape the database is.
        refused = "code" in document and any(
            isinstance(other["code"], str) != isinstance(document["code"], str)
            for other in model.docs.values()
            if "code" in other
        )
        for db in dbs:
            if refused:
                with pytest.raises(QueryError, match="mixes"):
                    Collection(db, COLLECTION).put(doc_id, document)
            else:
                Collection(db, COLLECTION).put(doc_id, document)
        if not refused:
            model.docs[doc_id] = document
    elif kind == "doc_delete":
        _, doc_id = op
        for db in dbs:
            assert Collection(db, COLLECTION).delete(doc_id) == (
                doc_id in model.docs
            )
        model.docs.pop(doc_id, None)
    elif kind == "mark":
        for subject in subjects:
            height = subject.db.flush_ledger().height
            subject.marks.append((height, model.live(), dict(model.rows)))
    elif kind == "snapshot":
        for subject in subjects:
            if subject.snapshot is None:
                txn = subject.db.transaction(IsolationLevel.SNAPSHOT)
                subject.snapshot = (txn, txn._txn.start_ts, model.live())
    elif kind == "reopen":
        for subject in subjects:
            subject.reopen()
    else:
        _check(model, subjects, kvs)


def _rows(rows, keep=lambda pk, price: True):
    return [
        {"id": pk, "price": price}
        for pk, price in sorted(rows.items())
        if keep(pk, price)
    ]


def _by_id(rows):
    return sorted(rows, key=lambda row: row["id"])


def _postings(subject, model, column, keep):
    """The universal keys ``search`` must answer, in its order: value,
    then encoded key."""
    found = []
    for pk, price in model.rows.items():
        value = pk if column == "id" else price
        if not keep(value):
            continue
        logical_key = TABLE.logical_key(column, TABLE.pk_bytes(pk))
        ukey = UniversalKey(
            f"items.{column}",
            TABLE.pk_bytes(pk),
            subject.stamps[logical_key][-1],
            hash_bytes(encode_value("int", value)),
        )
        found.append((value, ukey.encode()))
    return [encoded for _value, encoded in sorted(found)]


def _check_db(subject, model):
    db = subject.db
    live = model.live()
    # -- the KV namespace -------------------------------------------------
    for key in KEYS:
        assert db.get(key) == model.current(key)
        value, proof = db.get_verified(key)
        assert subject.verified(value, proof) == model.current(key)
        logical_key = KV_PREFIX + key
        stamps = subject.stamps[logical_key]
        assert len(stamps) == len(model.kv[key])
        assert stamps == sorted(set(stamps))
        assert db.history(key) == [
            (stamp, value)
            for stamp, value in zip(stamps, model.kv[key])
            if value is not None
        ]
    expected = [model.current(key) for key in KEYS]
    assert db.get_many(KEYS) == expected
    assert db.get_many(key for key in KEYS) == expected
    assert subject.verified(*db.get_many_verified(KEYS)) == expected
    assert db.scan(b"", b"\xff") == sorted(live.items())
    middle = [(k, v) for k, v in sorted(live.items()) if b"b" <= k <= b"c"]
    assert db.scan(b"b", b"c") == middle
    assert subject.verified(*db.scan_verified(b"b", b"c")) == middle
    # -- the table and its indexed column -----------------------------------
    assert _by_id(db.select("items")) == _rows(model.rows)
    for column, predicate, keep in (
        ("id", SearchPredicate.eq(1), lambda value: value == 1),
        ("id", SearchPredicate.ge(2), lambda value: value >= 2),
        ("price", SearchPredicate.eq(1), lambda value: value == 1),
        ("price", SearchPredicate.ge(2), lambda value: value >= 2),
    ):
        assert _by_id(db.select("items", ((column, predicate),))) == _rows(
            model.rows,
            lambda pk, price, c=column, k=keep: k(pk if c == "id" else price),
        )
    for predicate, keep in (
        (SearchPredicate.ge(0), lambda value: True),
        (SearchPredicate.eq(2), lambda value: value == 2),
        (SearchPredicate.between(1, 2), lambda value: 1 <= value <= 2),
    ):
        wanted = _postings(subject, model, "price", keep)
        assert db.search(INDEXED, predicate) == wanted
        assert subject.verified(*db.search_verified(INDEXED, predicate)) == (
            wanted
        )
    assert db.search("items.id", SearchPredicate.ge(0)) == _postings(
        subject, model, "id", lambda value: True
    )
    # -- the document collection -------------------------------------------
    orders = Collection(db, COLLECTION)
    for doc_id in DOC_IDS:
        assert orders.get(doc_id) == model.docs.get(doc_id)
    assert orders.ids() == sorted(model.docs)
    for found, keep in (
        (orders.find("qty", 1), lambda qty: qty == 1),
        (orders.find("qty", low=1, high=2), lambda qty: 1 <= qty <= 2),
    ):
        assert found == sorted(
            (
                (doc_id, document)
                for doc_id, document in model.docs.items()
                if keep(document["qty"])
            ),
            key=lambda pair: (pair[1]["qty"], pair[0]),
        )
    for code in (1, "x"):
        assert orders.find("code", code) == sorted(
            (doc_id, document)
            for doc_id, document in model.docs.items()
            if document.get("code") == code
        )
    # -- what the script pinned earlier -------------------------------------
    for height, kv_then, rows_then in subject.marks:
        assert _by_id(db.select("items", as_of_block=height)) == _rows(
            rows_then
        )
        for key in KEYS:
            assert db.get_at_block(key, height) == kv_then.get(key)
    if subject.snapshot is not None:
        txn, start_ts, kv_then = subject.snapshot
        for key in KEYS:
            version = db.versions.read(KV_PREFIX + key, start_ts)
            assert live_value(version) == kv_then.get(key)
            if txn is not None:
                assert txn.get(key) == kv_then.get(key)


def _check_kvs(kvs, model):
    live = model.live()
    for key in KEYS:
        assert kvs.get(key) == model.current(key)
        history = kvs.history(key)
        assert [value for _stamp, value in history] == [
            value for value in model.kv[key] if value is not None
        ]
        stamps = [stamp for stamp, _value in history]
        assert stamps == sorted(set(stamps))
    assert kvs.scan(b"", b"\xff") == sorted(live.items())
    assert kvs.scan(b"b", b"c") == [
        (k, v) for k, v in sorted(live.items()) if b"b" <= k <= b"c"
    ]
    assert len(kvs) == len(live)


def _check(model, subjects, kvs):
    for subject in subjects:
        _check_db(subject, model)
    _check_kvs(kvs, model)


def _run(script):
    model = Model()
    subjects = [Subject(1), Subject(4)]
    kvs = ImmutableKVS()
    for op in script:
        _apply(op, model, subjects, kvs)
    _check(model, subjects, kvs)
    for subject in subjects:
        if subject.snapshot is not None and subject.snapshot[0] is not None:
            subject.snapshot[0].abort()


def test_version_store_matches_the_model(request):
    examples = request.config.getoption("--model-examples")
    settings(FIXED, max_examples=examples)(given(scripts)(_run))()
