"""Property-based tests: SQL WHERE, aggregates and the document store
against plain-Python reference computations."""

import operator

from hypothesis import given, settings, strategies as st

from repro.core.database import SpitzDatabase
from repro.core.documents import DocumentStore
from repro.core.query import SearchPredicate

amounts = st.lists(
    st.integers(-1000, 1000), min_size=0, max_size=25
)


def _sales_db(values):
    db = SpitzDatabase(block_batch=8)
    db.sql("CREATE TABLE t (id INT, v INT, g STR, PRIMARY KEY (id))")
    for index, value in enumerate(values):
        group = "abc"[index % 3]
        db.sql(
            f"INSERT INTO t (id, v, g) VALUES ({index}, {value}, '{group}')"
        )
    return db


@given(values=amounts)
@settings(max_examples=40, deadline=None)
def test_aggregates_match_python(values):
    db = _sales_db(values)
    assert db.sql("SELECT COUNT(*) FROM t") == [{"count(*)": len(values)}]
    total = db.sql("SELECT SUM(v) FROM t")[0]["sum(v)"]
    assert total == (sum(values) if values else None)
    if values:
        assert db.sql("SELECT MIN(v) FROM t")[0]["min(v)"] == min(values)
        assert db.sql("SELECT MAX(v) FROM t")[0]["max(v)"] == max(values)
        avg = db.sql("SELECT AVG(v) FROM t")[0]["avg(v)"]
        assert abs(avg - sum(values) / len(values)) < 1e-9


@given(values=amounts)
@settings(max_examples=40, deadline=None)
def test_group_by_partitions_exactly(values):
    db = _sales_db(values)
    rows = db.sql("SELECT g, COUNT(*) FROM t GROUP BY g")
    reference = {}
    for index, _value in enumerate(values):
        group = "abc"[index % 3]
        reference[group] = reference.get(group, 0) + 1
    assert {row["g"]: row["count(*)"] for row in rows} == reference
    # Group counts always add back up to the table count.
    assert sum(row["count(*)"] for row in rows) == len(values)


@given(values=amounts, low=st.integers(-1000, 1000),
       span=st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_order_by_is_a_permutation_of_where(values, low, span):
    db = _sales_db(values)
    high = low + span
    ordered = db.sql(
        f"SELECT v FROM t WHERE v BETWEEN {low} AND {high} ORDER BY v"
    )
    got = [row["v"] for row in ordered]
    expected = sorted(v for v in values if low <= v <= high)
    assert got == expected


#: Each column's values and WHERE operands: small values collide, so
#: equalities hit; wide ones reach past any sentinel an index walk
#: might use for an open end.
OPERANDS = {
    "id": st.integers(-2, 14),
    "i": st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1)),
    "f": st.one_of(st.integers(-3, 3), st.floats()),
    "s": st.one_of(
        st.text("ab", max_size=2),
        st.text("a\U0010ffff", min_size=4, max_size=6),
    ),
    "b": st.booleans(),
}
PYTHON_OPS = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}


@st.composite
def conditions(draw):
    column = draw(st.sampled_from(sorted(OPERANDS)))
    op = draw(st.sampled_from(sorted(PYTHON_OPS) + ["between"]))
    low, high = draw(OPERANDS[column]), draw(OPERANDS[column])
    return column, op, low, high


def _holds(row, condition):
    column, op, low, high = condition
    if op == "between":
        return low <= row[column] <= high
    return PYTHON_OPS[op](row[column], low)


def _predicate(condition):
    column, op, low, high = condition
    if op == "between":
        return column, SearchPredicate.between(low, high)
    return column, SearchPredicate(op, low)


@given(
    rows=st.lists(
        st.tuples(*(OPERANDS[name] for name in ("i", "f", "s", "b"))),
        max_size=12,
    ),
    where=st.lists(conditions(), min_size=1, max_size=2),
)
@settings(max_examples=120, deadline=None)
def test_where_equals_a_python_filter_on_every_path(rows, where):
    db = SpitzDatabase()
    db.sql(
        "CREATE TABLE t (id INT, i INT, f FLOAT, s STR, b BOOL, "
        "PRIMARY KEY (id))"
    )
    model = []
    for pk, (i, f, s, b) in enumerate(rows):
        row = {"id": pk, "i": i, "f": float(f), "s": s, "b": b}
        db.insert("t", row)
        model.append(row)
    expected = [
        row["id"] for row in model
        if all(_holds(row, condition) for condition in where)
    ]
    clause = tuple(_predicate(condition) for condition in where)

    def ids(found):
        # Ids, not rows: a float column may hold NaN, and two NaNs
        # read back separately never compare equal.
        return sorted(row["id"] for row in found)

    assert ids(db.select("t", clause)) == expected
    if model:
        latest = db.ledger.height - 1
        assert ids(db.select("t", clause, as_of_block=latest)) == expected


doc_scripts = st.lists(
    st.tuples(
        st.sampled_from(["put", "delete"]),
        st.integers(0, 8),  # doc id
        st.integers(0, 50),  # field value
    ),
    max_size=30,
)


@given(script=doc_scripts)
@settings(max_examples=40, deadline=None)
def test_document_store_matches_dict_model(script):
    store = DocumentStore()
    collection = store.collection("c")
    model = {}
    for action, doc_number, value in script:
        doc_id = f"d{doc_number}"
        if action == "put":
            document = {"n": value}
            collection.put(doc_id, document)
            model[doc_id] = document
        else:
            assert collection.delete(doc_id) == (doc_id in model)
            model.pop(doc_id, None)
    assert collection.ids() == sorted(model)
    for doc_id, document in model.items():
        assert collection.get(doc_id) == document
    # find() agrees with a linear scan of the model.
    for probe in {value for _, _, value in script} | {0}:
        found = {doc_id for doc_id, _ in collection.find("n", value=probe)}
        expected = {
            doc_id for doc_id, doc in model.items() if doc["n"] == probe
        }
        assert found == expected
    assert store.db.verify_chain()
