"""Property-based tests for the verifiable search plane.

The load-bearing properties:

- the order-preserving value codec really preserves order;
- ``InvertedIndex.matching`` — the one walk — equals the brute-force
  filter over everything indexed, for every predicate shape;
- postings returned to callers alias nothing — mutating a result list
  can never corrupt the index;
- a ``SearchProof`` built over arbitrary data verifies and carries
  exactly the brute-force answer, for every predicate shape;
- ``search`` and ``search_verified`` give the same universal keys,
  operands of the wrong type for the column included, ints past ±2⁵³
  included;
- the ledger root committing the postings is insertion-order invariant.
"""

import operator
import random

from hypothesis import example, given, settings, strategies as st

from repro.core.database import SpitzDatabase
from repro.core.ledger import SpitzLedger
from repro.core.query import SearchPredicate
from repro.forkbase.chunk_store import ChunkStore
from repro.indexes.inverted import (
    InvertedIndex,
    decode_search_value,
    encode_search_value,
)
from repro.search.committed import (
    decode_postings,
    encode_postings,
    posting_key,
    posting_writes,
)
from repro.search.proofs import build_search_proof

#: Indexable numerics: every int an INT column holds (64-bit signed,
#: its edges included) and finite floats.
ints = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([
        -(2**63), -(2**63) + 1, -(2**53) - 1, 2**53, 2**53 + 1,
        2**63 - 2, 2**63 - 1,
    ]),
)
numerics = st.one_of(
    ints, st.floats(allow_nan=False, allow_infinity=False, width=64),
)
strings = st.text(max_size=12)
ukeys = st.binary(min_size=1, max_size=12)


# -- value codec ------------------------------------------------------------


@given(a=numerics, b=numerics)
@example(a=0.0, b=-0.0)
@example(a=2**53, b=2**53 + 1)
@example(a=2**53 + 1, b=float(2**53))
@settings(max_examples=200, deadline=None)
def test_numeric_encoding_preserves_order(a, b):
    ea, eb = encode_search_value(a), encode_search_value(b)
    assert (ea < eb) == (a < b)
    assert (ea == eb) == (a == b)


@given(a=strings, b=strings)
@settings(max_examples=200, deadline=None)
def test_string_encoding_preserves_order(a, b):
    ea, eb = encode_search_value(a), encode_search_value(b)
    assert (ea < eb) == (a < b)
    assert (ea == eb) == (a == b)


@given(value=st.one_of(numerics, strings))
@settings(max_examples=200, deadline=None)
def test_value_codec_round_trips(value):
    assert decode_search_value(encode_search_value(value)) == value


@given(entries=st.lists(ukeys, max_size=20))
@settings(max_examples=150, deadline=None)
def test_postings_codec_round_trips_canonically(entries):
    blob = encode_postings(entries)
    assert decode_postings(blob) == tuple(sorted(set(entries)))
    # Canonical: any permutation encodes to the same bytes.
    shuffled = list(entries)
    random.Random(0).shuffle(shuffled)
    assert encode_postings(shuffled) == blob


# -- inverted index vs brute force ------------------------------------------


rows_numeric = st.lists(
    st.tuples(st.integers(0, 30), ukeys), min_size=1, max_size=40
)
rows_string = st.lists(
    st.tuples(st.text(min_size=1, max_size=4), ukeys),
    min_size=1,
    max_size=40,
)


#: Brute-force meaning of each walk-answerable op.
BRUTE = {
    "eq": operator.eq,
    "ge": operator.ge,
    "gt": operator.gt,
    "le": operator.le,
    "lt": operator.lt,
}
ops = st.sampled_from(sorted(BRUTE) + ["between"])


def _predicate(op, low, high):
    if op == "between":
        return SearchPredicate.between(low, high)
    return SearchPredicate(op, value=low)


def _brute(op, low, high, value):
    if op == "between":
        return low <= value <= high
    return BRUTE[op](value, low)


@given(
    rows=rows_numeric,
    op=ops,
    low=st.integers(-2, 32),
    span=st.integers(0, 12),
)
@settings(max_examples=150, deadline=None)
def test_numeric_range_equals_brute_force(rows, op, low, span):
    index = InvertedIndex()
    for value, ukey in rows:
        index.add("t.q", value, ukey)
    high = low + span
    expected = sorted(
        {ukey for value, ukey in rows if _brute(op, low, high, value)}
    )
    found = index.matching("t.q", _predicate(op, low, high))
    assert sorted(set(found)) == expected


@given(rows=rows_string, op=ops, low=strings, high=strings)
@settings(max_examples=150, deadline=None)
def test_string_range_equals_brute_force(rows, op, low, high):
    if low > high:
        low, high = high, low
    index = InvertedIndex()
    for value, ukey in rows:
        index.add("t.s", value, ukey)
    expected = sorted(
        {ukey for value, ukey in rows if _brute(op, low, high, value)}
    )
    found = index.matching("t.s", _predicate(op, low, high))
    assert sorted(set(found)) == expected


@given(rows=rows_numeric)
@settings(max_examples=100, deadline=None)
def test_range_boundaries_are_inclusive(rows):
    index = InvertedIndex()
    for value, ukey in rows:
        index.add("t.q", value, ukey)
    value, ukey = rows[0]
    assert ukey in index.matching("t.q", SearchPredicate.between(value, value))


@given(rows=rows_numeric)
@settings(max_examples=100, deadline=None)
def test_mutating_returned_postings_cannot_corrupt_index(rows):
    index = InvertedIndex()
    for value, ukey in rows:
        index.add("t.q", value, ukey)
    value = rows[0][0]
    before = list(index.lookup("t.q", value))
    stolen = index.lookup("t.q", value)
    stolen.clear()
    stolen.append(b"injected")
    walked = index.matching("t.q", SearchPredicate.eq(value))
    walked.reverse()
    walked.append(b"also-injected")
    assert index.lookup("t.q", value) == before
    assert b"injected" not in index.lookup("t.q", value)
    assert b"also-injected" not in index.matching(
        "t.q", SearchPredicate.eq(value)
    )


# -- underlying ordered structures vs brute force ---------------------------


@given(
    entries=st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 9)),
        min_size=1,
        max_size=40,
    ),
    low=st.integers(-2, 42),
    span=st.integers(0, 15),
)
@settings(max_examples=150, deadline=None)
def test_skiplist_range_equals_brute_force(entries, low, span):
    from repro.indexes.skiplist import SkipList

    index = SkipList()
    model = {}
    for key, value in entries:
        index.insert(key, value)
        model[key] = value
    high = low + span
    expected = sorted(
        (key, value) for key, value in model.items() if low <= key <= high
    )
    assert list(index.range(low, high)) == expected
    # Exclusive high drops exactly the boundary entry, nothing else.
    exclusive = list(index.range(low, high, inclusive=False))
    assert exclusive == [kv for kv in expected if kv[0] != high]


@given(
    entries=st.lists(
        st.tuples(st.binary(max_size=4), st.integers(0, 9)),
        min_size=1,
        max_size=40,
    ),
    prefix=st.binary(max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_radix_prefix_equals_brute_force(entries, prefix):
    from repro.indexes.radix import RadixTree

    tree = RadixTree()
    model = {}
    for key, value in entries:
        tree.insert(key, value)
        model[key] = value
    expected = sorted(
        (key, value)
        for key, value in model.items()
        if key.startswith(prefix)
    )
    assert sorted(tree.prefix_items(prefix)) == expected


# -- end-to-end proof property ----------------------------------------------


predicates = st.one_of(
    st.builds(SearchPredicate.eq, st.integers(0, 30)),
    st.builds(SearchPredicate.ge, st.integers(0, 30)),
    st.builds(SearchPredicate.gt, st.integers(0, 30)),
    st.builds(SearchPredicate.le, st.integers(0, 30)),
    st.builds(SearchPredicate.lt, st.integers(0, 30)),
    st.builds(
        lambda low, span: SearchPredicate.between(low, low + span),
        st.integers(0, 30),
        st.integers(0, 10),
    ),
)


@given(rows=rows_numeric, predicate=predicates)
@settings(max_examples=60, deadline=None)
def test_search_proof_carries_exact_brute_force_answer(rows, predicate):
    ledger = SpitzLedger(ChunkStore())
    inverted = InvertedIndex()
    for value, ukey in rows:
        inverted.add("t.q", value, ukey)
    ledger.append_block(posting_writes(inverted, ["t.q"]))
    proof = build_search_proof(ledger, "t.q", predicate)
    assert proof.verify(ledger.digest().chain_digest)
    expected = sorted(
        {ukey for value, ukey in rows if predicate.matches(value)}
    )
    assert sorted(set(proof.ukeys)) == expected
    # The unverified path answers identically (as a set of ukeys).
    assert sorted(set(inverted.matching("t.q", predicate))) == expected


def _any_predicate(operands):
    return st.one_of(
        st.builds(
            SearchPredicate,
            st.sampled_from(sorted(BRUTE)),
            value=operands,
        ),
        st.tuples(operands, operands).map(
            lambda pair: SearchPredicate.between(*sorted(pair))
        ),
    )


any_predicates = st.one_of(_any_predicate(numerics), _any_predicate(strings))


@given(
    numbers=st.lists(numerics, min_size=1, max_size=12),
    whole=st.lists(ints, min_size=1, max_size=12),
    words=st.lists(strings, min_size=1, max_size=12),
    probes=st.lists(
        st.tuples(st.sampled_from(["t.n", "t.i", "t.s"]), any_predicates),
        min_size=1,
        max_size=6,
    ),
)
@example(
    numbers=[0, 1], whole=[2**53, 2**53 + 1], words=["a", "b"],
    probes=[("t.i", SearchPredicate.ge(0))],
)
@settings(max_examples=40, deadline=None)
def test_search_and_search_verified_agree(numbers, whole, words, probes):
    db = SpitzDatabase(indexed_columns=["t.n", "t.i", "t.s"])
    db.sql(
        "CREATE TABLE t (id INT, n FLOAT, i INT, s STR, PRIMARY KEY (id))"
    )
    for pk, (number, integer, word) in enumerate(zip(numbers, whole, words)):
        db.insert("t", {"id": pk, "n": number, "i": integer, "s": word})
    for column, predicate in probes:
        ukeys, proof = db.search_verified(column, predicate)
        assert proof.verify(db.digest().chain_digest)
        assert db.search(column, predicate) == ukeys


@given(rows=rows_string)
@settings(max_examples=60, deadline=None)
def test_committed_root_is_insertion_order_invariant(rows):
    def build(ordering):
        ledger = SpitzLedger(ChunkStore())
        inverted = InvertedIndex()
        for value, ukey in ordering:
            inverted.add("t.s", value, ukey)
            ledger.append_block({
                posting_key("t.s", value): encode_postings(
                    inverted.lookup("t.s", value)
                ),
            })
        return ledger.tree.root

    shuffled = list(rows)
    random.Random(7).shuffle(shuffled)
    assert build(rows) == build(shuffled)
