"""Property-based tests for core components: universal keys, the
value codec, MVCC snapshots, HLC ordering, and SQL round-trips."""

from hypothesis import given, settings, strategies as st

from repro.core.schema import decode_value, encode_value
from repro.core.sql import Select, parse
from repro.core.universal_key import UniversalKey
from repro.crypto.hashing import hash_bytes
from repro.txn.hlc import HybridLogicalClock
from repro.txn.mvcc import MVCCStore


# -- universal keys ---------------------------------------------------------

columns = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=8,
)


@given(
    column=columns,
    pk=st.binary(max_size=16),
    timestamp=st.integers(0, 2**60),
    value=st.binary(max_size=16),
)
@settings(max_examples=150, deadline=None)
def test_universal_key_round_trip(column, pk, timestamp, value):
    ukey = UniversalKey(column, pk, timestamp, hash_bytes(value))
    decoded = UniversalKey.decode(ukey.encode())
    assert decoded.column == column
    assert decoded.primary_key == pk
    assert decoded.timestamp == timestamp


@given(
    column=columns,
    pk=st.binary(max_size=16),
    stamps=st.lists(st.integers(0, 2**40), min_size=2, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_universal_key_prefix_encloses_versions(column, pk, stamps):
    low, high = UniversalKey.prefix(column, pk)
    for timestamp in stamps:
        encoded = UniversalKey(
            column, pk, timestamp, hash_bytes(b"v")
        ).encode()
        assert low <= encoded <= high


# -- value codec -------------------------------------------------------------

json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**30), 2**30),
        st.text(max_size=10),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=10,
)


@given(value=st.integers(-(2**62), 2**62))
def test_int_codec_round_trip(value):
    assert decode_value(encode_value("int", value)) == value


@given(value=st.floats(allow_nan=False, allow_infinity=False))
def test_float_codec_round_trip(value):
    assert decode_value(encode_value("float", value)) == value


@given(value=st.text(max_size=64))
def test_str_codec_round_trip(value):
    assert decode_value(encode_value("str", value)) == value


@given(value=st.one_of(st.lists(json_values, max_size=3),
                       st.dictionaries(st.text(max_size=4), json_values,
                                       max_size=3)))
@settings(max_examples=80, deadline=None)
def test_json_codec_round_trip(value):
    assert decode_value(encode_value("json", value)) == value


# -- MVCC snapshots -----------------------------------------------------------

@given(
    writes=st.lists(
        st.tuples(st.sampled_from("abc"), st.integers(0, 100)),
        min_size=1,
        max_size=20,
    ),
    probe=st.integers(0, 25),
)
@settings(max_examples=100, deadline=None)
def test_mvcc_snapshot_is_prefix_state(writes, probe):
    """Reading at snapshot ts yields exactly the last write at or
    before that timestamp — MVCC's core contract."""
    store = MVCCStore()
    model_at = {}
    state = {}
    for ts, (key, value) in enumerate(writes, start=1):
        store.install({key: value}, ts)
        state = dict(state)
        state[key] = value
        model_at[ts] = state
    snapshot = min(probe, len(writes))
    expected = model_at.get(snapshot, {})
    for key in "abc":
        version = store.read(key, snapshot)
        if key in expected:
            assert version.value == expected[key]
        else:
            assert version is None


# -- HLC -----------------------------------------------------------------------

@given(
    script=st.lists(
        st.tuples(st.sampled_from([0, 1]), st.booleans()),
        min_size=2,
        max_size=40,
    )
)
@settings(max_examples=100, deadline=None)
def test_hlc_causal_order_never_violated(script):
    """Timestamps strictly increase along every causal chain: local
    successor events on one node, and send -> receive edges between
    skewed nodes.  (Concurrent events on different nodes may tie —
    HLC only orders causality.)"""
    clocks = [
        HybridLogicalClock(physical_clock=lambda: 100),
        HybridLogicalClock(physical_clock=lambda: 37),  # far behind
    ]
    last_on_node = [None, None]
    for node, send in script:
        stamp = clocks[node].now()
        if last_on_node[node] is not None:
            assert stamp > last_on_node[node]
        last_on_node[node] = stamp
        if send:
            received = clocks[1 - node].update(stamp)
            assert received > stamp  # send happens-before receive
            if last_on_node[1 - node] is not None:
                assert received > last_on_node[1 - node]
            last_on_node[1 - node] = received


# -- SQL round trip --------------------------------------------------------------

identifiers = st.text(
    alphabet=st.sampled_from("abcdefgh"), min_size=1, max_size=6
)


@given(
    table=identifiers,
    column=identifiers,
    value=st.integers(-1000, 1000),
    limit=st.integers(1, 50),
)
@settings(max_examples=100, deadline=None)
def test_select_parse_round_trip(table, column, value, limit):
    statement = parse(
        f"SELECT {column} FROM {table} WHERE {column} = {value} "
        f"LIMIT {limit}"
    )
    assert isinstance(statement, Select)
    assert statement.table == table
    assert statement.columns == (column,)
    assert statement.where[0][1].value == value
    assert statement.limit == limit
