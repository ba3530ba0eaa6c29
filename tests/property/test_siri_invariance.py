"""Property-based tests: SIRI structural invariance (hypothesis).

The defining property of the family (paper Section 3.1, ref [59]):
for any key/value set and any partition of it into ordered update
batches (including deletes of absent keys), the final root digest
depends only on the final logical content.
"""

from hypothesis import example, given, settings, strategies as st

from repro.crypto.hashing import hash_bytes
from repro.forkbase.chunk_store import MAX_CHAIN, ChunkStore, Delta
from repro.forkbase.chunker import RollingChunker
from repro.forkbase.store import ForkBase
from repro.indexes.mbt import MerkleBucketTree
from repro.indexes.mpt import MerklePatriciaTrie
from repro.indexes.pos_tree import PosTree
from repro.indexes.siri import decode_node

keys = st.binary(min_size=1, max_size=12)
values = st.binary(min_size=0, max_size=16)

#: A script of (key, value-or-delete) operations.
scripts = st.lists(
    st.tuples(keys, st.one_of(values, st.none())),
    min_size=0,
    max_size=60,
)


def _final_state(script):
    state = {}
    for key, value in script:
        if value is None:
            state.pop(key, None)
        else:
            state[key] = value
    return state


def _apply_script(index, script, batch_size):
    batch = {}
    for key, value in script:
        batch[key] = value
        if len(batch) >= batch_size:
            index = index.apply(batch)
            batch = {}
    if batch:
        index = index.apply(batch)
    return index


def _check_invariance(make_index, script, batch_size):
    store = ChunkStore()
    scripted = _apply_script(make_index(store), script, batch_size)
    state = _final_state(script)
    fresh = make_index(store).apply(state) if state else make_index(store)
    assert scripted.root == fresh.root
    assert dict(scripted.items()) == state


@given(script=scripts, batch_size=st.integers(1, 7))
@settings(max_examples=120, deadline=None)
def test_pos_tree_invariance(script, batch_size):
    _check_invariance(
        lambda store: PosTree.empty(store, mask_bits=2), script, batch_size
    )


#: Few distinct keys, so overwrites and deletes land on entries that
#: exist; with ``mask_bits=1`` every second entry ends a node, so the
#: trees are many levels deep and deletes keep removing split points.
deep_scripts = st.lists(
    st.tuples(
        st.integers(0, 150).map(lambda n: b"k%03d" % n),
        st.one_of(
            st.integers(0, 3).map(lambda n: b"v%d" % n), st.none()
        ),
    ),
    min_size=30,
    max_size=300,
)


def _reachable(store, address):
    """Addresses of every node under (and including) ``address``, and
    of the value chunks their leaves name."""
    tag, pairs = decode_node(store.get(address))
    found = {address}
    for _key, digest in pairs:
        if tag == "B":
            found |= _reachable(store, digest)
        else:
            found.add(digest)
    return found


@given(script=deep_scripts, batch_size=st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_pos_tree_deep_trees_match_bulk_build(script, batch_size):
    """After every batch: the root ``from_items`` builds for the same
    content, nothing written that the new root does not reach, and
    every earlier root still reads its own content."""
    store = ChunkStore()
    tree = PosTree.empty(store, mask_bits=1)
    earlier = []
    for start in range(0, len(script), batch_size):
        batch = dict(script[start:start + batch_size])
        state = _final_state(script[:start + batch_size])
        before = set(store.addresses())
        tree = tree.apply(batch)
        bulk = PosTree.from_items(ChunkStore(), list(state.items()), 1)
        assert tree.root == bulk.root
        assert tree.height == bulk.height
        assert tree.count == len(state)
        written = set(store.addresses()) - before
        assert written <= _reachable(store, tree.root)
        earlier.append((tree.root, state))
    for root, state in earlier:
        assert dict(PosTree.load(store, root, mask_bits=1).items()) == state


def _nodes_under(store, address):
    """Addresses of every node under (and including) ``address``."""
    tag, pairs = decode_node(store.get(address))
    found = {address}
    if tag == "B":
        for _key, child in pairs:
            found |= _nodes_under(store, child)
    return found


#: Twenty keys, then all but the first deleted: the root that is left
#: hangs under seven single-child branches that the apply steps past.
_COLLAPSING = [(b"k%03d" % n, b"v") for n in range(20)] + [
    (b"k%03d" % n, None) for n in range(1, 20)
]


@given(script=deep_scripts, batch_size=st.integers(1, 40))
@example(script=_COLLAPSING, batch_size=20)
@settings(max_examples=150, deadline=None)
def test_pos_tree_decode_cache_holds_the_tip(script, batch_size):
    """After every batch the store's decoded nodes are exactly the new
    root's — levels that deletes collapse included — and every earlier
    root still answers and proves its own content, decoding what it
    misses from the chunks."""
    store = ChunkStore()
    tree = PosTree.empty(store, mask_bits=1)
    earlier = []
    for start in range(0, len(script), batch_size):
        tree = tree.apply(dict(script[start:start + batch_size]))
        assert set(store.decode_cache) == _nodes_under(store, tree.root)
        earlier.append((tree.root, _final_state(script[:start + batch_size])))
    for root, state in earlier:
        old = PosTree.load(store, root, mask_bits=1)
        entries, ranged = old.scan_with_proof(b"k", b"l")
        assert entries == sorted(state.items())
        assert ranged.verify(root)
        for key in [*sorted(state)[:8], b"k999"]:
            value, point = old.get_with_proof(key)
            assert value == old.get(key) == state.get(key)
            assert point.verify(root)


#: Forty keys, then one of them cycled through three values: every
#: retired version is a delta, its first value is put again twice.
_TOGGLING = [(b"k%03d" % n, b"v0") for n in range(40)] + [
    (b"k007", b"v%d" % (n % 3)) for n in range(1, 40)
]


def _links(held, order, data):
    """How many deltas a read of ``data`` walks to a whole chunk (past
    ``MAX_CHAIN``: stops, as a read does); a delta names its base by
    its position in ``order``."""
    count = 0
    while isinstance(data, Delta) and count <= MAX_CHAIN:
        data, count = held.get(order[data.head()[0]]), count + 1
    return count


@given(script=deep_scripts, batch_size=st.integers(1, 40))
@example(script=_TOGGLING, batch_size=1)
@example(script=_COLLAPSING, batch_size=1)
@settings(max_examples=150, deadline=None)
def test_pos_tree_history_as_reverse_deltas(script, batch_size):
    """Puts, deletes and re-puts of old values, with splits and
    collapses: every chunk under every historical root rebuilds to
    bytes that hash to its address, no chain is longer than
    ``MAX_CHAIN``, ``physical_bytes`` is what is held, and the tip is
    the tree ``from_items`` builds for the same content."""
    store = ChunkStore()
    tree = PosTree.empty(store, mask_bits=1)
    roots = [tree.root]
    for start in range(0, len(script), batch_size):
        tree = tree.apply(dict(script[start:start + batch_size]))
        roots.append(tree.root)
    held = dict(store.items())
    order = list(held)
    assert all(
        _links(held, order, data) <= MAX_CHAIN for data in held.values()
    )
    assert ChunkStore().load(
        (data, isinstance(data, Delta)) for data in held.values()
    ) == list(held)
    assert store.stats.physical_bytes == sum(map(len, held.values()))
    for root in roots:
        for address in _reachable(store, root):
            assert hash_bytes(store.get(address)) == address
    state = _final_state(script)
    assert tree.root == PosTree.from_items(
        ChunkStore(), list(state.items()), 1
    ).root


#: A script of page writes (None: delete the page): enough names for a
#: map of several nodes, some outside ASCII, and pages long enough to
#: span several chunks of the small chunker below.
page_scripts = st.lists(
    st.tuples(
        st.one_of(
            st.integers(0, 99).map(lambda n: f"wiki/page-{n:02d}"),
            st.sampled_from(["a", "é", "页"]),
        ),
        st.one_of(st.binary(max_size=300), st.none()),
    ),
    max_size=80,
)


@given(script=page_scripts, commit_every=st.integers(1, 8), data=st.data())
@settings(max_examples=80, deadline=None)
def test_forkbase_map_invariance(script, commit_every, data):
    """ForkBase's map is a POS-tree: the same final pages, reached
    through any order of puts and deletes and any commit batching, give
    the same commit root."""
    chunker = RollingChunker(mask_bits=6, window=16, min_size=16, max_size=256)
    scripted = ForkBase(chunker)
    final = {}
    for step, (page, content) in enumerate(script, 1):
        if content is None:
            scripted.delete(page)
            final.pop(page, None)
        else:
            scripted.put(page, content)
            final[page] = content
        if step % commit_every == 0:
            scripted.commit()
    fresh = ForkBase(chunker)
    for page in data.draw(st.permutations(sorted(final))):
        fresh.put(page, final[page])
    assert scripted.commit().root == fresh.commit().root
    assert {page: scripted.get(page) for page in scripted.keys()} == final


@given(script=scripts, batch_size=st.integers(1, 7))
@settings(max_examples=120, deadline=None)
def test_mpt_invariance(script, batch_size):
    _check_invariance(
        MerklePatriciaTrie.empty, script, batch_size
    )


@given(script=scripts, batch_size=st.integers(1, 7))
@settings(max_examples=100, deadline=None)
def test_mbt_invariance(script, batch_size):
    _check_invariance(
        lambda store: MerkleBucketTree.empty(store, buckets=8),
        script,
        batch_size,
    )


@given(script=scripts)
@settings(max_examples=60, deadline=None)
def test_pos_tree_proofs_always_verify(script):
    store = ChunkStore()
    tree = _apply_script(PosTree.empty(store, mask_bits=2), script, 5)
    state = _final_state(script)
    for key in list(state)[:10]:
        value, proof = tree.get_with_proof(key)
        assert value == state[key]
        assert PosTree.verify_proof(proof, tree.root)
    value, proof = tree.get_with_proof(b"\xffnot-a-key")
    assert value is None
    assert PosTree.verify_proof(proof, tree.root)


@given(script=scripts)
@settings(max_examples=60, deadline=None)
def test_pos_tree_load_round_trip(script):
    store = ChunkStore()
    tree = _apply_script(PosTree.empty(store, mask_bits=2), script, 4)
    loaded = PosTree.load(store, tree.root, mask_bits=2)
    assert loaded.root == tree.root
    assert list(loaded.items()) == list(tree.items())
    # A post-load update must behave identically to the original.
    update = {b"new-key": b"new-value"}
    assert loaded.apply(update).root == tree.apply(update).root
