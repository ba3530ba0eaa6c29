"""One commit path: every committed write set reaches the version store
through one ``MVCCStore.install`` call, whichever way it was written."""

from unittest import mock

import pytest

from repro.core.database import SpitzDatabase
from repro.durability import DurableDatabase
from repro.shard import ShardedDatabase
from repro.txn.mvcc import MVCCStore


@pytest.fixture
def installs():
    """Every ``MVCCStore.install`` call as ``(store, writes, commit_ts)``."""
    calls = []
    real = MVCCStore.install

    def counted(store, writes, commit_ts):
        calls.append((store, dict(writes), commit_ts))
        return real(store, writes, commit_ts)

    with mock.patch.object(MVCCStore, "install", counted):
        yield calls


def _commits(db):
    """``(statements, timestamp)`` of every commit the hooks report."""
    commits = []

    def hook(kind, data):
        if kind == "commit":
            commits.append(data[1:])

    db.add_commit_hook(hook)
    return commits


def test_an_auto_commit_put_installs_once(installs):
    db = SpitzDatabase()
    commits = _commits(db)
    db.put(b"k", b"v")
    db.delete(b"k")
    assert [(writes, ts) for _store, writes, ts in installs] == [
        ({b"k\x00k": b"v"}, commits[0][1]),
        ({b"k\x00k": None}, commits[1][1]),
    ]


def test_a_transaction_installs_once_at_its_commit_timestamp(installs):
    db = SpitzDatabase()
    commits = _commits(db)
    with db.transaction() as session:
        session.put(b"a", b"1")
        session.put(b"b", b"2")
        session.delete(b"c")
    txn = session._txn
    assert [(writes, ts) for _store, writes, ts in installs] == [
        ({b"k\x00a": b"1", b"k\x00b": b"2", b"k\x00c": None}, txn.commit_ts)
    ]
    assert commits == [((f"txn:{txn.txn_id}",), txn.commit_ts)]
    assert db.get(b"a") == b"1" and db.get_verified(b"b")[0] == b"2"


def test_a_cross_shard_batch_installs_once_per_branch(installs):
    db = ShardedDatabase(num_shards=2)
    items = {b"key%02d" % n: b"v%d" % n for n in range(8)}
    assert len(db.router.split_items(items)) == 2
    db.put_batch(items)
    stores = [store for store, _writes, _ts in installs]
    assert sorted(map(id, stores)) == sorted(
        id(shard.txn_manager.store) for shard in db.shards
    )
    assert sum(len(writes) for _store, writes, _ts in installs) == len(items)
    assert all(db.get(key) == value for key, value in items.items())


def test_a_wal_replay_installs_once_per_commit_record(tmp_path, installs):
    with DurableDatabase.open(tmp_path) as ddb:
        commits = _commits(ddb.db)
        ddb.put(b"a", b"1")
        ddb.put_batch({b"b": b"2", b"c": b"3"})
        with ddb.transaction() as txn:
            txn.put(b"a", b"4")
        ddb.delete(b"b")
        digest = ddb.digest()
    written = [(writes, ts) for _store, writes, ts in installs]
    assert [ts for _writes, ts in written] == [ts for _s, ts in commits]
    installs.clear()
    with DurableDatabase.open(tmp_path) as reopened:
        assert reopened.digest() == digest
    assert [(writes, ts) for _store, writes, ts in installs] == written

