"""Deterministic served objects, one per wire frame kind.

Shared by the golden-frame test, the wire mutation sweep and the node
fuzz.  ``python -m tests.wire_samples`` rewrites
``tests/unit/golden_wire_frames.json`` from them — for a change that
means to move the bytes (a node format bump); the golden test then
still holds the new frames to the keys, types and field order of the
old.  Nothing here depends on the clock: the
single-ledger database stamps commits from a logical counter, and the
sharded samples are compared by shape only.

A sample is ``(value, digest, truthful)``: the proof or digest, the
digest it verifies under, and — for proofs — a function telling
whether *every claim a decoded proof makes* is true of the database it
came from.  That is the sweep's oracle: a mutated frame may still
verify only if it still tells the truth.
"""

from typing import Callable, NamedTuple, Optional

from repro.core.database import SpitzDatabase
from repro.core.schema import KV_PREFIX
from repro.errors import QueryError
from repro.search.proofs import SearchPredicate
from repro.shard.database import ShardedDatabase


class Sample(NamedTuple):
    value: object
    digest: object
    truthful: Optional[Callable[[object], bool]] = None


def _kv_db() -> SpitzDatabase:
    db = SpitzDatabase(block_batch=4)
    for i in range(40):
        db.put(b"key:%02d" % i, b"value-%d" % i)
    db.flush_ledger()
    return db


def _search_db() -> SpitzDatabase:
    db = SpitzDatabase(indexed_columns=["items.name", "items.price"])
    db.sql(
        "CREATE TABLE items (id INT, name STR, price INT, PRIMARY KEY (id))"
    )
    rows = [(1, "apple", 10), (2, "banana", 20), (3, "cherry", 20),
            (4, "date", 30), (5, "apple", 40)]
    for pk, name, price in rows:
        db.sql(
            f"INSERT INTO items (id, name, price) "
            f"VALUES ({pk}, '{name}', {price})"
        )
    return db


def single_ledger_samples() -> dict:
    db = _kv_db()
    digest = db.digest()
    stored = db.ledger.get

    def entries_hold(proof) -> bool:
        return all(stored(key) == value for key, value in proof.entries)

    def range_holds(proof) -> bool:
        bounds = proof.range_proof
        return proof.entries == tuple(db.ledger.scan(bounds.low, bounds.high))

    def point_holds(proof) -> bool:
        return stored(proof.key) == proof.value

    samples = {
        "ledger_digest": Sample(digest, digest),
        "point": Sample(db.get_verified(b"key:03")[1], digest, point_holds),
        "absent": Sample(
            db.get_verified(b"no-such-key")[1], digest, point_holds
        ),
        "multi": Sample(
            db.get_many_verified([b"key:01", b"key:25", b"nope"])[1],
            digest, entries_hold,
        ),
        "range": Sample(
            db.scan_verified(b"key:02", b"key:09")[1], digest, range_holds
        ),
    }
    search = _search_db()

    def matches_hold(proof) -> bool:
        try:
            honest = search.search_verified(proof.column, proof.predicate)[1]
        except QueryError:
            return proof.matches == ()
        return proof.matches == honest.matches

    for name, column, predicate in (
        ("search_range", "items.price", SearchPredicate.between(15, 35)),
        ("search_eq", "items.name", SearchPredicate.eq("apple")),
        ("search_empty", "items.name", SearchPredicate.eq("zucchini")),
    ):
        proof = search.search_verified(column, predicate)[1]
        samples[name] = Sample(proof, search.digest(), matches_hold)
    return samples


def sharded_samples() -> dict:
    db = ShardedDatabase(num_shards=4)
    for i in range(24):
        db.put(b"wk%02d" % i, b"wv%02d" % i)

    def stored(key: bytes, value) -> bool:
        return key.startswith(KV_PREFIX) and (
            db.get(key[len(KV_PREFIX):]) == value
        )

    point = db.get_verified(b"wk05")[1]
    multi = db.get_many_verified([b"wk02", b"missing", b"wk19"])[1]
    return {
        "sharded_digest": Sample(point.digest, point.digest),
        "sharded_point": Sample(
            point, point.digest, lambda proof: stored(proof.key, proof.value)
        ),
        "sharded_multi": Sample(
            multi, multi.digest,
            lambda proof: all(
                stored(key, value) for key, value in proof.entries
            ),
        ),
    }


if __name__ == "__main__":
    import json
    from pathlib import Path

    from repro.serve.codec import encode_value

    golden = {
        name: json.dumps(encode_value(sample.value))
        for name, sample in sorted(
            {**single_ledger_samples(), **sharded_samples()}.items()
        )
    }
    path = Path(__file__).parent / "unit" / "golden_wire_frames.json"
    path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} frames to {path}")
