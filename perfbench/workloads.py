"""Workload catalogue, input generator and shadow model.

Imports nothing from ``repro``: the program under test receives only
the generated inputs.  Every op sequence is a pure function of
``--seed``, so the work a run does (and therefore ledger height, tree
shape, cache contents and every count) repeats exactly for one seed.

``--seed`` chooses what is *read* and where the writes fall among the
reads.  What is *stored* does not change with it: the preloaded records
and the sequence of (key, value) pairs the puts write come from
``DATASET_SEED``.  The tree splits nodes on a hash of their content, so
what is stored decides its shape, and the shape decides bytes, memory
and latency.  Measured: trees of 20 000 records built from six
generator seeds came out 3, 4, 4, 5, 3 and 4 levels deep and a verified
point read took 30 us on the first and 39 us on the fourth, run after
run; with per-seed puts (zipf(0.99): ten keys take a third of the
writes, their leaves are 1 to 6 KB) stored bytes per user byte ran from
44.4 to 50.4 over ten seeds.  That is input, not noise, and a driver
that gives every run another seed would read it as a spread of 30 % on
every latency and 6 % on a byte ratio whose bound is 1 %.

An op is a tuple ``(kind, target, value)``: ``target`` is an index into
the sorted key list (``get``/``put``: one index, ``scan``: the first of
``SCAN_KEYS`` consecutive indices, ``mget``: a tuple of ``MGET_KEYS``
indices); ``value`` is the bytes a ``put`` writes, else ``None``.
"""

from __future__ import annotations

import bisect
import dataclasses
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

KEY_BYTES = 16
VALUE_BYTES = 100
RECORD_BYTES = KEY_BYTES + VALUE_BYTES
MGET_KEYS = 16
SCAN_KEYS = 32
PRELOAD_BLOCK = 1000
#: ``--seconds`` at which a workload runs its catalogued round count;
#: other values scale the round count, never the round's content.
NOMINAL_SECONDS = 10
DATASET_SEED = 3

Op = Tuple[str, object, Optional[bytes]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    http: bool
    durable: bool
    records: int
    #: Ops of each kind in one round (the stratified mix).
    mix: Mapping[str, int]
    #: Timed rounds at ``NOMINAL_SECONDS``.
    rounds: int
    warmup_ops: int
    #: ``uniform``: every key equally likely.  ``hot``: zipf(0.99) over
    #: the dataset's popularity order, for writes and point reads alike.
    #: ``latest``: writes uniform, point reads zipf(0.99) over recency of
    #: writing (most recently written first).
    keys: str
    count_ops: int = 2000
    traced_ops: int = 3000

    @property
    def round_ops(self) -> int:
        return sum(self.mix.values())

    def rounds_for(self, seconds: float) -> int:
        return max(2, round(self.rounds * seconds / NOMINAL_SECONDS))

    def mix_counts(self, total: int) -> Dict[str, int]:
        """The mix's proportions scaled to ``total`` ops."""
        return {
            kind: total * count // self.round_ops
            for kind, count in self.mix.items()
        }

    def smoke(self) -> "Workload":
        """The test scale: same code path, a fraction of the work."""
        return dataclasses.replace(
            self,
            records=2000,
            rounds=2,
            warmup_ops=self.warmup_ops // 10,
            count_ops=self.count_ops // 5,
            traced_ops=self.traced_ops // 5,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="embedded_read",
            why=(
                "in-process verified reads: only indexes, ledger, chunk "
                "store, hashing and verifier work, so engine changes show "
                "at full size; serve, node and durability are idle"
            ),
            http=False,
            durable=False,
            records=50_000,
            mix={"get": 3000, "mget": 1000, "scan": 1000},
            rounds=12,
            warmup_ops=10_000,
            keys="uniform",
        ),
        Workload(
            name="http_read",
            why=(
                "the same reads over loopback HTTP: serve and node carry "
                "almost all latency, so wire-framing and queue changes "
                "show here and engine changes should not"
            ),
            http=True,
            durable=False,
            records=50_000,
            mix={"get": 600, "mget": 200, "scan": 200},
            rounds=10,
            warmup_ops=3000,
            keys="uniform",
        ),
        Workload(
            name="http_durable_write",
            why=(
                "durable puts (fsync per commit) beside recency-skewed "
                "reads over HTTP: WAL, commit and tree-apply dominate, and "
                "a read gain paid for by writes shows"
            ),
            http=True,
            durable=True,
            records=20_000,
            mix={"put": 420, "get": 280},
            rounds=8,
            warmup_ops=2000,
            keys="latest",
        ),
        Workload(
            name="embedded_write",
            why=(
                "the engine write path with no fsync and no HTTP in front "
                "of it, skewed overwrites beside reads; where stored bytes "
                "per user byte and memory per put level off"
            ),
            http=False,
            durable=False,
            records=20_000,
            mix={"put": 750, "get": 1350, "mget": 450, "scan": 450},
            rounds=14,
            warmup_ops=8000,
            keys="hot",
        ),
    )
}


@dataclass(frozen=True)
class Dataset:
    #: Sorted, distinct, ``KEY_BYTES`` long.
    keys: Tuple[bytes, ...]
    #: ``values[i]`` is the preloaded value of ``keys[i]``.
    values: Tuple[bytes, ...]
    #: Key indices in the order the preload writes them.
    preload_order: Tuple[int, ...]
    #: Key indices from hottest to coldest.
    popularity: Tuple[int, ...]

    def preload_blocks(self) -> Iterator[Dict[bytes, bytes]]:
        """``PRELOAD_BLOCK``-key batches, one ledger block each."""
        order = self.preload_order
        for start in range(0, len(order), PRELOAD_BLOCK):
            yield {
                self.keys[i]: self.values[i]
                for i in order[start:start + PRELOAD_BLOCK]
            }

    @property
    def preload_block_count(self) -> int:
        return -(-len(self.keys) // PRELOAD_BLOCK)


def make_dataset(records: int) -> Dataset:
    rng = random.Random(f"{DATASET_SEED}:dataset")
    distinct = set()
    while len(distinct) < records:
        distinct.add(b"%016x" % rng.getrandbits(4 * KEY_BYTES))
    keys = tuple(sorted(distinct))
    values = tuple(rng.randbytes(VALUE_BYTES) for _ in keys)
    order = list(range(records))
    rng.shuffle(order)
    popularity = list(range(records))
    rng.shuffle(popularity)
    return Dataset(
        keys=keys,
        values=values,
        preload_order=tuple(order),
        popularity=tuple(popularity),
    )


class Zipf:
    """Ranks ``0..n-1`` with probability proportional to ``1/(rank+1)^theta``."""

    def __init__(self, n: int, theta: float = 0.99):
        self._cdf = list(
            accumulate(1.0 / (rank + 1) ** theta for rank in range(n))
        )
        self._total = self._cdf[-1]

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random() * self._total)


class OpStream:
    """The workload's op sequence, generated in execution order.

    Stateful only because ``latest`` reads follow the writes issued so
    far; the sequence is still a pure function of (seed, workload, the
    sizes of the batches asked for).  The n-th put writes the same key
    and value on every seed (module docstring).
    """

    def __init__(self, workload: Workload, dataset: Dataset, seed: int):
        self._rng = random.Random(f"{seed}:{workload.name}:ops")
        self._writes = random.Random(f"{DATASET_SEED}:{workload.name}:writes")
        self._n = len(dataset.keys)
        self._dist = workload.keys
        if self._dist != "uniform":
            self._zipf = Zipf(self._n)
        if self._dist == "hot":
            self._by_rank = dataset.popularity
        elif self._dist == "latest":
            self._written = list(dataset.preload_order)

    def _read_key(self) -> int:
        if self._dist == "hot":
            return self._by_rank[self._zipf.sample(self._rng)]
        if self._dist == "latest":
            return self._written[-1 - self._zipf.sample(self._rng)]
        return self._rng.randrange(self._n)

    def _write_key(self) -> int:
        if self._dist == "hot":
            return self._by_rank[self._zipf.sample(self._writes)]
        key = self._writes.randrange(self._n)
        if self._dist == "latest":
            self._written.append(key)
        return key

    def _op(self, kind: str) -> Op:
        if kind == "get":
            return (kind, self._read_key(), None)
        if kind == "mget":
            return (
                kind,
                tuple(self._read_key() for _ in range(MGET_KEYS)),
                None,
            )
        if kind == "scan":
            return (kind, self._rng.randrange(self._n - SCAN_KEYS + 1), None)
        return (kind, self._write_key(), self._writes.randbytes(VALUE_BYTES))

    def batch(self, counts: Mapping[str, int]) -> List[Op]:
        """``counts[kind]`` ops of each kind, in a seed-shuffled order."""
        kinds = [kind for kind, n in counts.items() for _ in range(n)]
        self._rng.shuffle(kinds)
        return [self._op(kind) for kind in kinds]


class Shadow:
    """What a correct database must answer, tracked op by op."""

    def __init__(self, dataset: Dataset):
        self._keys = dataset.keys
        self.values: List[bytes] = list(dataset.values)
        #: Ledger blocks sealed so far (a put's reply is its block height).
        self.blocks = dataset.preload_block_count
        self.puts = 0
        #: Key indices overwritten since the preload.
        self.dirty = set()

    @property
    def user_bytes(self) -> int:
        """Key+value bytes of every acknowledged write, preload included."""
        return (len(self._keys) + self.puts) * RECORD_BYTES

    def check(self, op: Op, result: object) -> bool:
        """Is ``result`` the right reply to ``op``?  Applies a put."""
        kind, target, value = op
        if kind == "get":
            return result == self.values[target]
        if kind == "mget":
            return list(result) == [self.values[i] for i in target]
        if kind == "scan":
            return [tuple(entry) for entry in result] == [
                (self._keys[i], self.values[i])
                for i in range(target, target + SCAN_KEYS)
            ]
        expected = self.blocks
        self.values[target] = value
        self.blocks += 1
        self.puts += 1
        self.dirty.add(target)
        return result == expected


def op_keys(dataset: Dataset, op: Op) -> Sequence[bytes]:
    """The key bytes ``op`` names (scan: its inclusive bounds)."""
    kind, target, _value = op
    if kind == "mget":
        return [dataset.keys[i] for i in target]
    if kind == "scan":
        return [dataset.keys[target], dataset.keys[target + SCAN_KEYS - 1]]
    return [dataset.keys[target]]
