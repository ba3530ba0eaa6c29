"""The sharded database facade.

Partitions the KV keyspace across N fully independent shards — each an
entire :class:`~repro.core.database.SpitzDatabase` with its own
POS-tree ledger, chunk store, metrics registry, and (optionally) its
own write-ahead log — routed by universal-key hash
(:mod:`repro.shard.router`).

Write paths:

- **single-shard** (one key, or a batch whose keys all route to one
  shard) — goes straight to that shard's auto-commit path, no
  coordination;
- **multi-shard batches** — one global transaction through
  :class:`~repro.txn.two_pc.TwoPhaseCoordinator`, every shard a 2PC
  participant allocating from its own per-node
  :class:`~repro.txn.hlc.HlcOracle`; prepare/commit messages carry the
  coordinator's HLC stamp and votes/acks carry the shards' stamps
  back, so cross-shard commits are causally ordered without a central
  oracle (Section 5.2).

Read paths return plain values (routed) or sharded proofs whose
membership branches reach the digest-of-digests
(:mod:`repro.shard.digest`).  Proof and per-shard digest are captured
under the answering shard's commit lock, so a proof can never pair a
stale block witness with a newer shard leaf.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.database import SpitzDatabase, put_value
from repro.core.ledger import LedgerDigest
from repro.core.schema import KV_PREFIX
from repro.errors import QueryError
from repro.indexes.pos_tree import DEFAULT_MASK_BITS
from repro.obs.metrics import MetricsRegistry
from repro.shard.digest import (
    ShardedDigest,
    anchor_shards,
    digest_of_digests,
)
from repro.shard.proofs import (
    ShardedMultiPart,
    ShardedMultiProof,
    ShardedProof,
)
from repro.shard.router import ShardRouter
from repro.txn.hlc import HlcOracle, HybridLogicalClock
from repro.txn.two_pc import Participant, TwoPhaseCoordinator


def _seconds_clock() -> int:
    """Wall clock at one-second resolution.

    HLC stamps pack as ``(wall << 20 | logical) << 10 | node`` and end
    up as MVCC commit timestamps, which universal keys encode in 8
    bytes.  Millisecond walls overflow that field (~2^61 already);
    second resolution fits for decades and the logical counter absorbs
    all intra-second ordering.
    """
    return int(time.time())


def make_shard_oracle(node_id: int) -> HlcOracle:
    """Per-shard HLC oracle (second-resolution wall clock)."""
    return HlcOracle(
        node_id, HybridLogicalClock(physical_clock=_seconds_clock)
    )


class ShardedDatabase:
    """N independent shard ledgers behind one digest-of-digests.

    Duck-compatible with the :class:`SpitzDatabase` surface the request
    handler dispatches against (KV reads/writes, history, scan, digest,
    stats); SQL and verified scans stay single-ledger features.

    ``durable_root`` opens every shard through crash recovery under
    ``<root>/shard-NN`` with its own WAL — commits on different shards
    then fsync independently, which is where multi-shard write
    throughput scaling comes from on real hardware.
    """

    #: Coordinator's HLC node id sits one past the largest shard id.
    MAX_SHARDS = (1 << HlcOracle.NODE_BITS) - 1

    def __init__(
        self,
        num_shards: int = 4,
        mask_bits: int = DEFAULT_MASK_BITS,
        block_batch: int = 1,
        metrics: Optional[MetricsRegistry] = None,
        durable_root: Optional[str] = None,
        sync_every: int = 1,
    ):
        if not 1 <= num_shards <= self.MAX_SHARDS:
            raise ValueError(
                f"num_shards must be in 1..{self.MAX_SHARDS}"
            )
        self.num_shards = num_shards
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Held by the request handler around verified dispatches.  The
        #: facade has no global commit path (that is the point), so
        #: this lock only serializes handler-level proof capture.
        self.commit_lock = threading.RLock()
        self.router = ShardRouter(num_shards)
        self.shards: List[SpitzDatabase] = []
        self._durables: list = []
        self._shard_registries: List[MetricsRegistry] = []
        for shard_id in range(num_shards):
            registry = MetricsRegistry()
            # Stage spans must land in the facade registry's tracer to
            # join live request traces (the per-shard registry has no
            # active trace of its own); counters stay per-shard.
            registry.tracer = self.metrics.tracer
            self._shard_registries.append(registry)
            oracle = make_shard_oracle(shard_id)
            if durable_root is not None:
                from repro.durability import DurableDatabase

                durable = DurableDatabase.open(
                    Path(durable_root) / f"shard-{shard_id:02d}",
                    sync_every=sync_every,
                    mask_bits=mask_bits,
                    block_batch=block_batch,
                    metrics=registry,
                    oracle=oracle,
                )
                self._durables.append(durable)
                self.shards.append(durable.db)
            else:
                self.shards.append(
                    SpitzDatabase(
                        mask_bits=mask_bits,
                        block_batch=block_batch,
                        metrics=registry,
                        oracle=oracle,
                    )
                )
        self._participant_names = [
            f"shard-{shard_id}" for shard_id in range(num_shards)
        ]
        participants = [
            Participant(name, shard.txn_manager)
            for name, shard in zip(self._participant_names, self.shards)
        ]
        self.participants = participants
        self.coordinator = TwoPhaseCoordinator(
            participants, oracle=make_shard_oracle(num_shards)
        )
        self._c_direct = self.metrics.counter("shard.writes_direct")
        self._c_cross = self.metrics.counter("shard.writes_2pc")
        self._c_reads = self.metrics.counter("shard.reads")
        self._c_proofs = self.metrics.counter("shard.proofs")
        self.metrics.gauge("shard.count").set(num_shards)

    # ------------------------------------------------------------------
    # write paths
    # ------------------------------------------------------------------

    def shard_of(self, key: bytes) -> int:
        return self.router.shard_of(key)

    def put(self, key: bytes, value: bytes):
        """Single-key write: routed direct, no coordination."""
        self._c_direct.inc()
        return self.shards[self.shard_of(key)].put(key, value)

    def delete(self, key: bytes):
        self._c_direct.inc()
        return self.shards[self.shard_of(key)].delete(key)

    def put_batch(self, items: Mapping[bytes, bytes]):
        """Batch write: direct when one shard, 2PC when several.

        The multi-shard path stages one transaction branch per
        involved shard (prepare), then commits them all under one
        logged decision; each branch's commit seals that shard's
        ledger block through the shard's one commit function.
        """
        groups = self.router.split_items(items)
        if not groups:
            return None
        if len(groups) == 1:
            shard_id, sub = groups.popitem()
            self._c_direct.inc()
            return self.shards[shard_id].put_batch(sub)
        writes = {
            self._participant_names[shard_id]: {
                KV_PREFIX + key: put_value(key, value)
                for key, value in sub.items()
            }
            for shard_id, sub in groups.items()
        }
        self._c_cross.inc()
        self.coordinator.execute(writes)
        return None

    def put_with_proof(self, key: bytes, value: bytes):
        """Write plus a sharded inclusion proof of the new value."""
        block = self.put(key, value)
        _value, proof = self.get_verified(key)
        return block, proof

    # ------------------------------------------------------------------
    # read paths
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        self._c_reads.inc()
        return self.shards[self.shard_of(key)].get(key)

    def get_many(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        keys = list(keys)
        self._c_reads.inc(len(keys) or 1)
        return [self.shards[self.shard_of(key)].get(key) for key in keys]

    def history(self, key: bytes) -> List[Tuple[int, bytes]]:
        return self.shards[self.shard_of(key)].history(key)

    def scan(self, low: bytes, high: bytes) -> List[Tuple[bytes, bytes]]:
        """Unverified scan: fan out to every shard, merge by key."""
        results: List[Tuple[bytes, bytes]] = []
        for shard in self.shards:
            results.extend(shard.scan(low, high))
        results.sort(key=lambda pair: pair[0])
        return results

    def scan_verified(self, low: bytes, high: bytes):
        raise QueryError(
            "verified scans are not supported on a sharded database: "
            "a range spans shards and has no single covering proof"
        )

    def sql(self, text: str):
        raise QueryError(
            "SQL is not supported on a sharded database; use the KV API"
        )

    def search(self, column: str, predicate):
        raise QueryError(
            "search is not supported on a sharded database: postings "
            "span shard ledgers and have no single committed index"
        )

    def search_verified(self, column: str, predicate):
        raise QueryError(
            "verified search is not supported on a sharded database: "
            "postings span shard ledgers and have no single committed "
            "index root to anchor the proof"
        )

    # ------------------------------------------------------------------
    # verified reads against the digest-of-digests
    # ------------------------------------------------------------------

    def _shard_digests(
        self, pinned: Mapping[int, LedgerDigest]
    ) -> List[LedgerDigest]:
        """Every shard's digest; ``pinned`` entries used verbatim.

        Unpinned shards are read under their own commit lock so each
        leaf is internally consistent; shard heights only grow, so the
        resulting vector is a valid fleet state for membership proofs
        (the pinned shard's proof was captured with its leaf).
        """
        digests: List[LedgerDigest] = []
        for shard_id, shard in enumerate(self.shards):
            if shard_id in pinned:
                digests.append(pinned[shard_id])
            else:
                with shard.txn_manager.commit_lock:
                    digests.append(shard.digest())
        return digests

    def digest(self) -> ShardedDigest:
        """The current digest-of-digests (flushes every shard)."""
        return digest_of_digests(self._shard_digests({}))

    def get_verified(
        self, key: bytes
    ) -> Tuple[Optional[bytes], ShardedProof]:
        """Point read plus proof against the top-level digest."""
        shard_id = self.shard_of(key)
        shard = self.shards[shard_id]
        with shard.txn_manager.commit_lock:
            value, inner = shard.get_verified(key)
            shard_digest = shard.digest()
        top, (membership,) = anchor_shards(
            self._shard_digests({shard_id: shard_digest}), [shard_id]
        )
        self._c_proofs.inc()
        return value, ShardedProof(
            inner=inner, membership=membership, digest=top
        )

    def get_many_verified(
        self, keys: Sequence[bytes]
    ) -> Tuple[List[Optional[bytes]], ShardedMultiProof]:
        """Batch read: one multiproof part per involved shard."""
        keys = list(keys)
        groups = self.router.split_keys(keys)
        values: List[Optional[bytes]] = [None] * len(keys)
        pinned: Dict[int, LedgerDigest] = {}
        multis: Dict[int, object] = {}
        for shard_id in sorted(groups):
            pairs = groups[shard_id]
            shard = self.shards[shard_id]
            sub_keys = [key for _position, key in pairs]
            with shard.txn_manager.commit_lock:
                sub_values, multi = shard.get_many_verified(sub_keys)
                pinned[shard_id] = shard.digest()
            multis[shard_id] = multi
            for (position, _key), value in zip(pairs, sub_values):
                values[position] = value
        top, memberships = anchor_shards(
            self._shard_digests(pinned), sorted(multis)
        )
        parts = tuple(
            ShardedMultiPart(
                membership=membership, multi=multis[membership.shard_id]
            )
            for membership in memberships
        )
        self._c_proofs.inc(len(parts) or 1)
        proof = ShardedMultiProof(
            keys=tuple(KV_PREFIX + key for key in keys),
            parts=parts,
            digest=top,
        )
        return values, proof

    # ------------------------------------------------------------------
    # maintenance / plumbing
    # ------------------------------------------------------------------

    def flush_ledger(self) -> None:
        for shard in self.shards:
            shard.flush_ledger()

    def verify_chain(self) -> bool:
        return all(shard.verify_chain() for shard in self.shards)

    def recover_participants(self) -> int:
        """Resolve in-doubt 2PC branches on every shard."""
        return sum(
            self.coordinator.recover(participant)
            for participant in self.participants
        )

    def metrics_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Facade snapshot with per-shard counters/gauges summed in.

        The facade registry holds control-plane instruments (queue,
        nodes, routing); each shard's registry holds its storage-layer
        instruments.  Counters and gauges are summed across shards
        under their own names so ``db.commits``, ``ledger.height``
        etc. stay meaningful fleet-wide; shard histograms are omitted
        (latency distributions are captured by the facade's tracer).

        The per-shard view also rides along under a ``shards`` key
        (``{"00": {"counters": ..., "gauges": ...}, ...}``) so served
        stats can attribute load per shard instead of only fleet-wide;
        ``/metrics`` renders the same registries with a ``shard="NN"``
        label.
        """
        snapshot = self.metrics.snapshot()
        counters = dict(snapshot["counters"])
        gauges = dict(snapshot["gauges"])
        shards: Dict[str, Dict[str, object]] = {}
        for shard_id, shard in enumerate(self.shards):
            shard_snapshot = shard.metrics_snapshot()
            for name, value in shard_snapshot["counters"].items():
                counters[name] = counters.get(name, 0) + value
            for name, value in shard_snapshot["gauges"].items():
                gauges[name] = gauges.get(name, 0) + value
            shards[f"{shard_id:02d}"] = {
                "counters": shard_snapshot["counters"],
                "gauges": shard_snapshot["gauges"],
            }
        snapshot["counters"] = counters
        snapshot["gauges"] = gauges
        snapshot["shards"] = shards
        return snapshot

    @property
    def shard_registries(self) -> List[MetricsRegistry]:
        """The per-shard registries, indexed by shard id (exposition
        renders them under ``shard="NN"`` labels)."""
        return list(self._shard_registries)

    def sync(self) -> None:
        """Durable mode: fsync every shard's WAL."""
        for durable in self._durables:
            durable.sync()

    def checkpoint(self) -> None:
        """Durable mode: checkpoint every shard."""
        for durable in self._durables:
            durable.checkpoint()

    def close(self) -> None:
        """Durable mode: release every shard's WAL handle."""
        for durable in self._durables:
            durable.close()
