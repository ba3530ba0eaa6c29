"""SpitzDatabase: the public facade.

Wires the paper's two layers together (Section 5, Figure 5):

- **storage layer** — one shared chunk store holding the deduplicated
  cell values *and* the ledger's POS-tree nodes; the version store
  (the transaction manager's MVCC store, the only record of a
  committed write, seen as cells by the virtual cell store); the
  B+-tree primary access path from a live key to its version list;
  inverted indexes for analytics;
- **control layer** — a transaction manager (MVCC + pluggable
  certifier) whose committed write sets are folded into the storage
  layer and sealed into ledger blocks (the auditor's job).

Two write paths exist, both funnelling through :meth:`_commit`:

1. *auto-commit* operations (``put``/``insert``/...) — each call is
   one block, matching the paper's single-threaded evaluation;
2. *transactional sessions* (:meth:`transaction`) — buffered writes
   certified by the concurrency-control layer, sealed as one block at
   commit.

``ledger_only=True`` wakes up only the auditor/ledger half, which is
how Spitz serves as the ledger database of the non-intrusive design
(Section 5.1: "the system can be applied into a non-intrusive design
... by solely waking up the auditor in the processor").
"""

from __future__ import annotations

from itertools import zip_longest
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.crypto.hashing import Digest, hash_bytes
from repro.errors import QueryError, SchemaError, TamperDetectedError
from repro.forkbase.chunk_store import ChunkStore
from repro.obs.metrics import MetricsRegistry
from repro.indexes.bplus import BPlusTree
from repro.indexes.inverted import InvertedIndex
from repro.indexes.pos_tree import DEFAULT_MASK_BITS
from repro.indexes.siri import DELETE
from repro.txn.manager import (
    IsolationLevel,
    Transaction,
    TransactionManager,
)
from repro.txn.mvcc import Version
from repro.core.cell_store import (
    CellStore,
    live_value,
    parse_logical_key,
    put_history,
)
from repro.core.ledger import Block, LedgerDigest, SpitzLedger
from repro.core.proofs import (
    LedgerMultiProof,
    LedgerProof,
    LedgerRangeProof,
)
from repro.core.query import (
    AccessPath,
    Condition,
    Op,
    Plan,
    plan_query,
    range_bounds,
)
from repro.core.schema import (
    KV_PREFIX,
    ROW_COLUMN,
    TableSchema,
    decode_value,
    encode_pk,
    encode_value,
)
from repro.core import sql as sql_module
from repro.core.universal_key import UniversalKey
from repro.search.committed import SEARCH_ROOT_KEY, CommittedSearchIndex
from repro.search.proofs import (
    SearchPredicate,
    SearchProof,
    build_search_proof,
    evaluate_on_inverted,
)


class SpitzDatabase:
    """A single-node Spitz instance (see module docstring)."""

    def __init__(
        self,
        mask_bits: int = DEFAULT_MASK_BITS,
        ledger_only: bool = False,
        certifier: Optional[object] = None,
        block_batch: int = 1,
        metrics: Optional[MetricsRegistry] = None,
        oracle: Optional[object] = None,
        indexed_columns: Optional[Sequence[str]] = None,
    ):
        if block_batch < 1:
            raise ValueError("block_batch must be positive")
        # One registry serves the whole instance (storage + control
        # layers share it; the cluster and the WAL attach to it too).
        # Pass ``repro.obs.NULL_REGISTRY`` to run uninstrumented.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_commits = self.metrics.counter("db.commits")
        self._c_writes_folded = self.metrics.counter("db.writes_folded")
        self.chunks = ChunkStore(metrics=self.metrics)
        self.ledger = SpitzLedger(
            self.chunks, mask_bits, metrics=self.metrics
        )
        self.ledger_only = ledger_only
        # ``oracle`` lets a shard allocate from its own HLC (see
        # repro.shard) instead of the default central TimestampOracle.
        self.txn_manager = TransactionManager(
            oracle=oracle, certifier=certifier
        )
        # The manager's MVCC store is the one record of a committed
        # write (DESIGN.md §5 item 9): ``primary`` maps a live logical
        # key to its version list there (the same list object), and
        # ``cells`` is a view.
        self.cells = CellStore(self.txn_manager.store)
        self.primary = BPlusTree()
        self.inverted = InvertedIndex()
        self.oracle = self.txn_manager.oracle
        self.txn_manager.add_commit_listener(self._on_txn_commit)
        self._tables: Dict[str, TableSchema] = {}
        # Section 5.3's deferred scheme on the write side: with
        # ``block_batch > 1``, cells and indexes update immediately but
        # ledger writes accumulate and seal as one block per batch
        # (flushed automatically before any proof/digest/temporal
        # operation, so verification always sees a sealed state).
        self.block_batch = block_batch
        self._pending_writes: Dict[bytes, object] = {}
        self._pending_statements: list = []
        # Commit hooks observe every ledger-affecting operation after
        # it is applied — the durability layer's WAL attaches here.
        self._commit_hooks: List[Callable[[str, object], None]] = []
        # Verifiable search plane (DESIGN.md §6i): with indexed columns
        # configured, every sealed block also commits the per-column
        # search manifest under a reserved ledger key, making secondary-
        # index answers provable.  ``None`` = unverified search only.
        self._search: Optional[CommittedSearchIndex] = None
        if indexed_columns:
            self._search = CommittedSearchIndex(
                self.chunks, indexed_columns
            )
        self._c_search_queries = self.metrics.counter("search.queries")
        self._c_search_matches = self.metrics.counter("search.matches")
        self._c_search_proof_bytes = self.metrics.counter(
            "search.proof_bytes"
        )
        self._c_search_maintained = self.metrics.counter(
            "search.maintained_postings"
        )

    # ------------------------------------------------------------------
    # commit hooks (durability / replication observers)
    # ------------------------------------------------------------------

    def add_commit_hook(self, hook: Callable[[str, object], None]) -> None:
        """Register ``hook(kind, data)`` to run after each commit.

        ``(kind, data)`` is the write-ahead log's record shape, which
        ``repro.durability.recovery.replay_record`` reads back:
        ``"commit"`` with ``([(key, value or None for a delete), ...],
        statements, timestamp)``, ``"create_table"`` with ``(name,
        [(column, type), ...], primary_key)``, ``"enable_search"`` with
        the column tuple and ``"search_seal"`` with ``None`` (a block
        carrying only the search manifest).  Hooks run inside the
        commit lock, after the operation is fully applied.
        """
        self._commit_hooks.append(hook)

    def remove_commit_hook(self, hook: Callable[[str, object], None]) -> None:
        if hook in self._commit_hooks:
            self._commit_hooks.remove(hook)

    def _notify_commit_hooks(self, kind: str, data: object) -> None:
        for hook in list(self._commit_hooks):
            hook(kind, data)

    # ------------------------------------------------------------------
    # central commit pipeline
    # ------------------------------------------------------------------

    def _commit(
        self,
        writes: Mapping[bytes, object],
        statements: Tuple[str, ...] = (),
        timestamp: Optional[int] = None,
        install_mvcc: bool = True,
    ) -> Block:
        """Fold a write set into cells/indexes and seal a ledger block.

        ``writes`` maps logical keys to value bytes or DELETE.  This is
        the paper's write path: (2) auditor updates the ledger, (3)
        processor traverses the index and writes the cell store.
        """
        # Serialize with transactional commits so MVCC installs stay in
        # timestamp order (the lock is re-entrant: the commit-listener
        # path already holds it).  The stage includes the lock wait:
        # commit-lock contention *is* part of a traced request's
        # critical path.
        with self.metrics.tracer.stage("txn.commit"):
            with self.txn_manager.commit_lock:
                return self._commit_locked(
                    writes, statements, timestamp, install_mvcc
                )

    def _commit_locked(
        self,
        writes: Mapping[bytes, object],
        statements: Tuple[str, ...],
        timestamp: Optional[int],
        install_mvcc: bool,
    ) -> Block:
        timestamp = (
            timestamp if timestamp is not None
            else self.oracle.next_timestamp()
        )
        self._c_commits.inc()
        self._c_writes_folded.inc(len(writes))
        if not self.ledger_only:
            store = self.txn_manager.store
            if install_mvcc:
                store.install({
                    key: (Version.TOMBSTONE if value is DELETE else value)
                    for key, value in writes.items()
                }, timestamp, txn_id=0)
            for logical_key, value in writes.items():
                column, primary_key = parse_logical_key(logical_key)
                if "." in column:  # typed table cells are value-indexed
                    self._repost(
                        logical_key, column, primary_key, timestamp, value
                    )
                if value is DELETE:
                    if logical_key in self.primary:
                        self.primary.delete(logical_key)
                elif logical_key not in self.primary:
                    self.primary.insert(
                        logical_key, store.versions_of(logical_key)
                    )
        if self.block_batch == 1 and not self._pending_writes:
            block = self._append_ledger_block(writes, statements)
        else:
            self._pending_writes.update(writes)
            self._pending_statements.extend(statements)
            if len(self._pending_writes) >= self.block_batch:
                block = self.flush_ledger()
            else:
                block = self.ledger.latest_block()
        if self._commit_hooks:
            self._notify_commit_hooks("commit", (
                [
                    (key, None if value is DELETE else value)
                    for key, value in writes.items()
                ],
                tuple(statements),
                timestamp,
            ))
        return block

    def flush_ledger(self) -> Block:
        """Seal pending ledger writes into a block (no-op-safe)."""
        if self._pending_writes:
            block = self._append_ledger_block(
                self._pending_writes, tuple(self._pending_statements)
            )
            self._pending_writes = {}
            self._pending_statements = []
            return block
        return self.ledger.latest_block()

    def _append_ledger_block(
        self, writes: Mapping[bytes, object], statements=()
    ) -> Block:
        """Seal one block, folding the committed search manifest in.

        The reserved search key is injected here — at seal time only —
        so it never flows through the cell store, the MVCC store or the
        commit hooks (durability replay re-derives it from the same
        writes), while the block's tree root (and hence the chain
        digest clients pin) commits to every indexed column's postings.
        """
        if self._search is None:
            return self.ledger.append_block(writes, statements)
        with self.metrics.tracer.stage("search.maintain"):
            self._c_search_maintained.inc(self._search.pending_changes)
            manifest = self._search.seal(self.inverted)
        sealed = dict(writes)
        sealed[SEARCH_ROOT_KEY] = manifest
        return self.ledger.append_block(sealed, statements)

    def _on_txn_commit(self, txn: Transaction) -> None:
        if not txn.write_buffer:
            return
        writes = {
            key: (
                DELETE
                if isinstance(value, str) and value == Version.TOMBSTONE
                else value
            )
            for key, value in txn.write_buffer.items()
        }
        self._commit(
            writes,
            statements=(f"txn:{txn.txn_id}",),
            timestamp=txn.commit_ts,
            install_mvcc=False,  # the manager already installed them
        )

    def _repost(
        self,
        logical_key: bytes,
        column: str,
        primary_key: bytes,
        timestamp: int,
        value: object,
    ) -> None:
        """Move a typed cell's inverted-index posting from the version
        live *before* ``timestamp`` — not the latest: on the
        transactional and 2PC paths the manager has already installed
        this one — to ``value`` (none for DELETE).  The only place a
        write builds universal keys."""
        moves = []
        previous = self.txn_manager.store.read(logical_key, timestamp - 1)
        if previous is not None and not previous.is_tombstone:
            moves.append(
                (self.inverted.remove, previous.commit_ts, previous.value)
            )
        if value is not DELETE:
            moves.append((self.inverted.add, timestamp, value))
        for change, stamp, cell_value in moves:
            decoded = _indexable(cell_value)
            if decoded is not None:
                ukey = UniversalKey(
                    column, primary_key, stamp, hash_bytes(cell_value)
                )
                change(column, decoded, ukey.encode())
                if self._search is not None:
                    self._search.note_change(column, decoded)

    # ------------------------------------------------------------------
    # persisted state (what a checkpoint keeps; DESIGN.md §6)
    # ------------------------------------------------------------------

    def persisted_versions(
        self,
    ) -> Iterator[Tuple[bytes, int, Optional[Digest]]]:
        """Every committed version as ``(logical key, commit timestamp,
        value digest | None for a tombstone)``, a key's in commit order;
        a value no block sealed (``block_batch > 1``) is put as a chunk
        now.  None for a ledger-only database: replaying its log does
        not rebuild its version store either."""
        if self.ledger_only:
            return
        store = self.txn_manager.store
        for logical_key in store.keys():
            for version in store.versions_of(logical_key):
                digest = None
                if not version.is_tombstone:
                    digest = hash_bytes(version.value)
                    if digest not in self.chunks:
                        self.chunks.put(version.value)
                yield logical_key, version.commit_ts, digest

    def restore(
        self,
        blocks: Sequence[Tuple[Digest, Digest, int, Sequence[str]]],
        tables: Sequence[TableSchema],
        versions: Sequence[Tuple[bytes, int, Optional[Digest]]],
        high_water: int,
    ) -> None:
        """Adopt a checkpoint's state — :meth:`SpitzLedger.link`'s blocks,
        the schemas, :meth:`persisted_versions`, the oracle's high-water
        mark — on a database fresh from the constructor, its chunk store
        holding the checkpoint's chunks; derive ``primary``, the inverted
        index and the search trees.  :class:`TamperDetectedError` unless
        the versions' live set is the tip tree's ``(key → value digest)``
        (empty when ledger-only): unverified reads answer from the
        versions, a pinned chain digest commits only to the tip."""
        self.ledger.link(blocks)
        self._tables.update((schema.name, schema) for schema in tables)
        self.oracle.advance_to(high_water)
        by_key: Dict[bytes, List[Version]] = {}
        latest: Dict[bytes, Optional[Digest]] = {}
        for logical_key, stamp, digest in versions:
            value = Version.TOMBSTONE
            if digest is not None:
                value = self.chunks.get(digest)
            by_key.setdefault(logical_key, []).append(Version(stamp, value, 0))
            latest[logical_key] = digest
        self.txn_manager.store.restore(by_key)
        live = [
            (key, digest) for key, digest in latest.items()
            if digest is not None
        ]
        tip = () if self.ledger_only else (
            pair for pair in self.ledger.tree.digests()
            if pair[0] != SEARCH_ROOT_KEY
        )
        for ours, theirs in zip_longest(sorted(live), tip):
            if ours != theirs:
                raise TamperDetectedError(
                    "the version table's live set and the tip tree differ "
                    f"at key {(ours or theirs)[0]!r}"
                )
        for logical_key, _digest in live:
            history = by_key[logical_key]
            self.primary.insert(logical_key, history)
            column, primary_key = parse_logical_key(logical_key)
            if "." in column:  # posted as the commit that wrote it did
                self._repost(
                    logical_key, column, primary_key,
                    history[-1].commit_ts, history[-1].value,
                )
        if self._search is not None:
            self._search.rebuild_from(self.inverted)

    # ------------------------------------------------------------------
    # key-value API (column "default"; the paper's Section 6 workloads)
    # ------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> Block:
        """Auto-commit write of one key (one ledger block)."""
        return self._commit({KV_PREFIX + key: value})

    def put_batch(self, items: Mapping[bytes, bytes]) -> Block:
        """Write many keys as a single block (deferred-style batching)."""
        return self._commit(
            {KV_PREFIX + key: value for key, value in items.items()}
        )

    def put_with_proof(
        self, key: bytes, value: bytes
    ) -> Tuple[Block, LedgerProof]:
        """Write plus inclusion proof of the new value (step 4 of the
        paper's write path: results combined with the proof)."""
        block = self.put(key, value)
        _value, proof = self.ledger.get_with_proof(KV_PREFIX + key)
        return block, proof

    def get(self, key: bytes) -> Optional[bytes]:
        """Unverified read via the B+-tree access path."""
        return live_value(self.primary.get_optional(KV_PREFIX + key))

    def get_verified(
        self, key: bytes
    ) -> Tuple[Optional[bytes], LedgerProof]:
        """Read plus proof from the unified ledger index (one walk)."""
        self.flush_ledger()
        return self.ledger.get_with_proof(KV_PREFIX + key)

    def get_many(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        """Unverified batch read via the B+-tree access path."""
        return [self.get(key) for key in keys]

    def get_many_verified(
        self, keys: Sequence[bytes]
    ) -> Tuple[List[Optional[bytes]], LedgerMultiProof]:
        """Batch read plus one multiproof from the unified ledger index.

        All K keys are answered against the same sealed block, so the
        proof carries one block witness and each shared index node
        once (vs. K copies across K point proofs).
        """
        self.flush_ledger()
        return self.ledger.get_many_with_proof(
            [KV_PREFIX + key for key in keys]
        )

    def delete(self, key: bytes) -> Block:
        """Logical delete; history stays in earlier ledger blocks."""
        return self._commit({KV_PREFIX + key: DELETE})

    def scan(
        self, low: bytes, high: bytes
    ) -> List[Tuple[bytes, bytes]]:
        """Unverified range scan via the B+-tree."""
        results: List[Tuple[bytes, bytes]] = []
        for logical_key, versions in self.primary.range(
            KV_PREFIX + low, KV_PREFIX + high
        ):
            value = live_value(versions)
            if value is not None:
                results.append((logical_key[len(KV_PREFIX):], value))
        return results

    def scan_verified(
        self, low: bytes, high: bytes
    ) -> Tuple[List[Tuple[bytes, bytes]], LedgerRangeProof]:
        """Range scan plus one covering proof (Section 6.2.2)."""
        self.flush_ledger()
        entries, proof = self.ledger.scan_with_proof(
            KV_PREFIX + low, KV_PREFIX + high
        )
        stripped = [
            (key[len(KV_PREFIX):], value) for key, value in entries
        ]
        return stripped, proof

    def history(self, key: bytes) -> List[Tuple[int, bytes]]:
        """(timestamp, value) for every version ever written."""
        return put_history(self.txn_manager.store, KV_PREFIX + key)

    def get_at_block(self, key: bytes, height: int) -> Optional[bytes]:
        """Historical read from block ``height``'s index instance."""
        self.flush_ledger()
        return self.ledger.get_at(KV_PREFIX + key, height)

    def get_at_block_verified(
        self, key: bytes, height: int
    ) -> Tuple[Optional[bytes], LedgerProof]:
        self.flush_ledger()
        return self.ledger.get_at_with_proof(KV_PREFIX + key, height)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def transaction(
        self, isolation: Optional[IsolationLevel] = None
    ) -> "KvTransaction":
        """Open a transactional session over the KV namespace."""
        return KvTransaction(self, self.txn_manager.begin(isolation))

    # ------------------------------------------------------------------
    # ledger / verification plumbing
    # ------------------------------------------------------------------

    def digest(self) -> LedgerDigest:
        self.flush_ledger()
        return self.ledger.digest()

    def metrics_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Refresh derived gauges and return the registry snapshot.

        This is the *one* stats surface: ``RequestKind.STATS``, the
        ``spitz stats`` CLI subcommand and the benchmark harness all
        call it, so every exporter reports identical structure.
        """
        self.chunks.export_metrics(self.metrics)
        self.metrics.gauge("ledger.height").set(self.ledger.height)
        self.metrics.gauge("ledger.pending_writes").set(
            len(self._pending_writes)
        )
        return self.metrics.snapshot()

    def verify_chain(self) -> bool:
        self.flush_ledger()
        return self.ledger.verify_chain()

    # ------------------------------------------------------------------
    # verifiable search plane (DESIGN.md §6i)
    # ------------------------------------------------------------------

    @property
    def search_columns(self) -> Tuple[str, ...]:
        """Columns covered by the committed search index (sorted)."""
        if self._search is None:
            return ()
        return self._search.columns

    def enable_search(self, columns: Sequence[str]) -> None:
        """Start committing the given columns' postings.

        Existing postings are folded in immediately (a full rebuild
        from the inverted index), so a database that indexed rows
        before the search plane was enabled still proves complete
        answers.  Re-enabling with the same columns is a no-op.
        """
        with self.txn_manager.commit_lock:
            if self._search is not None:
                if tuple(sorted(columns)) == self._search.columns:
                    return
                raise QueryError(
                    "search index already enabled for columns "
                    f"{list(self._search.columns)}"
                )
            index = CommittedSearchIndex(self.chunks, columns)
            index.rebuild_from(self.inverted)
            self._search = index
            self._notify_commit_hooks("enable_search", tuple(columns))

    def search(
        self, column: str, predicate: Union[str, SearchPredicate]
    ) -> List[bytes]:
        """Unverified search: universal keys matching ``predicate``.

        Served straight from the in-memory inverted index; works on
        any "."-qualified column whether or not it is committed.
        ``predicate`` may be a :class:`SearchPredicate` or a string in
        its CLI grammar (``'>= 10'``, ``'between 3 7'``, a keyword).
        """
        if isinstance(predicate, str):
            predicate = SearchPredicate.parse(predicate)
        with self.metrics.tracer.stage_in_trace("search.query"):
            matches = evaluate_on_inverted(
                self.inverted, column, predicate
            )
        self._c_search_queries.inc()
        self._c_search_matches.inc(len(matches))
        return matches

    def search_verified(
        self, column: str, predicate: Union[str, SearchPredicate]
    ) -> Tuple[List[bytes], SearchProof]:
        """Search plus a proof of membership *and* completeness.

        The proof anchors the committed index manifest in the latest
        sealed block, then carries the matched postings' branches plus
        the boundary evidence that nothing in range was omitted.
        ``predicate`` accepts the same forms as :meth:`search`.
        """
        if isinstance(predicate, str):
            predicate = SearchPredicate.parse(predicate)
        if self._search is None:
            raise QueryError(
                "verified search requires indexed_columns= (or "
                "enable_search()); unverified search() still works"
            )
        self._ensure_search_sealed()
        with self.metrics.tracer.stage_in_trace("search.prove"):
            proof = build_search_proof(
                self.ledger, self._search, column, predicate
            )
        self._c_search_queries.inc()
        self._c_search_matches.inc(proof.result_count)
        self._c_search_proof_bytes.inc(proof.size_bytes)
        return list(proof.ukeys), proof

    def _ensure_search_sealed(self) -> None:
        """Guarantee the latest block commits the current manifest.

        Covers the cold-start case (index enabled, nothing written
        yet) and rebuilds after ``enable_search``: if the chain's
        anchored manifest is stale, seal a dedicated block carrying
        only the reserved key.
        """
        assert self._search is not None
        with self.txn_manager.commit_lock:
            self.flush_ledger()
            with self.metrics.tracer.stage("search.maintain"):
                self._c_search_maintained.inc(
                    self._search.pending_changes
                )
                manifest = self._search.seal(self.inverted)
            if self.ledger.get(SEARCH_ROOT_KEY) != manifest:
                self.ledger.append_block(
                    {SEARCH_ROOT_KEY: manifest},
                    statements=("SEARCH INDEX SEAL",),
                )
                self._notify_commit_hooks("search_seal", None)

    # ------------------------------------------------------------------
    # table API
    # ------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        if schema.name in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        self._tables[schema.name] = schema
        self._append_ledger_block(
            {},
            statements=(
                f"CREATE TABLE {schema.name} "
                f"({', '.join(f'{c.name} {c.type}' for c in schema.columns)}"
                f", PRIMARY KEY ({schema.primary_key}))",
            ),
        )
        self._notify_commit_hooks("create_table", (
            schema.name,
            [(c.name, c.type) for c in schema.columns],
            schema.primary_key,
        ))

    def table(self, name: str) -> TableSchema:
        schema = self._tables.get(name)
        if schema is None:
            raise SchemaError(f"unknown table {name!r}")
        return schema

    def tables(self) -> List[str]:
        return sorted(self._tables)

    def insert(self, table: str, row: Dict[str, Any]) -> Block:
        """Insert one full row (one ledger block)."""
        schema = self.table(table)
        schema.validate_row(row)
        pk = schema.pk_bytes(row)
        writes: Dict[bytes, object] = {
            schema.logical_key(ROW_COLUMN, pk): b"1"
        }
        for column in schema.columns:
            writes[schema.logical_key(column.name, pk)] = encode_value(
                column.type, row[column.name]
            )
        return self._commit(
            writes, statements=(f"INSERT INTO {table}",)
        )

    def update(
        self,
        table: str,
        assignments: Mapping[str, Any],
        conditions: Tuple[Condition, ...] = (),
    ) -> int:
        """Update matching rows; returns the number updated."""
        schema = self.table(table)
        for column_name, value in assignments.items():
            column = schema.column(column_name)
            if column_name == schema.primary_key:
                raise QueryError("cannot update the primary key")
        matches = self.select(table, conditions)
        for row in matches:
            pk = schema.pk_bytes(row)
            writes = {
                schema.logical_key(name, pk): encode_value(
                    schema.column(name).type, value
                )
                for name, value in assignments.items()
            }
            self._commit(writes, statements=(f"UPDATE {table}",))
        return len(matches)

    def delete_rows(
        self, table: str, conditions: Tuple[Condition, ...] = ()
    ) -> int:
        """Delete matching rows; returns the number deleted."""
        schema = self.table(table)
        matches = self.select(table, conditions)
        for row in matches:
            pk = schema.pk_bytes(row)
            writes: Dict[bytes, object] = {
                schema.logical_key(ROW_COLUMN, pk): DELETE
            }
            for column in schema.columns:
                writes[schema.logical_key(column.name, pk)] = DELETE
            self._commit(writes, statements=(f"DELETE FROM {table}",))
        return len(matches)

    def select(
        self,
        table: str,
        conditions: Tuple[Condition, ...] = (),
        columns: Tuple[str, ...] = ("*",),
        as_of_block: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Execute a query via the planner's chosen access path."""
        schema = self.table(table)
        if as_of_block is not None:
            rows = self._select_as_of(schema, conditions, as_of_block)
        else:
            rows = self._select_current(schema, conditions)
        if limit is not None:
            rows = rows[:limit]
        if columns == ("*",):
            return rows
        for name in columns:
            schema.column(name)  # validate
        return [
            {name: row[name] for name in columns} for row in rows
        ]

    def _select_current(
        self, schema: TableSchema, conditions: Tuple[Condition, ...]
    ) -> List[Dict[str, Any]]:
        plan = plan_query(conditions, schema.primary_key)
        pks = self._candidate_pks(schema, plan)
        rows: List[Dict[str, Any]] = []
        for pk in pks:
            row = self._load_row(schema, pk)
            if row is None:
                continue
            if all(c.matches(row.get(c.column)) for c in plan.residual):
                rows.append(row)
        return rows

    def _candidate_pks(
        self, schema: TableSchema, plan: Plan
    ) -> List[bytes]:
        pk_type = schema.column(schema.primary_key).type
        if plan.path is AccessPath.PRIMARY_POINT:
            return [schema.pk_bytes(plan.driver.value)]
        if plan.path is AccessPath.PRIMARY_RANGE:
            low_value, high_value = range_bounds(plan.driver)
            low = (
                encode_pk(pk_type, low_value)
                if low_value is not None
                else b""
            )
            high = (
                encode_pk(pk_type, high_value)
                if high_value is not None
                else b"\xff" * 40
            )
            low_key = schema.logical_key(ROW_COLUMN, low)
            high_key = schema.logical_key(ROW_COLUMN, high)
            prefix_len = len(schema.logical_key(ROW_COLUMN, b""))
            return [
                logical_key[prefix_len:]
                for logical_key, _versions in self.primary.range(
                    low_key, high_key
                )
            ]
        if plan.path in (
            AccessPath.INVERTED_POINT, AccessPath.INVERTED_RANGE
        ):
            column = schema.cell_column(plan.driver.column)
            if plan.path is AccessPath.INVERTED_POINT:
                ukeys = self.inverted.lookup(column, plan.driver.value)
            else:
                low_value, high_value = range_bounds(plan.driver)
                sample = plan.driver.value
                if low_value is None:
                    low_value = "" if isinstance(sample, str) else (
                        float("-inf")
                    )
                if high_value is None:
                    high_value = "\U0010ffff" * 4 if isinstance(
                        sample, str
                    ) else float("inf")
                ukeys = self.inverted.range(column, low_value, high_value)
            pks: List[bytes] = []
            seen = set()
            for encoded in ukeys:
                ukey = UniversalKey.decode(encoded)
                if ukey.primary_key not in seen:
                    seen.add(ukey.primary_key)
                    pks.append(ukey.primary_key)
            return pks
        # FULL_SCAN: walk the _row presence column.
        prefix = schema.logical_key(ROW_COLUMN, b"")
        return [
            logical_key[len(prefix):]
            for logical_key, _versions in self.primary.range(
                prefix, prefix + b"\xff" * 40
            )
        ]

    def _load_row(
        self, schema: TableSchema, pk: bytes
    ) -> Optional[Dict[str, Any]]:
        presence = self.primary.get_optional(
            schema.logical_key(ROW_COLUMN, pk)
        )
        if presence is None:
            return None
        row: Dict[str, Any] = {}
        for column in schema.columns:
            value = live_value(
                self.primary.get_optional(schema.logical_key(column.name, pk))
            )
            if value is None:
                return None
            row[column.name] = decode_value(value)
        return row

    def _select_as_of(
        self,
        schema: TableSchema,
        conditions: Tuple[Condition, ...],
        height: int,
    ) -> List[Dict[str, Any]]:
        """Temporal query against block ``height``'s index instance."""
        self.flush_ledger()
        tree = self.ledger.tree_at(height)
        prefix = schema.logical_key(ROW_COLUMN, b"")
        rows: List[Dict[str, Any]] = []
        for logical_key, _flag in tree.scan(prefix, prefix + b"\xff" * 40):
            pk = logical_key[len(prefix):]
            row: Dict[str, Any] = {}
            complete = True
            for column in schema.columns:
                value = tree.get(schema.logical_key(column.name, pk))
                if value is None:
                    complete = False
                    break
                row[column.name] = decode_value(value)
            if complete and all(
                c.matches(row.get(c.column)) for c in conditions
            ):
                rows.append(row)
        return rows

    def select_verified(
        self,
        table: str,
        pk_low: Any,
        pk_high: Any,
        columns: Tuple[str, ...] = ("*",),
    ) -> Tuple[List[Dict[str, Any]], List[LedgerRangeProof]]:
        """Verified pk-range select: one range proof per column.

        Ledger keys group by column then primary key, so each column's
        pk range is one contiguous ledger scan — the batched proof
        retrieval of Section 6.2.2.
        """
        schema = self.table(table)
        self.flush_ledger()
        wanted = (
            [c.name for c in schema.columns]
            if columns == ("*",)
            else list(columns)
        )
        low = schema.pk_bytes(pk_low)
        high = schema.pk_bytes(pk_high)
        proofs: List[LedgerRangeProof] = []
        per_pk: Dict[bytes, Dict[str, Any]] = {}
        for name in wanted:
            entries, proof = self.ledger.scan_with_proof(
                schema.logical_key(name, low),
                schema.logical_key(name, high),
            )
            proofs.append(proof)
            prefix_len = len(schema.logical_key(name, b""))
            for logical_key, value in entries:
                pk = logical_key[prefix_len:]
                per_pk.setdefault(pk, {})[name] = decode_value(value)
        rows = [
            per_pk[pk]
            for pk in sorted(per_pk)
            if len(per_pk[pk]) == len(wanted)
        ]
        return rows, proofs

    def row_history(
        self, table: str, pk_value: Any
    ) -> List[Tuple[int, Optional[Dict[str, Any]]]]:
        """(block height, row dict or None) whenever the row changed."""
        schema = self.table(table)
        pk = schema.pk_bytes(pk_value)
        presence_key = schema.logical_key(ROW_COLUMN, pk)
        self.flush_ledger()
        out: List[Tuple[int, Optional[Dict[str, Any]]]] = []
        previous: object = _SENTINEL
        for height in range(self.ledger.height):
            tree = self.ledger.tree_at(height)
            if tree.get(presence_key) is None:
                row: Optional[Dict[str, Any]] = None
            else:
                row = {}
                for column in schema.columns:
                    value = tree.get(schema.logical_key(column.name, pk))
                    if value is not None:
                        row[column.name] = decode_value(value)
            if row != previous:
                out.append((height, row))
                previous = row
        return out

    # ------------------------------------------------------------------
    # SQL entry point
    # ------------------------------------------------------------------

    def sql(self, text: str):
        """Parse and execute one SQL statement.

        Returns: rows for SELECT, the ledger block for INSERT/CREATE,
        and the affected-row count for UPDATE/DELETE.
        """
        statement = sql_module.parse(text)
        if isinstance(statement, sql_module.CreateTable):
            schema = TableSchema.make(
                statement.table,
                list(statement.columns),
                statement.primary_key,
            )
            self.create_table(schema)
            return self.ledger.latest_block()
        if isinstance(statement, sql_module.Insert):
            row = dict(zip(statement.columns, statement.values))
            return self.insert(statement.table, row)
        if isinstance(statement, sql_module.Select):
            if statement.aggregate is not None:
                return self._select_aggregate(statement)
            if statement.order_by is None:
                return self.select(
                    statement.table,
                    statement.where,
                    statement.columns,
                    as_of_block=statement.as_of_block,
                    limit=statement.limit,
                )
            # Sort on full rows (the ORDER BY column need not be
            # projected), then apply LIMIT and the projection.
            column, descending = statement.order_by
            schema = self.table(statement.table)
            schema.column(column)  # validate
            rows = self.select(
                statement.table,
                statement.where,
                ("*",),
                as_of_block=statement.as_of_block,
            )
            rows.sort(key=lambda row: row[column], reverse=descending)
            if statement.limit is not None:
                rows = rows[:statement.limit]
            if statement.columns == ("*",):
                return rows
            for name in statement.columns:
                schema.column(name)
            return [
                {name: row[name] for name in statement.columns}
                for row in rows
            ]
        if isinstance(statement, sql_module.Update):
            return self.update(
                statement.table,
                dict(statement.assignments),
                statement.where,
            )
        if isinstance(statement, sql_module.Delete):
            return self.delete_rows(statement.table, statement.where)
        raise QueryError(f"unsupported statement {statement!r}")


    def _select_aggregate(self, statement) -> List[Dict[str, Any]]:
        """Execute a single-aggregate SELECT (optionally grouped)."""
        function, target = statement.aggregate
        schema = self.table(statement.table)
        if target != "*":
            schema.column(target)  # validate
        if statement.group_by is not None:
            schema.column(statement.group_by)
        rows = self.select(
            statement.table,
            statement.where,
            ("*",),
            as_of_block=statement.as_of_block,
        )
        label = f"{function}({target})"
        if statement.group_by is None:
            return [{label: _aggregate(function, target, rows)}]
        groups: Dict[Any, List[Dict[str, Any]]] = {}
        for row in rows:
            groups.setdefault(row[statement.group_by], []).append(row)
        result = [
            {
                statement.group_by: group_value,
                label: _aggregate(function, target, group_rows),
            }
            for group_value, group_rows in sorted(groups.items())
        ]
        if statement.limit is not None:
            result = result[:statement.limit]
        return result


def _aggregate(function: str, target: str, rows) -> Any:
    """Compute one aggregate over already-filtered rows."""
    if function == "count":
        if target == "*":
            return len(rows)
        return sum(1 for row in rows if row.get(target) is not None)
    values = [row[target] for row in rows if row.get(target) is not None]
    if not values:
        return None
    if function == "sum":
        return sum(values)
    if function == "avg":
        return sum(values) / len(values)
    if function == "min":
        return min(values)
    return max(values)


class KvTransaction:
    """Transactional KV session (reads snapshot, writes buffered).

    Thin adapter translating user keys to logical keys; commit routes
    through the node's certifier and seals one ledger block via the
    commit listener.
    """

    def __init__(self, db: SpitzDatabase, txn: Transaction):
        self._db = db
        self._txn = txn

    def get(self, key: bytes) -> Optional[bytes]:
        # Every committed write (auto-commit or transactional) is
        # installed in the MVCC store, so the snapshot read is complete.
        return self._txn.read(KV_PREFIX + key)

    def put(self, key: bytes, value: bytes) -> None:
        self._txn.write(KV_PREFIX + key, value)

    def delete(self, key: bytes) -> None:
        self._txn.delete(KV_PREFIX + key)

    def commit(self) -> int:
        return self._txn.commit()

    def abort(self) -> None:
        self._txn.abort()

    def __enter__(self) -> "KvTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return self._txn.__exit__(exc_type, exc, tb)


class _Sentinel:
    __slots__ = ()


_SENTINEL = _Sentinel()


def _indexable(value: bytes):
    """The typed scalar a cell is posted under in the inverted index;
    None for raw bytes, bools and JSON."""
    try:
        decoded = decode_value(value)
    except Exception:
        return None
    if isinstance(decoded, (int, float, str)) and not isinstance(
        decoded, bool
    ):
        return decoded
    return None
