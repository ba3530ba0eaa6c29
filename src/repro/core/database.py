"""SpitzDatabase: the public facade.

Wires the paper's two layers together (Section 5, Figure 5):

- **storage layer** — one shared chunk store holding the deduplicated
  cell values *and* the ledger's POS-tree nodes; the version store
  (the transaction manager's MVCC store: the only record of a
  committed write and, as a B+-tree from each key to its newest
  version, the access path for point and range reads; seen as cells
  by the virtual cell store); inverted indexes for analytics;
- **control layer** — a transaction manager (MVCC + the OCC
  certifier) whose committed write sets are folded into the storage
  layer and sealed into ledger blocks (the auditor's job).

One function installs every committed write set, :meth:`_commit_locked`
(a delete is ``None`` in it): auto-commit operations (``put``/
``insert``/...) reach it through :meth:`_commit`, one block a call; a
transaction (:meth:`transaction`, a 2PC branch) once the certifier
passes it, as the manager's ``apply``; WAL replay with the logged
timestamp.  An auto-commit write is not certified: under OCC every
transaction validates, at commit, against the store it installs into.

The non-intrusive design (Section 5.1: "the system can be applied into
a non-intrusive design ... by solely waking up the auditor in the
processor") needs none of this facade: its ledger server is a bare
:class:`~repro.core.ledger.SpitzLedger` (``repro.integration``).
"""

from __future__ import annotations

from itertools import chain, zip_longest
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
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
from repro.indexes.inverted import InvertedIndex, postable
from repro.indexes.pos_tree import DEFAULT_MASK_BITS
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
    universal_key,
)
from repro.core.ledger import Block, LedgerDigest, SpitzLedger
from repro.core.proofs import (
    LedgerMultiProof,
    LedgerProof,
    LedgerRangeProof,
)
from repro.core.query import (
    AccessPath,
    Plan,
    SearchPredicate,
    Where,
    plan_query,
)
from repro.core.schema import (
    DOC_PREFIX,
    KV_PREFIX,
    ROW_COLUMN,
    TableSchema,
    check_type,
    decode_document,
    decode_value,
    encode_pk,
    encode_value,
    prefix_end,
)
from repro.core import sql as sql_module
from repro.core.universal_key import UniversalKey
from repro.search.committed import (
    SEARCH_PREFIX,
    encode_postings,
    posting_key,
    posting_writes,
)
from repro.search.proofs import SearchProof, build_search_proof


class SpitzDatabase:
    """A single-node Spitz instance (see module docstring)."""

    def __init__(
        self,
        mask_bits: int = DEFAULT_MASK_BITS,
        block_batch: int = 1,
        metrics: Optional[MetricsRegistry] = None,
        oracle: Optional[object] = None,
        indexed_columns: Optional[Sequence[str]] = None,
    ):
        if block_batch < 1:
            raise ValueError("block_batch must be positive")
        # One registry serves the whole instance (storage + control
        # layers share it; the cluster and the WAL attach to it too).
        # Pass ``repro.obs.metrics.NULL_REGISTRY`` to run uninstrumented.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_commits = self.metrics.counter("db.commits")
        self._c_writes_folded = self.metrics.counter("db.writes_folded")
        self.chunks = ChunkStore(metrics=self.metrics)
        self.ledger = SpitzLedger(
            self.chunks, mask_bits, metrics=self.metrics
        )
        # ``oracle`` lets a shard allocate from its own HLC (see
        # repro.shard) instead of the default central TimestampOracle.
        self.txn_manager = TransactionManager(
            oracle=oracle, apply=self._commit
        )
        # The manager's MVCC store is the one record of a committed
        # write and the access path for unverified reads (DESIGN.md §5
        # item 9); ``cells`` is a view of it.
        self.versions = self.txn_manager.store
        self.cells = CellStore(self.versions)
        self.inverted = InvertedIndex()
        self.oracle = self.txn_manager.oracle
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
        # Verifiable search (DESIGN.md §6i): an indexed column's
        # postings are ledger keys.  A commit notes each posting key it
        # touched (key → (column, value)); the block sealing the commit
        # writes those postings as the inverted index now holds them.
        self._indexed: frozenset = frozenset()
        self._dirty_postings: Dict[bytes, Tuple[str, Any]] = {}
        self._c_search_queries = self.metrics.counter("search.queries")
        self._c_search_matches = self.metrics.counter("search.matches")
        self._c_search_proof_bytes = self.metrics.counter(
            "search.proof_bytes"
        )
        self._c_search_maintained = self.metrics.counter(
            "search.maintained_postings"
        )
        if indexed_columns:
            self.enable_search(indexed_columns)

    # ------------------------------------------------------------------
    # commit hooks (durability / replication observers)
    # ------------------------------------------------------------------

    def add_commit_hook(self, hook: Callable[[str, object], None]) -> None:
        """Register ``hook(kind, data)`` to run after each commit.

        ``(kind, data)`` is the write-ahead log's record shape, which
        ``repro.durability.recovery.replay_record`` reads back:
        ``"commit"`` with ``([(key, value or None for a delete), ...],
        statements, timestamp)``, ``"create_table"`` with ``(name,
        [(column, type), ...], primary_key)`` and ``"enable_search"``
        with the column tuple.  Hooks run inside the commit lock, after
        the operation is fully applied.
        """
        self._commit_hooks.append(hook)

    def remove_commit_hook(self, hook: Callable[[str, object], None]) -> None:
        if hook in self._commit_hooks:
            self._commit_hooks.remove(hook)

    def _run_commit_hooks(self, kind: str, data: object) -> None:
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
        replayed: bool = False,
    ) -> Block:
        """Fold a write set into cells/indexes and seal a ledger block.

        ``writes`` maps logical keys to value bytes or ``None`` (a
        delete).  This is the paper's write path: (2) auditor updates
        the ledger, (3) processor traverses the index and writes the
        cell store.  A posting its column cannot hold, as the index
        stands before the write, is a :class:`QueryError` before anything
        is written, unless the write set is ``replayed`` from the log
        (accepted when written): then that posting is left out.
        """
        # Serialize with transactional commits so MVCC installs stay in
        # timestamp order (the lock is re-entrant: a transaction's
        # commit already holds it).  The stage includes the lock wait:
        # commit-lock contention *is* part of a traced request's
        # critical path.
        with self.metrics.tracer.stage("txn.commit"):
            with self.txn_manager.commit_lock:
                return self._commit_locked(
                    writes, statements, timestamp, replayed
                )

    def _commit_locked(
        self,
        writes: Mapping[bytes, object],
        statements: Tuple[str, ...],
        timestamp: Optional[int],
        replayed: bool,
    ) -> Block:
        """Install ``writes`` at ``timestamp`` (a fresh one if None):
        the MVCC versions, the inverted index, the ledger block or
        batch, then the commit hooks."""
        timestamp = (
            timestamp if timestamp is not None
            else self.oracle.next_timestamp()
        )
        reposts = [
            (key, () if value is None else _postings(key, timestamp, value))
            for key, value in writes.items()
            if not key.startswith(KV_PREFIX)
        ]
        for _key, postings in reposts:
            for column, value, _token in postings:
                if not (replayed or self.inverted.holds(column, value)):
                    raise QueryError(
                        f"column {column!r} mixes string and numeric values"
                    )
        self._c_commits.inc()
        self._c_writes_folded.inc(len(writes))
        self.versions.install(writes, timestamp)
        for logical_key, postings in reposts:
            self._repost(logical_key, timestamp, postings)
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
            self._run_commit_hooks("commit", (
                list(writes.items()), tuple(statements), timestamp
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
        """Seal one block; its write set also holds the current posting
        (``None`` once emptied) of every posting key its commits touched.

        The postings are folded in here — at seal time only — so they
        never flow through the MVCC store or the commit hooks
        (durability replay re-derives them from the same writes), while
        the block's tree root commits to every indexed posting.
        """
        if not self._dirty_postings:
            return self.ledger.append_block(writes, statements)
        with self.metrics.tracer.stage("search.maintain"):
            sealed = dict(writes)
            for key, (column, value) in self._dirty_postings.items():
                postings = self.inverted.lookup(column, value)
                sealed[key] = encode_postings(postings) if postings else None
            self._c_search_maintained.inc(len(self._dirty_postings))
            self._dirty_postings = {}
        return self.ledger.append_block(sealed, statements)

    def _repost(
        self, logical_key: bytes, timestamp: int, postings: Sequence[Posting]
    ) -> None:
        """Move a table cell's or a document's inverted-index postings
        from the version live *before* ``timestamp`` — not the latest:
        the commit has already installed this one — to ``postings``, the
        new version's :func:`_postings` (none for a delete), leaving out
        one its column cannot hold (see :meth:`_commit`).  The only code
        that posts, and the only place a write builds universal keys."""
        touched = []
        previous = self.versions.read(logical_key, timestamp - 1)
        if previous is not None and previous.value is not None:
            for column, value, token in _postings(
                logical_key, previous.commit_ts, previous.value
            ):
                self.inverted.remove(column, value, token)
                touched.append((column, value))
        for column, value, token in postings:
            if self.inverted.holds(column, value):
                self.inverted.add(column, value, token)
                touched.append((column, value))
        for column, value in touched:
            if column in self._indexed:
                self._dirty_postings[posting_key(column, value)] = (
                    column, value,
                )

    # ------------------------------------------------------------------
    # persisted state (what a checkpoint keeps; DESIGN.md §6)
    # ------------------------------------------------------------------

    def persisted_versions(
        self,
    ) -> Tuple[List[Tuple[bytes, int, Optional[Digest]]], List[int]]:
        """What of the versions the tip tree cannot tell: every version
        but a key's newest live one as ``(logical key, commit timestamp,
        value digest | None for a delete)``, a key's in commit order, and
        each newest live version's commit timestamp, in key order (the
        tip's order of its keys, the postings aside); a value no block
        sealed (``block_batch > 1``) is put as a chunk now."""
        rows: List[Tuple[bytes, int, Optional[Digest]]] = []
        stamps: List[int] = []
        for logical_key, older, newest in self.versions.histories():
            for version in older:
                digest = None
                if version.value is not None:
                    digest = hash_bytes(version.value)
                    if digest not in self.chunks:
                        self.chunks.put(version.value)
                rows.append((logical_key, version.commit_ts, digest))
            if newest.value is None:
                rows.append((logical_key, newest.commit_ts, None))
            else:
                stamps.append(newest.commit_ts)
        return rows, stamps

    def restore(
        self,
        blocks: Sequence[Tuple[Digest, Digest, int, Sequence[str]]],
        tables: Sequence[TableSchema],
        versions: Sequence[Tuple[bytes, int, Optional[Digest]]],
        stamps: Sequence[int],
        high_water: int,
        indexed_columns: Sequence[str] = (),
    ) -> None:
        """Adopt a checkpoint's state — :meth:`SpitzLedger.link`'s blocks,
        the schemas, :meth:`persisted_versions`, the oracle's high-water
        mark, the indexed columns — on a database fresh from the
        constructor, its chunk store holding the checkpoint's chunks;
        derive the version map, each tip key's newest version from its
        leaf pair and its stamp, and the inverted index.
        :class:`TamperDetectedError` unless the tip's keys are exactly
        the keys whose newest version is live plus the postings derived
        from them: unverified reads and searches answer from the
        versions, a pinned chain digest commits only to the tip."""
        self.ledger.link(blocks)
        self._tables.update((schema.name, schema) for schema in tables)
        self.oracle.advance_to(high_water)
        if indexed_columns:
            self._indexed = _indexed_columns(indexed_columns)
        tip = list(self.ledger.tree.digests())
        held = [pair for pair in tip if not pair[0].startswith(SEARCH_PREFIX)]
        latest = {key: digest for key, _stamp, digest in versions}
        latest.update(held)
        live = sum(digest is not None for digest in latest.values())
        if (live, len(stamps)) != (len(held), len(held)):
            raise TamperDetectedError(
                f"the version table's live set ({live} keys, {len(stamps)} "
                f"newest stamps) is not the tip tree's {len(held)} keys"
            )
        try:
            self.versions.restore(chain(
                ((logical_key, Version(
                    stamp, None if digest is None else self.chunks.get(digest)
                )) for logical_key, stamp, digest in versions),
                ((logical_key, Version(stamp, self.chunks.get(digest)))
                 for (logical_key, digest), stamp in zip(held, stamps)),
            ))
        except ValueError as error:  # a row no older than the tip's
            raise TamperDetectedError(
                f"the version table and the tip tree differ: {error}"
            ) from None
        for logical_key, _digest in held:
            if not logical_key.startswith(KV_PREFIX):
                # posted as the commit that wrote it did
                newest = self.versions.read_latest(logical_key)
                self._repost(logical_key, newest.commit_ts, _postings(
                    logical_key, newest.commit_ts, newest.value
                ))
        # The tip must commit exactly the postings the versions support,
        # as enabling search commits them.
        self._dirty_postings = {}
        postings = sorted(
            (key, hash_bytes(postings)) for key, postings in posting_writes(
                self.inverted, sorted(self._indexed)
            ).items()
        )
        for ours, theirs in zip_longest(postings, (
            pair for pair in tip if pair[0].startswith(SEARCH_PREFIX)
        )):
            if ours != theirs:
                raise TamperDetectedError(
                    "the postings the versions support and the tip tree "
                    f"differ at key {(ours or theirs)[0]!r}"
                )

    # ------------------------------------------------------------------
    # key-value API (column "default"; the paper's Section 6 workloads)
    # ------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> Block:
        """Auto-commit write of one key (one ledger block)."""
        return self._commit({KV_PREFIX + key: put_value(key, value)})

    def put_batch(self, items: Mapping[bytes, bytes]) -> Block:
        """Write many keys as a single block (deferred-style batching)."""
        return self._commit({
            KV_PREFIX + key: put_value(key, value)
            for key, value in items.items()
        })

    def put_with_proof(
        self, key: bytes, value: bytes
    ) -> Tuple[Block, LedgerProof]:
        """Write plus inclusion proof of the new value (step 4 of the
        paper's write path: results combined with the proof)."""
        block = self.put(key, value)
        _value, proof = self.ledger.get_with_proof(KV_PREFIX + key)
        return block, proof

    def _live(self, logical_key: bytes) -> Optional[bytes]:
        """The live value of ``logical_key`` in the version map: what
        every unverified read answers from."""
        return live_value(self.versions.read_latest(logical_key))

    def get(self, key: bytes) -> Optional[bytes]:
        """Unverified read via the version map."""
        return self._live(KV_PREFIX + key)

    def get_verified(
        self, key: bytes
    ) -> Tuple[Optional[bytes], LedgerProof]:
        """Read plus proof from the unified ledger index (one walk)."""
        self.flush_ledger()
        return self.ledger.get_with_proof(KV_PREFIX + key)

    def get_many(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        """Unverified batch read via the version map."""
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
        return self._commit({KV_PREFIX + key: None})

    def scan(
        self, low: bytes, high: bytes
    ) -> List[Tuple[bytes, bytes]]:
        """Unverified range scan via the version map."""
        return [
            (logical_key[len(KV_PREFIX):], value)
            for logical_key, value in self.versions.range(
                KV_PREFIX + low, KV_PREFIX + high
            )
        ]

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
        return put_history(self.versions, KV_PREFIX + key)

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
        """Columns whose postings the ledger commits (sorted)."""
        return tuple(sorted(self._indexed))

    def enable_search(self, columns: Sequence[str]) -> None:
        """Start committing the given columns' postings: seal one block
        that writes every existing posting of them, so a database that
        indexed rows before search was enabled still proves complete
        answers.  Re-enabling with the same columns is a no-op."""
        names = _indexed_columns(columns)
        with self.txn_manager.commit_lock:
            if self._indexed:
                if names == self._indexed:
                    return
                raise QueryError(
                    "search index already enabled for columns "
                    f"{list(self.search_columns)}"
                )
            self.flush_ledger()
            self._indexed = names
            self.ledger.append_block(
                posting_writes(self.inverted, sorted(names)),
                (f"ENABLE SEARCH {', '.join(sorted(names))}",),
            )
            self._run_commit_hooks("enable_search", tuple(columns))

    def search(
        self, column: str, predicate: Union[str, SearchPredicate]
    ) -> List[bytes]:
        """Unverified search: universal keys matching ``predicate``.

        Served straight from the in-memory inverted index; works on
        any "."-qualified column whether or not it is committed.
        ``predicate`` may be a :class:`SearchPredicate` or a string in
        its CLI grammar (``'>= 10'``, ``'between 3 7'``, a keyword).
        """
        predicate = _searchable(predicate)
        with self.metrics.tracer.stage_in_trace("search.query"):
            matches = self.inverted.matching(column, predicate)
        self._c_search_queries.inc()
        self._c_search_matches.inc(len(matches))
        return matches

    def search_verified(
        self, column: str, predicate: Union[str, SearchPredicate]
    ) -> Tuple[List[bytes], SearchProof]:
        """Search plus a proof of membership *and* completeness: one
        ledger range proof over the column's posting keys in the latest
        sealed block.  ``predicate`` accepts the same forms as
        :meth:`search`.
        """
        predicate = _searchable(predicate)
        if not self._indexed:
            raise QueryError(
                "verified search requires indexed_columns= (or "
                "enable_search()); unverified search() still works"
            )
        self.flush_ledger()
        with self.metrics.tracer.stage_in_trace("search.prove"):
            proof = build_search_proof(self.ledger, column, predicate)
        self._c_search_queries.inc()
        self._c_search_matches.inc(proof.result_count)
        self._c_search_proof_bytes.inc(proof.size_bytes)
        return list(proof.ukeys), proof

    # ------------------------------------------------------------------
    # table API
    # ------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        if schema.name in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        self._tables[schema.name] = schema
        self.ledger.append_block(
            {},
            statements=(
                f"CREATE TABLE {schema.name} "
                f"({', '.join(f'{c.name} {c.type}' for c in schema.columns)}"
                f", PRIMARY KEY ({schema.primary_key}))",
            ),
        )
        self._run_commit_hooks("create_table", (
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
        where: Where = (),
    ) -> int:
        """Update matching rows in one commit; returns the number
        updated."""
        schema = self.table(table)
        for column_name in assignments:
            schema.column(column_name)  # validate
            if column_name == schema.primary_key:
                raise QueryError("cannot update the primary key")
        matches = self.select(table, where)
        writes = {
            schema.logical_key(name, schema.pk_bytes(row)): encode_value(
                schema.column(name).type, value
            )
            for row in matches
            for name, value in assignments.items()
        }
        if writes:
            self._commit(writes, statements=(f"UPDATE {table}",))
        return len(matches)

    def delete_rows(self, table: str, where: Where = ()) -> int:
        """Delete matching rows in one commit; returns the number
        deleted."""
        schema = self.table(table)
        matches = self.select(table, where)
        writes: Dict[bytes, object] = {
            schema.logical_key(name, schema.pk_bytes(row)): None
            for row in matches
            for name in (ROW_COLUMN, *(c.name for c in schema.columns))
        }
        if writes:
            self._commit(writes, statements=(f"DELETE FROM {table}",))
        return len(matches)

    def select(
        self,
        table: str,
        where: Where = (),
        columns: Tuple[str, ...] = ("*",),
        as_of_block: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Rows satisfying every ``(column, predicate)`` of ``where``.

        An operand its column's type rejects, NULL included, is a
        :class:`SchemaError` naming the column.  The planner's access
        path only picks which rows get loaded: each is re-filtered by
        all of ``where``, so every path gives one answer.
        """
        schema = self.table(table)
        return _shape(
            schema, self._matching(schema, where, as_of_block), columns,
            limit,
        )

    def _matching(
        self, schema: TableSchema, where: Where, as_of_block: Optional[int]
    ) -> List[Dict[str, Any]]:
        """Every full row of ``schema`` satisfying all of ``where``."""
        for column, predicate in where:
            for operand in predicate.operands:
                check_type(schema.column(column), operand)
        if as_of_block is not None:
            candidates = self._rows_as_of(schema, as_of_block)
        else:
            plan = plan_query(where, schema.primary_key)
            candidates = (
                _row(schema, pk, self._live)
                for pk in self._candidate_pks(schema, plan)
            )
        return [
            row for row in candidates
            if row is not None and all(
                predicate.matches(row[column]) for column, predicate in where
            )
        ]

    def _candidate_pks(
        self, schema: TableSchema, plan: Plan
    ) -> Iterable[bytes]:
        if plan.path is AccessPath.PRIMARY_POINT:
            return [schema.pk_bytes(plan.predicate.value)]
        if plan.path is AccessPath.INDEX:
            ukeys = self.inverted.matching(
                schema.cell_column(plan.column), plan.predicate
            )
            return dict.fromkeys(
                UniversalKey.decode(ukey).primary_key for ukey in ukeys
            )
        # A primary-key range, or (no bounds) a full scan: walk the
        # _row presence column.
        pk_type = schema.column(schema.primary_key).type
        prefix = schema.logical_key(ROW_COLUMN, b"")
        low, high = (
            plan.predicate.span() if plan.predicate else (None, None)
        )
        entries = self.versions.range(
            prefix if low is None else prefix + encode_pk(pk_type, low),
            prefix_end(prefix) if high is None
            else prefix + encode_pk(pk_type, high),
            inclusive=high is not None,
        )
        return [logical_key[len(prefix):] for logical_key, _ in entries]

    def _rows_as_of(
        self, schema: TableSchema, height: int
    ) -> Iterator[Optional[Dict[str, Any]]]:
        """Every row in block ``height``'s index instance (None for one
        that is not complete there)."""
        self.flush_ledger()
        tree = self.ledger.tree_at(height)
        prefix = schema.logical_key(ROW_COLUMN, b"")
        for logical_key, _flag in tree.scan(prefix, prefix_end(prefix)):
            if logical_key.startswith(prefix):  # the high end is inclusive
                yield _row(schema, logical_key[len(prefix):], tree.get)

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
        self.flush_ledger()
        out: List[Tuple[int, Optional[Dict[str, Any]]]] = []
        for height in range(self.ledger.height):
            row = _row(schema, pk, self.ledger.tree_at(height).get)
            if not out or row != out[-1][1]:
                out.append((height, row))
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
            schema = self.table(statement.table)
            rows = self._matching(
                schema, statement.where, statement.as_of_block
            )
            if statement.order_by is not None:
                # Sort full rows: the column need not be projected.
                column, descending = statement.order_by
                schema.column(column)  # validate
                rows.sort(key=lambda row: row[column], reverse=descending)
            if statement.aggregate is not None:
                return _shape(
                    schema, _aggregated(schema, statement, rows), ("*",),
                    statement.limit,
                )
            return _shape(schema, rows, statement.columns, statement.limit)
        if isinstance(statement, sql_module.Update):
            return self.update(
                statement.table,
                dict(statement.assignments),
                statement.where,
            )
        if isinstance(statement, sql_module.Delete):
            return self.delete_rows(statement.table, statement.where)
        raise QueryError(f"unsupported statement {statement!r}")


def _shape(
    schema: TableSchema,
    rows: List[Dict[str, Any]],
    columns: Tuple[str, ...],
    limit: Optional[int],
) -> List[Dict[str, Any]]:
    """``rows`` cut to ``limit`` and projected onto ``columns``."""
    rows = rows[:limit]
    if columns == ("*",):
        return rows
    for name in columns:
        schema.column(name)  # validate
    return [{name: row[name] for name in columns} for row in rows]


def _aggregated(
    schema: TableSchema, statement, rows: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """A single-aggregate SELECT's rows over its matching ``rows``: one,
    or one for each ``GROUP BY`` value in ascending order."""
    function, target = statement.aggregate
    if target != "*":
        schema.column(target)  # validate
    label = f"{function}({target})"
    group_by = statement.group_by
    if group_by is None:
        return [{label: _aggregate(function, target, rows)}]
    schema.column(group_by)  # validate
    groups: Dict[Any, List[Dict[str, Any]]] = {}
    for row in rows:
        groups.setdefault(row[group_by], []).append(row)
    return [
        {group_by: value, label: _aggregate(function, target, members)}
        for value, members in sorted(groups.items())
    ]


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
    through the node's certifier and seals one ledger block through
    :meth:`SpitzDatabase._commit`.
    """

    def __init__(self, db: SpitzDatabase, txn: Transaction):
        self._db = db
        self._txn = txn

    def get(self, key: bytes) -> Optional[bytes]:
        # Every committed write (auto-commit or transactional) is
        # installed in the MVCC store, so the snapshot read is complete.
        return self._txn.read(KV_PREFIX + key)

    def put(self, key: bytes, value: bytes) -> None:
        self._txn.write(KV_PREFIX + key, put_value(key, value))

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


def put_value(key: bytes, value: bytes) -> bytes:
    """``value``, or :class:`QueryError` naming ``key`` unless it is
    bytes: ``None`` in a write set is a delete, and anything else would
    be installed as a version no ledger block can seal."""
    if not isinstance(value, bytes):
        raise QueryError(
            f"value for key {key!r} must be bytes, "
            f"not {type(value).__name__}"
        )
    return value


def _row(
    schema: TableSchema,
    pk: bytes,
    read: Callable[[bytes], Optional[bytes]],
) -> Optional[Dict[str, Any]]:
    """Row ``pk`` as ``read`` (logical key → cell bytes, or None) sees
    it: None unless its ``_row`` flag and every column are there."""
    if read(schema.logical_key(ROW_COLUMN, pk)) is None:
        return None
    row: Dict[str, Any] = {}
    for column in schema.columns:
        value = read(schema.logical_key(column.name, pk))
        if value is None:
            return None
        row[column.name] = decode_value(value)
    return row


#: One inverted-index posting: ``(column, value, token)``.
Posting = Tuple[str, Any, bytes]


def _postings(
    logical_key: bytes, timestamp: int, cell: bytes
) -> List[Posting]:
    """``(column, value, token)`` for each inverted-index posting of the
    version ``cell`` written under ``logical_key`` (a table cell or a
    document, never a KV key) at ``timestamp``.

    A table cell posts its typed value under its universal key, and a
    document each postable top-level field under ``"<name>#doc.<field>"``
    with its id as token; a ``_row`` flag, which decodes to no value,
    and an unpostable value post nothing.
    """
    if logical_key.startswith(DOC_PREFIX):
        column, doc_id = parse_logical_key(logical_key)
        return [
            (f"{column}.{field}", value, doc_id)
            for field, value in decode_document(cell).items()
            if postable(value)
        ]
    try:
        value = decode_value(cell)
    except (SchemaError, ValueError):
        return []
    if not postable(value):
        return []
    ukey = universal_key(logical_key, timestamp, cell)
    return [(ukey.column, value, ukey.encode())]


def _indexed_columns(columns: Sequence[str]) -> frozenset:
    """``columns`` as a set of indexed columns, or :class:`QueryError`:
    at least one, no duplicates, each a table cell column."""
    names = list(columns)
    if not names:
        raise QueryError("indexed_columns must name at least one column")
    if len(set(names)) != len(names):
        raise QueryError("indexed_columns contains duplicates")
    for name in names:
        if "." not in name or "#" in name or "\x00" in name:
            raise QueryError(
                f"indexed column {name!r} must be a table cell "
                "column (\"table.column\"); KV cells and document "
                "fields are not committed"
            )
    return frozenset(names)


def _searchable(predicate: Union[str, SearchPredicate]) -> SearchPredicate:
    """A search entry point's predicate, checked: :meth:`SearchPredicate
    .parse` for the CLI grammar, :meth:`SearchPredicate.searchable` for
    an object."""
    if isinstance(predicate, str):
        return SearchPredicate.parse(predicate)
    return predicate.searchable()
