"""The intrusive design (Figure 4).

The ledger is embedded inside the database — which is exactly what
:class:`~repro.core.database.SpitzDatabase` is, so the design needs no
adapter.  What Section 4 emphasizes is the *cost of getting there*:
"it incurs significant cost in data migration.  In particular, data
must be moved to the new system".
:func:`migrate_kvs_to_spitz` implements that migration (preserving
version history), and its cost is measured in
``bench_ablation_designs``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.database import SpitzDatabase
from repro.kvstore.kvs import ImmutableKVS


def migrate_kvs_to_spitz(
    kvs: ImmutableKVS,
    spitz: Optional[SpitzDatabase] = None,
    batch_size: int = 64,
    include_history: bool = True,
) -> SpitzDatabase:
    """Move an existing KVS into a fresh (or provided) Spitz instance.

    Versions of every key ever written — deleted ones included — are
    replayed oldest-first in batches (one ledger block each) so the
    migrated Spitz ledger reflects the original update order; a delete
    is replayed as a delete, in a block of its own.  With
    ``include_history=False`` only the current state moves (cheaper,
    but pre-migration provenance is lost — the trade-off Section 4 asks
    deployers to weigh).
    """
    spitz = spitz if spitz is not None else SpitzDatabase()
    if include_history:
        # A stable sort: one timestamp's keys stay in key order.
        writes: List[Tuple[bytes, Optional[bytes]]] = [
            (key, version.value) for key, version in sorted(
                kvs.versions.all_versions(),
                key=lambda pair: pair[1].commit_ts,
            )
        ]
    else:
        writes = list(kvs.versions.snapshot_items(kvs.oracle.current()))
    batch = {}
    for key, value in writes:
        if key in batch or value is None:
            # A key's second version, or a delete, starts a new block:
            # what came before it must land first, not be overwritten.
            if batch:
                spitz.put_batch(batch)
            batch = {}
        if value is None:
            spitz.delete(key)
            continue
        batch[key] = value
        if len(batch) >= batch_size:
            spitz.put_batch(batch)
            batch = {}
    if batch:
        spitz.put_batch(batch)
    return spitz
