"""Provenance queries over the ledger.

LineageChain (paper Section 2.2) motivates fine-grained provenance as
a first-class feature of verifiable systems: not just *what* a value
is, but *which operations produced each version*.  Spitz's blocks
already commit to the statements that produced them (Section 5:
"Each block tracks the modification of the records, query statements,
metadata...").  This module turns that into a query surface:

- :func:`key_provenance` — every state a key went through, each paired
  with the statements of the block that produced it;
- :func:`blocks_touching` — which blocks changed a key (via the
  per-block index instances, so the answer is derived from
  authenticated state);
- :func:`verify_statements` — check retained statement plaintext
  against the block headers (they commit to its digest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.crypto.hashing import hash_value
from repro.core.ledger import SpitzLedger


@dataclass(frozen=True)
class ProvenanceEntry:
    """One step in a key's lineage."""

    height: int
    value: Optional[bytes]  # None = absent/deleted at this block
    statements: Tuple[str, ...]


def blocks_touching(ledger: SpitzLedger, key: bytes) -> List[int]:
    """Heights of the blocks that changed ``key``.

    Derived from the per-block index instances
    (:meth:`SpitzLedger.key_history`), so the answer reflects the
    authenticated ledger state rather than any side metadata.
    """
    return [height for height, _value in ledger.key_history(key)]


def key_provenance(
    ledger: SpitzLedger, key: bytes
) -> List[ProvenanceEntry]:
    """The full lineage of ``key``: every state change with the
    statements that produced it."""
    return [
        ProvenanceEntry(height, value, ledger.statements(height))
        for height, value in ledger.key_history(key)
    ]


def verify_statements(ledger: SpitzLedger) -> List[int]:
    """Check every block's retained statements against its header.

    Returns the heights whose plaintext does NOT match the committed
    ``statements_digest`` (empty list = all provenance is intact).
    """
    bad: List[int] = []
    for height in range(ledger.height):
        block = ledger.block(height)
        if hash_value(tuple(ledger.statements(height))) != (
            block.statements_digest
        ):
            bad.append(height)
    return bad
