"""Spitz core: the paper's primary contribution (Section 5).

The control layer (processor nodes, each a request handler over the
database's commit pipeline and transaction manager) sits on a storage
layer made of a virtual cell store over ForkBase, a SIRI-indexed
ledger, a B+-tree access path and inverted indexes.  :class:`~repro.core.database.SpitzDatabase` is the
public facade; :class:`~repro.core.verifier.ClientVerifier` is the
client-side trust anchor.
"""

from repro.core.audit import (
    ForkReport,
    ProofBundle,
    audit_ledger,
    compare_replicas,
    make_bundle,
    verify_bundle,
)
from repro.core.cell_store import Cell, CellStore
from repro.core.client import ClusterClient, run_saturation
from repro.core.database import SpitzDatabase
from repro.core.documents import Collection, DocumentStore
from repro.core.node import MessageQueue, ProcessorNode, SpitzCluster
from repro.core.ledger import Block, LedgerDigest, SpitzLedger
from repro.core.proofs import (
    LedgerMultiProof,
    LedgerProof,
    LedgerRangeProof,
)
from repro.core.schema import Column, TableSchema
from repro.core.universal_key import UniversalKey
from repro.core.verifier import ClientVerifier

__all__ = [
    "Block",
    "Collection",
    "DocumentStore",
    "ForkReport",
    "ProofBundle",
    "audit_ledger",
    "compare_replicas",
    "make_bundle",
    "verify_bundle",
    "Cell",
    "CellStore",
    "ClientVerifier",
    "ClusterClient",
    "Column",
    "LedgerDigest",
    "LedgerMultiProof",
    "LedgerProof",
    "LedgerRangeProof",
    "MessageQueue",
    "ProcessorNode",
    "SpitzCluster",
    "SpitzDatabase",
    "SpitzLedger",
    "TableSchema",
    "UniversalKey",
    "run_saturation",
]
