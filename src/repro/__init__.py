"""Spitz: A Verifiable Database System — a full Python reproduction.

Reproduces Zhang, Xie, Yue, Zhong, *"Spitz: A Verifiable Database
System"*, PVLDB 13(12), 2020 — the Spitz system itself plus every
substrate and comparator its evaluation depends on.  See DESIGN.md for
the inventory and EXPERIMENTS.md for paper-vs-measured results.

Quick start::

    from repro import SpitzDatabase, ClientVerifier

    db = SpitzDatabase()
    db.put(b"patient:42", b"blood_type=O+")
    value, proof = db.get_verified(b"patient:42")

    client = ClientVerifier()
    client.trust(db.digest())
    client.verify_or_raise(proof)   # raises TamperDetectedError if forged
"""

from repro.core.audit import compare_replicas, make_bundle, verify_bundle
from repro.core.database import SpitzDatabase
from repro.core.documents import DocumentStore
from repro.core.ledger import Block, LedgerDigest, SpitzLedger
from repro.core.proofs import (
    LedgerMultiProof,
    LedgerProof,
    LedgerRangeProof,
)
from repro.core.schema import Column, TableSchema
from repro.core.verifier import ClientVerifier
from repro.baseline.ledger_db import BaselineLedgerDB
from repro.forkbase.store import ForkBase
from repro.integration.intrusive import IntrusiveVDB, migrate_kvs_to_spitz
from repro.integration.nonintrusive import NonIntrusiveVDB
from repro.kvstore.kvs import ImmutableKVS
from repro.errors import (
    ClusterOverloadedError,
    SpitzError,
    TamperDetectedError,
    TransactionAborted,
    VerificationError,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineLedgerDB",
    "DocumentStore",
    "compare_replicas",
    "make_bundle",
    "verify_bundle",
    "Block",
    "ClientVerifier",
    "ClusterOverloadedError",
    "Column",
    "ForkBase",
    "ImmutableKVS",
    "IntrusiveVDB",
    "LedgerDigest",
    "LedgerMultiProof",
    "LedgerProof",
    "LedgerRangeProof",
    "NonIntrusiveVDB",
    "SpitzDatabase",
    "SpitzError",
    "SpitzLedger",
    "TableSchema",
    "TamperDetectedError",
    "TransactionAborted",
    "VerificationError",
    "migrate_kvs_to_spitz",
]
