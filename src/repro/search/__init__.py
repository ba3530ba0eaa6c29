"""Verifiable search plane: Merkle-committed secondary indexes.

Spitz's inverted indexes (Section 5, *Inverted Index*) locate rows by
cell value, but by themselves they answer queries *unproven*: a
malicious server could drop or fabricate matches.  This package
commits the secondary structure itself — each indexed column's
postings become a POS-tree over canonical ``value → sorted-posting``
leaves, the per-column roots are folded into a manifest anchored under
a reserved ledger key, and every search answer ships a
:class:`~repro.search.proofs.SearchProof` binding the matches (and
their *completeness*) to the chain digest clients already pin.

See DESIGN.md §6i for the commitment layout, the completeness-proof
rules, and the tamper matrix.
"""

from repro.search.committed import (
    SEARCH_ROOT_KEY,
    CommittedSearchIndex,
    decode_manifest,
    decode_postings,
    encode_manifest,
    encode_postings,
    index_root_of,
)
from repro.core.query import SearchPredicate
from repro.search.proofs import SearchProof, build_search_proof

__all__ = [
    "SEARCH_ROOT_KEY",
    "CommittedSearchIndex",
    "SearchPredicate",
    "SearchProof",
    "build_search_proof",
    "decode_manifest",
    "decode_postings",
    "encode_manifest",
    "encode_postings",
    "index_root_of",
]
