"""Verifiable search: secondary-index postings committed as ledger keys.

Spitz's inverted indexes (Section 5, *Inverted Index*) locate rows by
cell value, but by themselves they answer queries *unproven*: a
malicious server could drop or fabricate matches.  An indexed column's
postings are therefore entries of the ledger tree itself, under a
reserved key prefix, and every search answer ships a
:class:`~repro.search.proofs.SearchProof` — a claim over one ledger
range proof — binding the matches (and their *completeness*) to the
chain digest clients already pin.

See DESIGN.md §6i for the commitment layout, the completeness-proof
rules, and the tamper matrix.
"""

from repro.search.committed import (
    SEARCH_PREFIX,
    column_prefix,
    decode_postings,
    encode_postings,
    posting_key,
    posting_writes,
)
from repro.core.query import SearchPredicate
from repro.search.proofs import SearchProof, build_search_proof

__all__ = [
    "SEARCH_PREFIX",
    "SearchPredicate",
    "SearchProof",
    "build_search_proof",
    "column_prefix",
    "decode_postings",
    "encode_postings",
    "posting_key",
    "posting_writes",
]
