"""The verifiable search proof: a claim over one ledger range proof.

A column's postings are ledger keys (:mod:`repro.search.committed`),
and every predicate — an ``eq`` is the one-value range ``[k, k]`` — is
the range :meth:`~repro.core.query.SearchPredicate.bounds` under the
column's prefix.  So the evidence for a search is an ordinary
:class:`~repro.core.proofs.LedgerRangeProof`, and
:meth:`SearchProof.verify` has four steps:

1. the predicate is one a search answers;
2. the evidence covers exactly the column-prefixed bounds — evidence
   about another column, a KV range, or an ``eq`` widened past
   ``[k, k]`` fails here;
3. the evidence verifies under the trusted chain digest: the block
   anchor, then the range replay, where dropping any leaf (boundary or
   interior) breaks a hash path — completeness is structural;
4. the claimed matches are exactly what the proven entries support,
   recomputed by the one recipe the server used (decoding each value,
   re-applying the predicate — a strict bound's boundary entry rides
   along and is re-excluded).

A column with no keys proves only the empty answer.  Anything
undecodable or inconsistent returns ``False`` — tampering is detected
at verification, never raised at decoding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.crypto.hashing import Digest
from repro.errors import QueryError
from repro.indexes.pos_tree import _VERIFY_ERRORS
from repro.core.proofs import LedgerRangeProof
from repro.core.query import SearchPredicate
from repro.indexes.inverted import decode_search_value
from repro.search.committed import column_prefix, decode_postings

#: Everything a tampered search proof can raise during verification —
#: the POS-tree set, the strict binary codecs (struct) and the
#: predicate/encoding guards (QueryError).
_SEARCH_VERIFY_ERRORS = _VERIFY_ERRORS + (QueryError, struct.error)

#: Match rows as carried in the proof: ``(encoded value, postings)``
#: in encoded-value order — the canonical result ordering.
Matches = Tuple[Tuple[bytes, Tuple[bytes, ...]], ...]


@dataclass(frozen=True)
class SearchProof:
    """Verifiable answer to one search predicate (see module doc)."""

    column: str
    predicate: SearchPredicate
    matches: Matches
    evidence: LedgerRangeProof

    @property
    def ukeys(self) -> Tuple[bytes, ...]:
        """All matched universal keys, flattened in canonical order."""
        return tuple(
            ukey for _value, postings in self.matches for ukey in postings
        )

    @property
    def result_count(self) -> int:
        return sum(len(postings) for _value, postings in self.matches)

    @property
    def size_bytes(self) -> int:
        return self.evidence.size_bytes + len(self.column) + sum(
            len(value) + sum(map(len, postings))
            for value, postings in self.matches
        )

    @property
    def label(self) -> str:
        return (
            f"search:{self.column}:{self.predicate.describe()}"
            f"@block{self.evidence.block.height}"
        )

    @property
    def cacheable_nodes(self) -> Tuple[bytes, ...]:
        """Index nodes eligible for the verifier's node cache."""
        return self.evidence.cacheable_nodes

    def verify(
        self,
        trusted_chain_digest: Digest,
        node_cache: Optional[dict] = None,
        block_cache: Optional[set] = None,
    ) -> bool:
        """True iff the claimed matches are the complete, authentic
        answer under the trusted chain digest.  Every tamper shape —
        dropped/fabricated match, narrowed range, another column's or
        block's evidence, undecodable node — returns ``False``; nothing
        raises."""
        if not isinstance(self.evidence, LedgerRangeProof) or not (
            isinstance(self.predicate, SearchPredicate)
        ):
            return False
        try:
            prefix = column_prefix(self.column)
            low, high = self.predicate.searchable().bounds()
            scan = self.evidence.range_proof
            return (
                (scan.low, scan.high) == (prefix + low, prefix + high)
                and self.evidence.verify(
                    trusted_chain_digest, node_cache, block_cache
                )
                and self.matches == _supported_matches(
                    prefix, self.predicate, scan.entries
                )
            )
        except _SEARCH_VERIFY_ERRORS:
            return False


def _supported_matches(
    prefix: bytes, predicate: SearchPredicate, entries
) -> Matches:
    """The matches the posting entries ``entries`` (ledger keys under
    ``prefix``) support for ``predicate`` — what the server claims and
    what the verifier recomputes, from one recipe."""
    matches = []
    for key, raw in entries:
        value = key[len(prefix):]
        if predicate.matches(decode_search_value(value)):
            matches.append((value, decode_postings(raw)))
    return tuple(matches)


def build_search_proof(
    ledger, column: str, predicate: SearchPredicate
) -> SearchProof:
    """Prove ``predicate`` over ``column`` against ``ledger``'s tip: one
    range scan of the column's posting keys.  The tip must commit the
    current postings (:meth:`SpitzDatabase.search_verified` flushes
    first)."""
    prefix = column_prefix(column)
    low, high = predicate.bounds()
    _entries, evidence = ledger.scan_with_proof(prefix + low, prefix + high)
    return SearchProof(
        column, predicate,
        _supported_matches(prefix, predicate, evidence.entries), evidence,
    )


__all__ = [
    "Matches",
    "SearchProof",
    "build_search_proof",
]
