"""The verifiable search proof.

A :class:`SearchProof` binds a predicate's *complete* answer to the
chain digest a client pins, in three layers:

1. **anchor** — an ordinary :class:`~repro.core.proofs.LedgerProof`
   for :data:`~repro.search.committed.SEARCH_ROOT_KEY`, whose value is
   the search manifest (per-column roots).  The chain digest commits
   to the block, the block to the ledger tree, the tree to the
   manifest — so a stale or forged index root breaks here.
2. **column evidence** — against the column's manifest root: a
   :class:`~repro.indexes.siri.SiriProof` point proof for equality /
   keyword predicates (``value=None`` proves *absence*, i.e. a
   verified empty result), or a
   :class:`~repro.indexes.pos_tree.PosRangeProof` for range
   predicates, whose verification *replays the scan* over the proof
   nodes alone — dropping any leaf (boundary or interior) breaks a
   hash path, so completeness is structural, not asserted.
3. **match recomputation** — the verifier re-derives the claimed
   matches from the proven entries (decoding each value, re-applying
   the predicate — strict bounds ship their boundary neighbor and the
   verifier re-excludes it) and requires exact equality.  A dropped or
   fabricated match therefore fails even though every shipped entry
   is individually authentic.

Tamper semantics match :class:`~repro.indexes.pos_tree.PosMultiProof`:
anything undecodable or inconsistent returns ``False`` from
:meth:`SearchProof.verify` — tampering is detected at verification,
never raised at decoding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.crypto.hashing import Digest
from repro.errors import QueryError
from repro.indexes.pos_tree import _VERIFY_ERRORS, PosRangeProof
from repro.indexes.siri import SiriProof
from repro.core.proofs import LedgerProof
from repro.core.query import SearchPredicate
from repro.indexes.inverted import decode_search_value, encode_search_value
from repro.search.committed import (
    SEARCH_ROOT_KEY,
    decode_manifest,
    decode_postings,
)

#: Everything a tampered search proof can raise during verification —
#: the POS-tree set plus the strict binary codecs (struct) and the
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
    anchor: LedgerProof
    evidence: Optional[Union[SiriProof, PosRangeProof]]

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
        total = self.anchor.size_bytes + len(self.column)
        if self.evidence is not None:
            total += self.evidence.size_bytes
        for value, postings in self.matches:
            total += len(value) + sum(len(ukey) for ukey in postings)
        return total

    @property
    def label(self) -> str:
        return (
            f"search:{self.column}:{self.predicate.describe()}"
            f"@block{self.anchor.block.height}"
        )

    @property
    def cacheable_nodes(self) -> Tuple[bytes, ...]:
        """Index nodes eligible for the verifier's node cache."""
        nodes = self.anchor.cacheable_nodes
        if self.evidence is not None:
            nodes += self.evidence.nodes
        return nodes

    def verify(
        self,
        trusted_chain_digest: Digest,
        node_cache: Optional[dict] = None,
        block_cache: Optional[set] = None,
    ) -> bool:
        """True iff the claimed matches are the complete, authentic
        answer under the trusted chain digest.  Every tamper shape —
        dropped/fabricated match, narrowed range, stale root,
        undecodable node — returns ``False``; nothing raises."""
        try:
            self.predicate.searchable()
            if self.anchor.key != SEARCH_ROOT_KEY:
                return False
            if not self.anchor.verify(
                trusted_chain_digest, node_cache, block_cache
            ):
                return False
            raw_manifest = self.anchor.value
            if raw_manifest is None:
                # Proven absence of the manifest: the ledger has no
                # search plane, so no claim can be supported.
                return False
            manifest = decode_manifest(raw_manifest)
            root = manifest.get(self.column)
            if root is None:
                # The manifest is exhaustive and hash-bound, so a
                # missing column *proves* it is unindexed — the only
                # supportable claim is the empty result.
                return self.matches == () and self.evidence is None
            evidence = self.evidence
            if self.predicate.op == "eq":
                bound = isinstance(evidence, SiriProof) and (
                    evidence.key == encode_search_value(self.predicate.value)
                )
            else:
                bound = isinstance(evidence, PosRangeProof) and (
                    (evidence.low, evidence.high) == self.predicate.bounds()
                )
            supported = bound and evidence.verify(root, node_cache)
            return supported and self.matches == _supported_matches(
                self.predicate, evidence
            )
        except _SEARCH_VERIFY_ERRORS:
            return False


def _supported_matches(predicate: SearchPredicate, evidence) -> Matches:
    """The matches ``evidence`` supports for ``predicate`` — what the
    server claims and what the verifier recomputes, from one recipe."""
    if predicate.op == "eq":
        if evidence.value is None:
            return ()
        return ((evidence.key, decode_postings(evidence.value)),)
    return tuple(
        (key, decode_postings(raw))
        for key, raw in evidence.entries
        if predicate.matches(decode_search_value(key))
    )


def build_search_proof(
    ledger, index, column: str, predicate: SearchPredicate
) -> SearchProof:
    """Build one search proof against the current sealed state.

    ``ledger`` must already hold the manifest under the reserved key
    (:meth:`SpitzDatabase.search_verified` seals it first); ``index``
    is the :class:`~repro.search.committed.CommittedSearchIndex`.
    Shared by the database facade and the benchmark's bulk-built path.
    """
    manifest, anchor = ledger.get_with_proof(SEARCH_ROOT_KEY)
    if manifest is None:
        raise QueryError(
            "search index root is not sealed in the ledger; commit (or "
            "flush) at least once with search enabled"
        )
    tree = index.tree(column)
    if tree is None:
        return SearchProof(column, predicate, (), anchor, None)
    if predicate.op == "eq":
        _raw, evidence = tree.get_with_proof(
            encode_search_value(predicate.value)
        )
    else:
        _entries, evidence = tree.scan_with_proof(*predicate.bounds())
    matches = _supported_matches(predicate, evidence)
    return SearchProof(column, predicate, matches, anchor, evidence)


__all__ = [
    "Matches",
    "SearchProof",
    "build_search_proof",
]
