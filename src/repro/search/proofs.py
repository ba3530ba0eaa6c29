"""Search predicates and the verifiable search proof.

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
from typing import List, Optional, Tuple, Union

from repro.crypto.hashing import Digest
from repro.errors import QueryError
from repro.indexes.pos_tree import _VERIFY_ERRORS, PosRangeProof
from repro.indexes.siri import SiriProof
from repro.core.proofs import LedgerProof
from repro.search.committed import (
    NUMERIC_MAX,
    NUMERIC_MIN,
    SEARCH_ROOT_KEY,
    STRING_MAX,
    STRING_MIN,
    decode_manifest,
    decode_postings,
    decode_search_value,
    encode_search_value,
)

#: Everything a tampered search proof can raise during verification —
#: the POS-tree set plus the strict binary codecs (struct) and the
#: predicate/encoding guards (QueryError).
_SEARCH_VERIFY_ERRORS = _VERIFY_ERRORS + (QueryError, struct.error)

_OPS = ("eq", "ge", "gt", "le", "lt", "between")
_OP_TOKENS = (
    ("==", "eq"),
    (">=", "ge"),
    ("<=", "le"),
    (">", "gt"),
    ("<", "lt"),
    ("=", "eq"),
)


def _check_operand(value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise QueryError(
            f"predicate operand of type {type(value).__name__} is not "
            "searchable (int, float or str required)"
        )


@dataclass(frozen=True)
class SearchPredicate:
    """One search predicate: keyword equality or a value range.

    ``op`` is one of ``eq``/``ge``/``gt``/``le``/``lt``/``between``.
    Single-operand forms use ``value``; ``between`` (inclusive both
    ends) uses ``low``/``high``.
    """

    op: str
    value: Optional[Union[int, float, str]] = None
    low: Optional[Union[int, float, str]] = None
    high: Optional[Union[int, float, str]] = None

    def __post_init__(self):
        if self.op not in _OPS:
            raise QueryError(f"unknown predicate op {self.op!r}")
        if self.op == "between":
            if self.value is not None:
                raise QueryError("between takes low/high, not value")
            _check_operand(self.low)
            _check_operand(self.high)
            if isinstance(self.low, str) != isinstance(self.high, str):
                raise QueryError("between bounds mix string and numeric")
            if self.low > self.high:  # type: ignore[operator]
                raise QueryError("between bounds are inverted")
        else:
            if self.low is not None or self.high is not None:
                raise QueryError(f"{self.op} takes value, not low/high")
            _check_operand(self.value)

    # -- construction ---------------------------------------------------

    @classmethod
    def eq(cls, value) -> "SearchPredicate":
        return cls("eq", value=value)

    @classmethod
    def ge(cls, value) -> "SearchPredicate":
        return cls("ge", value=value)

    @classmethod
    def gt(cls, value) -> "SearchPredicate":
        return cls("gt", value=value)

    @classmethod
    def le(cls, value) -> "SearchPredicate":
        return cls("le", value=value)

    @classmethod
    def lt(cls, value) -> "SearchPredicate":
        return cls("lt", value=value)

    @classmethod
    def between(cls, low, high) -> "SearchPredicate":
        return cls("between", low=low, high=high)

    @classmethod
    def parse(cls, text: str) -> "SearchPredicate":
        """Parse the CLI grammar: ``= foo`` (or ``== foo``), ``>= 10``,
        ``< 2.5``, ``between 3 7``, or a bare literal (equality).
        Quote a literal (``'10'``) to force a string."""
        stripped = text.strip()
        if not stripped:
            raise QueryError("empty predicate")
        lowered = stripped.lower()
        if lowered.startswith("between"):
            tokens = stripped[len("between"):].split()
            if len(tokens) != 2:
                raise QueryError(
                    "between needs exactly two operands: 'between LOW HIGH'"
                )
            return cls.between(_literal(tokens[0]), _literal(tokens[1]))
        for token, op in _OP_TOKENS:
            if stripped.startswith(token):
                operand = stripped[len(token):].strip()
                if not operand:
                    raise QueryError(f"missing operand after {token!r}")
                return cls(op, value=_literal(operand))
        return cls.eq(_literal(stripped))

    # -- semantics ------------------------------------------------------

    @property
    def is_string(self) -> bool:
        sample = self.low if self.op == "between" else self.value
        return isinstance(sample, str)

    def matches(self, candidate) -> bool:
        """Whether an *indexed* value satisfies this predicate."""
        if isinstance(candidate, bool) or not isinstance(
            candidate, (int, float, str)
        ):
            return False
        if isinstance(candidate, str) != self.is_string:
            return False
        if self.op == "eq":
            return candidate == self.value
        if self.op == "ge":
            return candidate >= self.value  # type: ignore[operator]
        if self.op == "gt":
            return candidate > self.value  # type: ignore[operator]
        if self.op == "le":
            return candidate <= self.value  # type: ignore[operator]
        if self.op == "lt":
            return candidate < self.value  # type: ignore[operator]
        return self.low <= candidate <= self.high  # type: ignore[operator]

    def bounds(self) -> Tuple[bytes, bytes]:
        """Canonical encoded scan bounds for range-shaped predicates.

        Strict bounds (``gt``/``lt``) scan *inclusively* from/to the
        operand's encoding — the boundary value's entry rides along in
        the proof as the omission-detecting neighbor, and both server
        and verifier re-exclude it via :meth:`matches`.
        """
        if self.op == "eq":
            raise QueryError("equality predicates have no scan bounds")
        type_min = STRING_MIN if self.is_string else NUMERIC_MIN
        type_max = STRING_MAX if self.is_string else NUMERIC_MAX
        if self.op == "between":
            return (
                encode_search_value(self.low),
                encode_search_value(self.high),
            )
        pivot = encode_search_value(self.value)
        if self.op in ("ge", "gt"):
            return pivot, type_max
        return type_min, pivot

    def describe(self) -> str:
        if self.op == "between":
            return f"between {self.low!r} {self.high!r}"
        symbol = {"eq": "==", "ge": ">=", "gt": ">", "le": "<=", "lt": "<"}
        return f"{symbol[self.op]} {self.value!r}"

    def to_payload(self) -> dict:
        """Wire shape (plain JSON scalars)."""
        payload: dict = {"op": self.op}
        if self.op == "between":
            payload["low"] = self.low
            payload["high"] = self.high
        else:
            payload["value"] = self.value
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "SearchPredicate":
        """Inverse of :meth:`to_payload`; anything else — a non-object,
        no ``op``, a stray key — is a :class:`QueryError`."""
        if not isinstance(payload, dict) or not (
            {"op"} <= payload.keys() <= {"op", "value", "low", "high"}
        ):
            raise QueryError(f"malformed predicate payload: {payload!r}")
        return cls(**payload)


def _literal(token: str):
    """CLI literal: quoted → string; else int, float, string."""
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'":
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = float(token)
    except ValueError:
        return token
    return value


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


def evaluate_on_inverted(
    inverted, column: str, predicate: SearchPredicate
) -> List[bytes]:
    """Unverified evaluation straight off the inverted index.

    Returns universal keys in the index's deterministic order (value
    order, then ukey order).  A predicate whose type does not match
    the column's yields no matches, mirroring the verified path.
    """
    try:
        if predicate.op == "eq":
            return inverted.lookup(column, predicate.value)
        if predicate.op == "between":
            return inverted.range(column, predicate.low, predicate.high)
        if predicate.is_string:
            type_min: object = ""
            type_max: object = "\U0010ffff" * 4
        else:
            type_min, type_max = float("-inf"), float("inf")
        if predicate.op in ("ge", "gt"):
            ukeys = inverted.range(column, predicate.value, type_max)
        else:
            ukeys = inverted.range(column, type_min, predicate.value)
        if predicate.op in ("gt", "lt"):
            # Results concatenate per-value posting blocks in value
            # order, so the boundary value's postings are exactly the
            # leading (gt) or trailing (lt) block — slice it off
            # positionally.  Subtracting by ukey bytes would also drop
            # a ukey that legitimately recurs under another value.
            boundary = len(inverted.lookup(column, predicate.value))
            if boundary:
                ukeys = (
                    ukeys[boundary:]
                    if predicate.op == "gt"
                    else ukeys[:-boundary]
                )
        return ukeys
    except TypeError:
        # Predicate type vs column type mismatch inside the posting
        # structure (e.g. a string bound against a skip list).
        return []


__all__ = [
    "Matches",
    "SearchPredicate",
    "SearchProof",
    "build_search_proof",
    "evaluate_on_inverted",
]
