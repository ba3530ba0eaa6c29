"""Audit tooling: replica comparison, fork detection, proof bundles.

The paper's dispute-resolution story (Sections 1, 2.2) needs more than
point proofs: an auditor confronted with two parties' views of "the"
ledger must decide whether they are consistent, and a litigant needs a
self-contained evidence package.  This module provides both:

- :func:`compare_replicas` — find the first block where two ledgers
  diverge (a *fork*), or prove one is a prefix of the other;
- :func:`audit_ledger` — full internal-consistency audit of one
  ledger (chain links, and every index node and value chunk each
  block wrote re-hashed to its address);
- :class:`ProofBundle` — a serializable evidence package (claim +
  proof + the digest it binds to) that a third party can check
  offline with :func:`verify_bundle`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, List, Optional, Set, Tuple

from repro.crypto.hashing import EMPTY_DIGEST, Digest, hash_bytes, short
from repro.errors import SpitzError, VerificationError
from repro.forkbase.chunk_store import ChunkStore
from repro.indexes.siri import decode_node
from repro.core.ledger import LedgerDigest, SpitzLedger


@dataclass(frozen=True)
class ForkReport:
    """Outcome of comparing two ledgers."""

    consistent: bool
    fork_height: Optional[int]
    common_prefix: int
    detail: str


def compare_replicas(a: SpitzLedger, b: SpitzLedger) -> ForkReport:
    """Compare two parties' ledgers block by block.

    Consistent means one is a prefix of the other (a replica that is
    merely behind).  A *fork* — two different blocks claiming the same
    height — is the smoking gun of history tampering: the same party
    signed two histories.
    """
    shared = min(a.height, b.height)
    for height in range(shared):
        if a.block(height).chain_digest != b.block(height).chain_digest:
            return ForkReport(
                consistent=False,
                fork_height=height,
                common_prefix=height,
                detail=(
                    f"fork at block #{height}: "
                    f"{short(a.block(height).chain_digest)} vs "
                    f"{short(b.block(height).chain_digest)}"
                ),
            )
    behind = "equal" if a.height == b.height else (
        f"one replica is {abs(a.height - b.height)} blocks behind"
    )
    return ForkReport(
        consistent=True,
        fork_height=None,
        common_prefix=shared,
        detail=f"consistent prefixes ({behind})",
    )


def audit_ledger(ledger: SpitzLedger) -> List[str]:
    """Full internal audit; returns a list of findings (empty = clean).

    Checks every chain link, recomputes every block digest, and
    re-hashes what each block wrote: every index node under its root
    that no earlier block's root reaches, and the value chunk of every
    pair in those leaves.  A storage layer that dropped or corrupted a
    node cannot serve proofs for that block; one that dropped or
    corrupted a value chunk cannot serve the value its leaf commits to.
    """
    findings: List[str] = []
    running = EMPTY_DIGEST
    audited: Set[Tuple[bytes, bool]] = set()
    for height in range(ledger.height):
        block = ledger.block(height)
        if block.previous_chain_digest != running:
            findings.append(
                f"block #{height}: broken previous-link"
            )
        if not block.seals():
            findings.append(f"block #{height}: chain digest mismatch")
        running = block.chain_digest
        for problem in _audit_chunks(ledger.chunks, block.tree_root, audited):
            findings.append(f"block #{height}: {problem}")
    return findings


def _audit_chunks(
    chunks: ChunkStore, root: Digest, audited: Set[Tuple[bytes, bool]]
) -> Iterator[str]:
    """What is wrong with the chunks under the index ``root`` not yet in
    ``audited`` (``(address, is an index node)`` of every chunk already
    re-hashed).  Reads the stored bytes, never the decode cache."""
    pending = [(root, True)]
    while pending:
        address, is_node = chunk = pending.pop()
        if chunk in audited:
            continue
        audited.add(chunk)
        kind = "index node" if is_node else "value chunk"
        what = f"{kind} {address.hex()[:12]}"
        raw = chunks.get_optional(address)
        if raw is None:
            yield f"{what} missing"
        elif hash_bytes(raw) != address:
            yield f"{what} does not hash to its address"
        elif is_node:
            try:
                tag, pairs = decode_node(raw)
            except ValueError as error:
                yield f"{what} unreadable ({error})"
                continue
            pending += [(digest, tag == "B") for _key, digest in pairs]


@dataclass(frozen=True)
class ProofBundle:
    """Self-contained, serializable evidence for one claim."""

    description: str
    digest: LedgerDigest
    proof: object  # anything answering the proof protocol

    def serialize(self) -> bytes:
        """A JSON document of wire-codec frames.

        A bundle is evidence handed to a third party by the party being
        audited, so it is data in the strict wire format and never a
        pickle: loading one cannot run the sender's code.
        """
        from repro.serve.codec import encode_value

        return json.dumps({
            "description": self.description,
            "digest": encode_value(self.digest),
            "proof": encode_value(self.proof),
        }).encode("utf-8")

    @staticmethod
    def deserialize(data: bytes) -> "ProofBundle":
        from repro.serve.codec import decode_value

        try:
            frame = json.loads(data)
            bundle = ProofBundle(
                description=frame["description"],
                digest=decode_value(frame["digest"]),
                proof=decode_value(frame["proof"]),
            )
        except (ValueError, KeyError, TypeError, SpitzError) as error:
            raise VerificationError(f"not a proof bundle: {error}") from None
        if not isinstance(bundle.description, str) or not isinstance(
            bundle.digest, LedgerDigest
        ):
            raise VerificationError("not a proof bundle")
        return bundle


def make_bundle(
    ledger: SpitzLedger, key: bytes, description: str = ""
) -> ProofBundle:
    """Package the current value of ``key`` with everything a third
    party needs to verify it offline."""
    _value, proof = ledger.get_with_proof(key)
    return ProofBundle(
        description=description or f"value of {key!r}",
        digest=ledger.digest(),
        proof=proof,
    )


def verify_bundle(
    bundle: ProofBundle, trusted: Optional[LedgerDigest] = None
) -> Tuple[bool, str]:
    """Check a bundle, optionally pinning it to a known digest.

    Without ``trusted``, the bundle is checked for internal
    consistency (the proof binds to the bundle's own digest) — enough
    to establish *what that ledger said*.  With ``trusted``, the
    bundle must additionally match the digest the verifier already
    knows — establishing it is *the* ledger.
    """
    if trusted is not None and (
        trusted.chain_digest != bundle.digest.chain_digest
    ):
        return False, (
            "bundle digest does not match the trusted digest "
            f"({short(bundle.digest.chain_digest)} vs "
            f"{short(trusted.chain_digest)})"
        )
    verify = getattr(bundle.proof, "verify", None)
    if verify is None:
        return False, "bundle carries no verifiable proof"
    if not verify(bundle.digest.chain_digest):
        return False, "proof does not verify against the bundle digest"
    return True, "verified"
