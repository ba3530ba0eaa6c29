"""Cryptographic primitives: canonical hashing and Merkle trees.

Everything authenticated in the library reduces to the helpers in this
package: :mod:`repro.crypto.hashing` provides a canonical encoding and SHA-256
digests (plain ``bytes``), and
:mod:`repro.crypto.merkle` provides a classic binary Merkle tree with
inclusion proofs plus an append-only hash chain.
"""

from repro.crypto.hashing import (
    Digest,
    EMPTY_DIGEST,
    canonical_encode,
    hash_bytes,
    hash_many,
    hash_value,
)
from repro.crypto.merkle import HashChain, MerkleProof, MerkleTree

__all__ = [
    "Digest",
    "EMPTY_DIGEST",
    "canonical_encode",
    "hash_bytes",
    "hash_many",
    "hash_value",
    "HashChain",
    "MerkleProof",
    "MerkleTree",
]
