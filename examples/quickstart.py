"""Quickstart: a verifiable key-value store in ten minutes.

Covers the core loop of every Spitz application:

1. write data (every write is sealed into a hash-chained ledger block);
2. read it back *with a proof*;
3. verify the proof against the digest you trust;
4. watch verification fail when someone lies to you;
5. time-travel: read any historical state, verifiably.

Run:  python examples/quickstart.py
"""

from repro import ClientVerifier, SpitzDatabase, TamperDetectedError
from repro.core.proofs import LedgerProof
from repro.crypto.hashing import short
from repro.indexes.siri import SiriProof


def main() -> None:
    db = SpitzDatabase()

    # -- 1. write ----------------------------------------------------------
    print("== writing ==")
    for name, balance in [(b"alice", b"100"), (b"bob", b"250")]:
        block = db.put(b"account:" + name, balance)
        print(f"  put account:{name.decode()} -> block #{block.height}")

    # The client pins the ledger digest it currently trusts.  In a real
    # deployment this arrives out of band (gossip, a bulletin board, a
    # regulator's feed) so the server cannot rewrite history unnoticed.
    client = ClientVerifier()
    client.trust(db.digest())
    print(f"  trusted digest: height={client.trusted_digest.height}, "
          f"chain={short(client.trusted_digest.chain_digest)}")

    # -- 2 & 3. verified read ------------------------------------------------
    print("\n== verified read ==")
    value, proof = db.get_verified(b"account:alice")
    client.verify_or_raise(proof)
    print(f"  account:alice = {value.decode()}  "
          f"(proof: {len(proof.siri.nodes)} nodes, "
          f"{proof.size_bytes} bytes) .. VERIFIED")

    # Absence is provable too: no server can claim a key is missing
    # when it exists (or vice versa) without breaking the proof.
    value, proof = db.get_verified(b"account:mallory")
    client.verify_or_raise(proof)
    print(f"  account:mallory = {value}  (proven absent) .. VERIFIED")

    # -- 4. tamper detection ---------------------------------------------------
    print("\n== tamper detection ==")
    _value, honest = db.get_verified(b"account:alice")
    forged = LedgerProof(
        siri=SiriProof(
            key=honest.siri.key, value=b"1000000", nodes=honest.siri.nodes
        ),
        block=honest.block,
    )
    try:
        client.verify_or_raise(forged)
    except TamperDetectedError as error:
        print(f"  forged balance rejected: {error}")

    # -- 5. history and time travel ----------------------------------------------
    print("\n== history ==")
    db.put(b"account:alice", b"75")   # alice spends 25
    db.delete(b"account:bob")         # bob closes the account
    client.observe(db.digest())       # client follows the digest

    for timestamp, value in db.history(b"account:alice"):
        print(f"  alice @ ts {timestamp}: {value.decode()}")

    past = db.ledger.height - 3
    old_bob, proof = db.get_at_block_verified(b"account:bob", past)
    assert proof.verify(db.ledger.block(past).chain_digest)
    print(f"  bob as of block #{past}: {old_bob.decode()} "
          "(verified against that block's digest)")
    print(f"  bob now: {db.get(b'account:bob')}")

    # -- full audit -------------------------------------------------------------
    assert db.verify_chain()
    print("\n== full-chain audit passed ==")


if __name__ == "__main__":
    main()
